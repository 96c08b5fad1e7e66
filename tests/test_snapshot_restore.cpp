/// \file test_snapshot_restore.cpp
/// Regression tests for the RRR best-iterate snapshot (mrtpl_router.cpp).
/// The driver keeps the best of all RRR iterates; restoring an earlier
/// iterate must leave the grid exactly consistent with the returned
/// solution — an early version of the restore released the *snapshot's*
/// routes instead of the *current* ones and left phantom metal behind,
/// which the congested Table II case amplified ~7x in conflicts.

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "benchgen/generator.hpp"
#include "core/conflict.hpp"
#include "core/mrtpl_router.hpp"
#include "drc/checker.hpp"
#include "eval/metrics.hpp"
#include "io/solution_io.hpp"
#include "session/router_session.hpp"

namespace mrtpl::core {
namespace {

/// A congested spec small enough for a unit test: high pin density forces
/// conflicts, several RRR iterations, and (often) a non-final best iterate.
benchgen::CaseSpec congested_spec(std::uint64_t seed) {
  benchgen::CaseSpec spec;
  spec.name = "congested";
  spec.width = spec.height = 40;
  spec.num_nets = 70;
  spec.max_pins = 6;
  spec.local_net_fraction = 0.6;
  spec.local_span = 10;
  spec.num_macros = 2;
  spec.seed = seed;
  return spec;
}

class SnapshotSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotSweep, GridMatchesSolutionAfterRun) {
  const db::Design design = benchgen::generate(congested_spec(GetParam()));
  grid::RoutingGrid grid(design);
  RouterConfig cfg;
  cfg.max_rrr_iterations = 4;
  MrTplRouter router(design, nullptr, cfg);
  const grid::Solution sol = router.run(grid);

  // The DRC ownership check covers both directions: every path vertex
  // committed to its net, and no committed wire vertex unclaimed.
  drc::DrcOptions opt;
  opt.check_coloring = false;  // failed nets may stay partially colored
  const drc::DrcReport report = drc::verify(grid, design, sol, opt);
  EXPECT_EQ(report.count(drc::ViolationKind::kOwnershipMismatch), 0)
      << report.summary();
  EXPECT_EQ(report.count(drc::ViolationKind::kOverlap), 0) << report.summary();
}

TEST_P(SnapshotSweep, FinalNeverWorseThanFirstIterate) {
  const db::Design design = benchgen::generate(congested_spec(GetParam()));

  // Reference: single pass, no RRR.
  grid::RoutingGrid grid_one(design);
  RouterConfig one;
  one.max_rrr_iterations = 0;
  MrTplRouter router_one(design, nullptr, one);
  const grid::Solution sol_one = router_one.run(grid_one);
  const eval::Metrics m_one = eval::evaluate(grid_one, sol_one, nullptr);

  // Full driver with RRR + snapshot selection.
  grid::RoutingGrid grid_rrr(design);
  RouterConfig rrr;
  rrr.max_rrr_iterations = 4;
  MrTplRouter router_rrr(design, nullptr, rrr);
  const grid::Solution sol_rrr = router_rrr.run(grid_rrr);
  const eval::Metrics m_rrr = eval::evaluate(grid_rrr, sol_rrr, nullptr);

  // The snapshot keeps the best iterate, and iterate 0 is the single-pass
  // layout — so RRR can never end up with more failures, and never with
  // meaningfully more conflicts (score ties can wobble stitch counts).
  EXPECT_LE(m_rrr.failed_nets, m_one.failed_nets) << "seed " << GetParam();
  EXPECT_LE(m_rrr.conflicts, m_one.conflicts) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotSweep,
                         ::testing::Values(2, 9, 27, 64, 125, 216));

// ---- keep-best oracles --------------------------------------------------
// The best iterate is captured lazily (only before a rip moves the grid
// off it) and the final restore is skipped when the grid already holds
// it. These FNV-1a hashes of the solution text were recorded with the
// eager predecessor, which captured every improving iterate and always
// restored, so both branches of the lazy path must reproduce it byte for
// byte.

std::string solution_hash(const grid::RoutingGrid& grid, const grid::Solution& sol) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : io::solution_to_string(grid, sol)) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct KeepBestCase {
  std::uint64_t seed;
  int max_rrr_iterations;
  const char* hash;
};

std::ostream& operator<<(std::ostream& os, const KeepBestCase& c) {
  return os << "seed " << c.seed << ", " << c.max_rrr_iterations << " iteration(s)";
}

class SnapshotKeepBest : public ::testing::TestWithParam<KeepBestCase> {};

TEST_P(SnapshotKeepBest, MatchesEagerKeepBest) {
  const KeepBestCase& c = GetParam();
  const db::Design design = benchgen::generate(congested_spec(c.seed));
  grid::RoutingGrid grid(design);
  RouterConfig cfg;
  cfg.max_rrr_iterations = c.max_rrr_iterations;
  MrTplRouter router(design, nullptr, cfg);
  const grid::Solution sol = router.run(grid);
  EXPECT_EQ(solution_hash(grid, sol), c.hash);
  // The returned grid is the returned solution, restored or not.
  drc::DrcOptions opt;
  opt.check_coloring = false;
  EXPECT_EQ(drc::verify(grid, design, sol, opt).count(
                drc::ViolationKind::kOwnershipMismatch),
            0);
}

// An earlier iterate beats the last one, so the restore runs: at one
// iteration seeds 27 and 216 tie on conflicts and the strict comparison
// keeps iterate 0; seed 14's second reroute makes things worse.
INSTANTIATE_TEST_SUITE_P(
    RestoresEarlierIterate, SnapshotKeepBest,
    ::testing::Values(KeepBestCase{27, 1, "96d29be2732b2b8b"},
                      KeepBestCase{216, 1, "a4c5bf0c1a400237"},
                      KeepBestCase{14, 2, "85e8d3c7e1772882"}));

// The last iterate is the best, so no restore runs; seed 2 is clean after
// the initial pass and never rips at all.
INSTANTIATE_TEST_SUITE_P(
    KeepsLastIterate, SnapshotKeepBest,
    ::testing::Values(KeepBestCase{2, 4, "8622100146170d63"},
                      KeepBestCase{9, 4, "b17b7e15e14fa1a1"},
                      KeepBestCase{27, 4, "efef34add9dd905b"},
                      KeepBestCase{64, 4, "cba1077c951b7086"},
                      KeepBestCase{216, 4, "58ddd888113a6e42"}));

TEST(Snapshot, RestoreBranchLeavesTheGridOnAnEarlierIterate) {
  // Seed 14 at two iterations: the last reroute leaves more conflicts
  // than the restored layout has, which proves the restore path ran.
  const db::Design design = benchgen::generate(congested_spec(14));
  grid::RoutingGrid grid(design);
  RouterConfig cfg;
  cfg.max_rrr_iterations = 2;
  MrTplRouter router(design, nullptr, cfg);
  (void)router.run(grid);
  ASSERT_FALSE(router.stats().conflicts_per_iter.empty());
  EXPECT_LT(static_cast<int>(detect_conflicts(grid).size()),
            router.stats().conflicts_per_iter.back());
}

/// Three-pin net from the left edge across the die, one per `k`.
session::Edit crossing_net_edit(int k) {
  session::Edit e;
  e.kind = session::EditKind::kAddNet;
  e.name = "eco" + std::to_string(k);
  const int y = 5 + 6 * k;
  const geom::Point at[] = {{1, y}, {38, 39 - y}, {20, (y + 13) % 40}};
  for (int p = 0; p < 3; ++p) {
    db::Pin pin;
    pin.name = std::string(1, static_cast<char>('a' + p));
    pin.layer = 0;
    pin.shapes = {{at[p], at[p]}};
    e.pins.push_back(pin);
  }
  return e;
}

TEST(Snapshot, SessionEditsMatchEagerKeepBest) {
  // Edit 0 converges after one RRR iteration with the last iterate best;
  // edit 1 is clean without ripping; edit 2 is rejected (its pin lands on
  // pin metal); edit 3 leaves a conflict the five iterations cannot
  // resolve and restores an earlier, equally scored iterate whose text
  // matches the last one.
  const db::Design design = benchgen::generate(congested_spec(77));
  session::SessionConfig config;
  config.router.rrr_threads = 1;
  session::RouterSession session(design, config);
  const char* const expected[] = {"f9b3d8d78b12cfb3", "4a71417560d5a8bf",
                                  "4a71417560d5a8bf", "063e7ac3dc004bb0"};
  for (int k = 0; k < 4; ++k) {
    const session::EditResponse resp = session.submit(crossing_net_edit(k));
    EXPECT_EQ(resp.status, k == 2 ? session::EditStatus::kRejected
                                  : session::EditStatus::kApplied)
        << "edit " << k;
    EXPECT_EQ(solution_hash(session.grid(), session.solution()), expected[k])
        << "edit " << k;
  }
}

TEST(Snapshot, ZeroIterationsStillConsistent) {
  const db::Design design = benchgen::generate(congested_spec(31));
  grid::RoutingGrid grid(design);
  RouterConfig cfg;
  cfg.max_rrr_iterations = 0;
  MrTplRouter router(design, nullptr, cfg);
  const grid::Solution sol = router.run(grid);
  drc::DrcOptions opt;
  opt.check_coloring = false;
  const drc::DrcReport report = drc::verify(grid, design, sol, opt);
  EXPECT_EQ(report.count(drc::ViolationKind::kOwnershipMismatch), 0)
      << report.summary();
}

}  // namespace
}  // namespace mrtpl::core
