/// \file test_route_budget.cpp
/// Deadline-enforced routing with graceful degradation (route_budget.hpp):
///  - an unlimited / never-tripping budget is invisible (byte-identical
///    output to the unbudgeted path);
///  - a relaxation budget degrades DETERMINISTICALLY: same solution
///    serially and on the tile walk at every thread count, kDegraded
///    status, accurate per-net dispositions;
///  - a pre-set cancel flag / microscopic deadline stop the run before it
///    routes anything, still returning a structurally consistent layout.

#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "drc/checker.hpp"
#include "io/solution_io.hpp"

namespace mrtpl::core {
namespace {

benchgen::CaseSpec congested_spec(std::uint64_t seed) {
  benchgen::CaseSpec spec;
  spec.name = "budget_case";
  spec.width = spec.height = 40;
  spec.num_nets = 70;
  spec.max_pins = 6;
  spec.local_net_fraction = 0.6;
  spec.local_span = 10;
  spec.num_macros = 2;
  spec.seed = seed;
  return spec;
}

/// Threaded configs run the tile walk (2x2 tiles); threads=1 is serial.
RouterConfig base_config(int threads = 1) {
  RouterConfig cfg;
  cfg.max_rrr_iterations = 4;
  cfg.rrr_threads = threads;
  cfg.shard_tiles = threads > 1 ? 4 : 1;
  return cfg;
}

/// Serialized solution + grid masks of one run.
std::string run_serialized(const db::Design& design, const RouterConfig& cfg,
                           const RouteBudget& budget, RouterStats* stats = nullptr,
                           grid::Solution* out = nullptr) {
  grid::RoutingGrid grid(design);
  MrTplRouter router(design, nullptr, cfg);
  const grid::Solution solution = router.run(grid, budget);
  if (stats != nullptr) *stats = router.stats();
  if (out != nullptr) *out = solution;
  return io::solution_to_string(grid, solution);
}

TEST(RouteBudget, UnlimitedBudgetIsByteIdenticalToUnbudgeted) {
  const db::Design design = benchgen::generate(congested_spec(3));
  grid::RoutingGrid grid_plain(design);
  MrTplRouter router_plain(design, nullptr, base_config());
  const grid::Solution plain = router_plain.run(grid_plain);
  EXPECT_FALSE(plain.degraded());

  RouterStats stats;
  grid::Solution budgeted;
  const std::string budgeted_text =
      run_serialized(design, base_config(), RouteBudget{}, &stats, &budgeted);
  EXPECT_EQ(io::solution_to_string(grid_plain, plain), budgeted_text);
  EXPECT_FALSE(budgeted.degraded());
  EXPECT_FALSE(stats.budget_hit);
}

TEST(RouteBudget, HugeRelaxationBudgetIsInvisible) {
  const db::Design design = benchgen::generate(congested_spec(5));
  const std::string plain =
      run_serialized(design, base_config(), RouteBudget{});

  RouteBudget huge;
  huge.max_relaxations = ~0ull;
  RouterStats stats;
  grid::Solution solution;
  EXPECT_EQ(plain, run_serialized(design, base_config(), huge, &stats, &solution));
  EXPECT_EQ(solution.status, grid::SolutionStatus::kComplete);
  EXPECT_FALSE(stats.budget_hit);
}

TEST(RouteBudget, RelaxationBudgetIsDeterministicAcrossThreadCounts) {
  const db::Design design = benchgen::generate(congested_spec(7));
  RouterStats full_stats;
  (void)run_serialized(design, base_config(), RouteBudget{}, &full_stats);
  ASSERT_GT(full_stats.relaxations, 0u);

  RouteBudget budget;
  budget.max_relaxations = full_stats.relaxations / 2;
  ASSERT_GT(budget.max_relaxations, 0u);

  std::string reference;
  for (const int threads : {1, 2, 8}) {
    RouterStats stats;
    grid::Solution solution;
    const std::string text =
        run_serialized(design, base_config(threads), budget, &stats, &solution);
    EXPECT_TRUE(solution.degraded()) << "threads=" << threads;
    EXPECT_TRUE(stats.budget_hit) << "threads=" << threads;
    if (threads == 1)
      reference = text;
    else
      EXPECT_EQ(reference, text) << "threads=" << threads;
  }
}

TEST(RouteBudget, DegradedRunHasAccurateDispositionsAndConsistentGrid) {
  const db::Design design = benchgen::generate(congested_spec(9));
  RouterStats full_stats;
  (void)run_serialized(design, base_config(), RouteBudget{}, &full_stats);

  RouteBudget budget;
  budget.max_relaxations = std::max<std::uint64_t>(1, full_stats.relaxations / 3);

  grid::RoutingGrid grid(design);
  MrTplRouter router(design, nullptr, base_config());
  const grid::Solution solution = router.run(grid, budget);
  ASSERT_TRUE(solution.degraded());

  for (const auto& route : solution.routes) {
    switch (route.disposition) {
      case grid::NetDisposition::kRouted:
        EXPECT_TRUE(route.routed);
        break;
      case grid::NetDisposition::kSkipped:
        // Skipped nets committed nothing: no paths, not routed.
        EXPECT_FALSE(route.routed);
        EXPECT_TRUE(route.empty());
        break;
      case grid::NetDisposition::kFailed:
      case grid::NetDisposition::kPartial:
        EXPECT_FALSE(route.routed);
        break;
    }
  }

  // The degraded layout is still structurally consistent: every committed
  // vertex claimed by its solution net and vice versa.
  drc::DrcOptions opt;
  opt.check_coloring = false;
  const drc::DrcReport report = drc::verify(grid, design, solution, opt);
  EXPECT_EQ(report.count(drc::ViolationKind::kOwnershipMismatch), 0)
      << report.summary();
  EXPECT_EQ(report.count(drc::ViolationKind::kOverlap), 0) << report.summary();
}

TEST(RouteBudget, PreSetCancelFlagSkipsEverything) {
  const db::Design design = benchgen::generate(congested_spec(11));
  RouteBudget budget;
  budget.cancel = std::make_shared<std::atomic<bool>>(true);

  grid::RoutingGrid grid(design);
  MrTplRouter router(design, nullptr, base_config());
  const grid::Solution solution = router.run(grid, budget);
  EXPECT_TRUE(solution.degraded());
  EXPECT_EQ(solution.num_routed(), 0);
  EXPECT_EQ(solution.num_skipped(), design.num_nets());
}

TEST(RouteBudget, MicroscopicDeadlineDegrades) {
  const db::Design design = benchgen::generate(congested_spec(13));
  RouteBudget budget;
  budget.deadline_s = 1e-9;

  grid::RoutingGrid grid(design);
  MrTplRouter router(design, nullptr, base_config());
  const grid::Solution solution = router.run(grid, budget);
  EXPECT_TRUE(solution.degraded());
  EXPECT_TRUE(router.stats().budget_hit);
}

TEST(RouteBudget, RelaxationBudgetStopsNearTheBound) {
  const db::Design design = benchgen::generate(congested_spec(17));
  RouterStats full_stats;
  (void)run_serialized(design, base_config(), RouteBudget{}, &full_stats);

  RouteBudget budget;
  budget.max_relaxations = full_stats.relaxations / 2;
  RouterStats stats;
  (void)run_serialized(design, base_config(), budget, &stats);
  // Granularity is one net: the net in flight when the ledger crosses the
  // bound still commits, but no *new* net starts after expiry — so the
  // total can only overshoot by that one net's search, and a degraded run
  // never spends as much as the full run did.
  EXPECT_LT(stats.relaxations, full_stats.relaxations);
}

}  // namespace
}  // namespace mrtpl::core
