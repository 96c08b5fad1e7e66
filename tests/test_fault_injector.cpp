/// \file test_fault_injector.cpp
/// Fault-injection harness (util/fault_injector.hpp): spec parsing,
/// counter/keyed firing semantics, and — the point of the subsystem —
/// that every fault site recovers: an injected failure never crashes the
/// flow, never corrupts the layout, and (for router sites) the RRR loop
/// retries its way back to the fault-free result.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "drc/checker.hpp"
#include "io/atomic_file.hpp"
#include "io/design_io.hpp"
#include "io/parse_error.hpp"
#include "io/solution_io.hpp"
#include "util/fault_injector.hpp"

namespace mrtpl {
namespace {

using util::FaultInjector;
using util::FaultSite;

/// Every test leaves the process-wide injector disarmed.
class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().disarm(); }
};

benchgen::CaseSpec small_spec(std::uint64_t seed) {
  benchgen::CaseSpec spec = benchgen::tiny_case();
  spec.name = "fault_case";
  spec.seed = seed;
  return spec;
}

/// Threaded runs use a 2x2 tiling: the tile walk is the only parallel
/// executor, and its reconciliation walk hosts the kSpecInvalidate site.
grid::Solution route(const db::Design& design, int threads, int rrr,
                     grid::RoutingGrid& grid, core::RouterStats* stats = nullptr) {
  core::RouterConfig cfg;
  cfg.rrr_threads = threads;
  cfg.shard_tiles = threads > 1 ? 4 : 1;
  cfg.max_rrr_iterations = rrr;
  core::MrTplRouter router(design, nullptr, cfg);
  grid::Solution solution = router.run(grid);
  if (stats != nullptr) *stats = router.stats();
  return solution;
}

TEST_F(FaultInjectorTest, SpecParsing) {
  auto& inj = FaultInjector::instance();
  std::string error;

  EXPECT_TRUE(inj.configure("", &error));
  EXPECT_FALSE(FaultInjector::enabled());

  EXPECT_TRUE(inj.configure("arena_grow:5;seed=9", &error)) << error;
  EXPECT_TRUE(FaultInjector::enabled());

  EXPECT_TRUE(inj.configure("search_fail:3:1;io_truncate:2", &error)) << error;
  EXPECT_TRUE(FaultInjector::enabled());

  // The persistence sites parse too.
  EXPECT_TRUE(inj.configure(
      "io_write_abort:1;journal_torn_tail:2;journal_bitflip:3;snapshot_stale:4",
      &error))
      << error;
  EXPECT_TRUE(FaultInjector::enabled());

  // Malformed specs disarm and report.
  EXPECT_FALSE(inj.configure("no_such_site:1", &error));
  EXPECT_FALSE(FaultInjector::enabled());
  EXPECT_NE(error.find("unknown fault site"), std::string::npos);

  EXPECT_FALSE(inj.configure("arena_grow:x", &error));
  EXPECT_FALSE(inj.configure("arena_grow:0", &error));
  EXPECT_FALSE(inj.configure("seed=abc", &error));
  EXPECT_FALSE(inj.configure("arena_grow:1:2:3", &error));
  EXPECT_FALSE(FaultInjector::enabled());
}

TEST_F(FaultInjectorTest, CounterSiteFiresPeriodically) {
  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.configure("spec_invalidate:3"));
  // seed 0: raw index, so indices 0, 3, 6, ... fire.
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i)
    fired.push_back(inj.should_fail(FaultSite::kSpecInvalidate));
  EXPECT_EQ(fired, (std::vector<bool>{true, false, false, true, false, false,
                                      true, false, false}));
  EXPECT_EQ(inj.fired(FaultSite::kSpecInvalidate), 3u);
  EXPECT_EQ(inj.hits(FaultSite::kSpecInvalidate), 9u);
}

TEST_F(FaultInjectorTest, KeyedSiteFiresOncePerKey) {
  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.configure("search_fail:2"));
  // Keys 0 and 2 match (key % 2 == 0); each fires exactly once.
  EXPECT_TRUE(inj.should_fail(FaultSite::kSearchFail, 0));
  EXPECT_FALSE(inj.should_fail(FaultSite::kSearchFail, 0));  // retry succeeds
  EXPECT_FALSE(inj.should_fail(FaultSite::kSearchFail, 1));
  EXPECT_TRUE(inj.should_fail(FaultSite::kSearchFail, 2));
  EXPECT_FALSE(inj.should_fail(FaultSite::kSearchFail, 2));
  EXPECT_EQ(inj.fired(FaultSite::kSearchFail), 2u);

  // reset_counters forgets the keyed memory: key 0 fires again.
  inj.reset_counters();
  EXPECT_TRUE(inj.should_fail(FaultSite::kSearchFail, 0));
}

TEST_F(FaultInjectorTest, EnvSpecArmsViaConfigureFromEnv) {
  auto& inj = FaultInjector::instance();
  ASSERT_EQ(setenv("MRTPL_FAULT_SPEC", "io_bitflip:4;seed=2", 1), 0);
  std::string error;
  EXPECT_TRUE(inj.configure_from_env(&error)) << error;
  EXPECT_TRUE(FaultInjector::enabled());
  ASSERT_EQ(unsetenv("MRTPL_FAULT_SPEC"), 0);
  EXPECT_TRUE(inj.configure_from_env(&error));
  EXPECT_FALSE(FaultInjector::enabled());
}

TEST_F(FaultInjectorTest, SearchFailRecoversThroughRrrRetry) {
  const db::Design design = benchgen::generate(small_spec(21));

  // Baseline without faults.
  grid::RoutingGrid grid_ref(design);
  const grid::Solution ref = route(design, 1, 4, grid_ref);

  // Every net's first attempt fails; the RRR loop rips and retries, and
  // the keyed once-per-net rule lets every retry succeed. The recovered
  // layout need not be byte-identical to the fault-free one (failing a
  // whole iteration changes the congestion history), but it must route
  // just as many nets and stay structurally clean.
  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.configure("search_fail:1"));
  grid::RoutingGrid grid(design);
  core::RouterStats stats;
  const grid::Solution solution = route(design, 1, 4, grid, &stats);
  const std::uint64_t fired = inj.fired(FaultSite::kSearchFail);
  inj.disarm();

  EXPECT_GT(fired, 0u) << "site never triggered";
  EXPECT_EQ(solution.num_routed(), ref.num_routed());
  drc::DrcOptions opt;
  opt.check_coloring = false;
  const drc::DrcReport report = drc::verify(grid, design, solution, opt);
  EXPECT_EQ(report.count(drc::ViolationKind::kOwnershipMismatch), 0)
      << report.summary();
  EXPECT_EQ(report.count(drc::ViolationKind::kOverlap), 0) << report.summary();
}

TEST_F(FaultInjectorTest, ArenaGrowFailureIsContained) {
  const db::Design design = benchgen::generate(small_spec(22));
  auto& inj = FaultInjector::instance();
  // Rare-period allocation failures: some nets' searches throw bad_alloc
  // mid-run; the guarded executor marks them failed and retries.
  ASSERT_TRUE(inj.configure("arena_grow:5;seed=3"));

  grid::RoutingGrid grid(design);
  grid::Solution solution;
  ASSERT_NO_THROW(solution = route(design, 1, 6, grid));
  EXPECT_GT(inj.fired(FaultSite::kArenaGrow), 0u) << "site never triggered";
  inj.disarm();

  drc::DrcOptions opt;
  opt.check_coloring = false;
  const drc::DrcReport report = drc::verify(grid, design, solution, opt);
  EXPECT_EQ(report.count(drc::ViolationKind::kOwnershipMismatch), 0)
      << report.summary();
  EXPECT_EQ(report.count(drc::ViolationKind::kOverlap), 0) << report.summary();
}

TEST_F(FaultInjectorTest, ForcedSpeculationInvalidationKeepsOutputIdentical) {
  const db::Design design = benchgen::generate(small_spec(23));

  grid::RoutingGrid grid_ref(design);
  const grid::Solution ref = route(design, 1, 3, grid_ref);
  const std::string ref_text = io::solution_to_string(grid_ref, ref);

  // Force EVERY speculation stale: the tile walk redoes each net
  // serially, which must reproduce the serial result byte for byte.
  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.configure("spec_invalidate:1"));
  grid::RoutingGrid grid(design);
  core::RouterStats stats;
  const grid::Solution solution = route(design, 2, 3, grid, &stats);
  EXPECT_GT(inj.fired(FaultSite::kSpecInvalidate), 0u) << "site never triggered";
  EXPECT_GT(stats.respeculated, 0);
  EXPECT_EQ(io::solution_to_string(grid, solution), ref_text);
  inj.disarm();
}

TEST_F(FaultInjectorTest, IoTruncationSurfacesAsParseError) {
  const db::Design design = benchgen::generate(small_spec(24));
  const std::string path = ::testing::TempDir() + "fault_io_truncate.design";
  io::save_design(path, design);

  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.configure("io_truncate:1;seed=5"));
  // The truncated text must be rejected with ParseError — any other
  // exception type (or a crash) is a robustness bug. A lucky truncation
  // landing on a valid prefix boundary would still parse; the seed above
  // is pinned to one that does not.
  EXPECT_THROW((void)io::load_design(path), io::ParseError);
  EXPECT_GT(inj.fired(FaultSite::kIoTruncate), 0u);
  inj.disarm();

  // Disarmed, the same file loads fine.
  EXPECT_NO_THROW((void)io::load_design(path));
  std::remove(path.c_str());
}

TEST_F(FaultInjectorTest, IoBitFlipEitherParsesOrThrowsParseError) {
  const db::Design design = benchgen::generate(small_spec(25));
  const std::string path = ::testing::TempDir() + "fault_io_bitflip.design";
  io::save_design(path, design);

  auto& inj = FaultInjector::instance();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ASSERT_TRUE(inj.configure("io_bitflip:1;seed=" + std::to_string(seed)));
    try {
      (void)io::load_design(path);  // a benign flip may still parse
    } catch (const io::ParseError&) {
      // expected rejection path
    }
    EXPECT_GT(inj.fired(FaultSite::kIoBitFlip), 0u) << "seed " << seed;
  }
  inj.disarm();
  std::remove(path.c_str());
}

TEST_F(FaultInjectorTest, WriteAbortLeavesDestinationUntouched) {
  const std::string path = ::testing::TempDir() + "fault_write_abort.txt";
  io::atomic_write_file(path, "old content\n");

  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.configure("io_write_abort:1"));
  // The abort lands mid-write, before the rename: the old file must
  // survive byte for byte — never a truncated hybrid.
  EXPECT_THROW(io::atomic_write_file(path, "new content\n"),
               std::runtime_error);
  EXPECT_GT(inj.fired(FaultSite::kIoWriteAbort), 0u);
  inj.disarm();

  std::string bytes;
  ASSERT_TRUE(io::read_file(path, &bytes));
  EXPECT_EQ(bytes, "old content\n");

  // Disarmed, the replacement goes through.
  io::atomic_write_file(path, "new content\n");
  ASSERT_TRUE(io::read_file(path, &bytes));
  EXPECT_EQ(bytes, "new content\n");
  std::remove(path.c_str());
}

TEST_F(FaultInjectorTest, JournalCorruptionSitesMangleTheImage) {
  const std::string intact = "MRTPLJ01" + std::string(64, 'r');
  auto& inj = FaultInjector::instance();

  ASSERT_TRUE(inj.configure("journal_torn_tail:1"));
  std::string torn = intact;
  FaultInjector::maybe_corrupt_journal(torn, 8);
  EXPECT_LT(torn.size(), intact.size());
  EXPECT_GE(torn.size(), 8u) << "magic header must survive";
  EXPECT_EQ(torn.compare(0, 8, "MRTPLJ01"), 0);
  EXPECT_EQ(inj.fired(FaultSite::kJournalTornTail), 1u);

  ASSERT_TRUE(inj.configure("journal_bitflip:1;seed=7"));
  std::string flipped = intact;
  FaultInjector::maybe_corrupt_journal(flipped, 8);
  EXPECT_EQ(flipped.size(), intact.size());
  EXPECT_EQ(flipped.compare(0, 8, "MRTPLJ01"), 0) << "flip never hits the magic";
  int diffs = 0;
  for (size_t i = 8; i < intact.size(); ++i)
    if (flipped[i] != intact[i]) ++diffs;
  EXPECT_EQ(diffs, 1);
  EXPECT_EQ(inj.fired(FaultSite::kJournalBitFlip), 1u);
  inj.disarm();

  // Disarmed: a no-op.
  std::string untouched = intact;
  FaultInjector::maybe_corrupt_journal(untouched, 8);
  EXPECT_EQ(untouched, intact);
}

}  // namespace
}  // namespace mrtpl
