/// \file test_sharded.cpp
/// The tile-sharded executor (MrTplRouter's tile walk):
/// TilePlan partition/ownership invariants, and the headline contract —
/// the sharded solution is byte-identical to the unsharded serial run for
/// every (tiles, threads) configuration.

#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "global/global_router.hpp"
#include "io/solution_io.hpp"
#include "shard/tile_plan.hpp"
#include "support/builders.hpp"

namespace mrtpl {
namespace {

TEST(TilePlan, PartitionCoversDieDisjointly) {
  const geom::Rect die{0, 0, 99, 79};
  for (const int tiles : {1, 4, 9, 16, 25}) {
    const shard::TilePlan plan(die, tiles);
    std::int64_t area = 0;
    for (int t = 0; t < plan.num_tiles(); ++t) {
      const geom::Rect& r = plan.tile(t);
      ASSERT_TRUE(r.valid());
      EXPECT_TRUE(die.contains(r));
      area += r.area();
      for (int u = t + 1; u < plan.num_tiles(); ++u)
        EXPECT_FALSE(r.overlaps(plan.tile(u))) << "tiles " << t << "," << u;
    }
    EXPECT_EQ(area, die.area()) << "request " << tiles;
  }
}

TEST(TilePlan, GridDimIsFloorSqrtOfRequest) {
  const geom::Rect die{0, 0, 199, 199};
  EXPECT_EQ(shard::TilePlan(die, 1).grid_dim(), 1);
  EXPECT_EQ(shard::TilePlan(die, 3).grid_dim(), 1);
  EXPECT_EQ(shard::TilePlan(die, 4).grid_dim(), 2);
  EXPECT_EQ(shard::TilePlan(die, 8).grid_dim(), 2);
  EXPECT_EQ(shard::TilePlan(die, 16).grid_dim(), 4);
  EXPECT_EQ(shard::TilePlan(die, 0).grid_dim(), 1);   // degenerate request
  EXPECT_EQ(shard::TilePlan(die, -5).grid_dim(), 1);
}

TEST(TilePlan, ClampsToTinyDies) {
  // A 2-track die cannot host a 4x4 grid; no tile may be empty.
  const shard::TilePlan plan({0, 0, 1, 9}, 16);
  EXPECT_EQ(plan.grid_dim(), 2);
  for (int t = 0; t < plan.num_tiles(); ++t)
    EXPECT_TRUE(plan.tile(t).valid());
}

TEST(TilePlan, OwnershipRule) {
  const geom::Rect die{0, 0, 99, 99};
  const shard::TilePlan plan(die, 4);  // 2x2, split at x=50 / y=50
  // Fully inside tile 0 even after halo inflation.
  EXPECT_EQ(plan.owner_of({10, 10, 20, 20}, 2), 0);
  // Inflation pushes the window across the split: boundary.
  EXPECT_EQ(plan.owner_of({10, 10, 48, 20}, 2), shard::TilePlan::kBoundary);
  // Straddling the split outright: boundary.
  EXPECT_EQ(plan.owner_of({40, 40, 60, 60}, 0), shard::TilePlan::kBoundary);
  // Other quadrants resolve to their tiles (row-major order).
  EXPECT_EQ(plan.owner_of({60, 10, 70, 20}, 2), 1);
  EXPECT_EQ(plan.owner_of({10, 60, 20, 70}, 2), 2);
  EXPECT_EQ(plan.owner_of({60, 60, 70, 70}, 2), 3);
  // Windows poking past the die clip first; a die-hugging corner window
  // stays interior.
  EXPECT_EQ(plan.owner_of({-5, -5, 10, 10}, 2), 0);
  // Ownership ignores the halo where the die already clips it.
  EXPECT_EQ(plan.owner_of({0, 0, 49, 49}, 0), 0);
  EXPECT_EQ(plan.owner_of({0, 0, 49, 49}, 1), shard::TilePlan::kBoundary);
}

/// The headline byte-identity contract, on a die large enough that the
/// 4x4 plan actually classifies interior nets (margin 6 + halo windows
/// need room inside a tile).
class ShardSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardSweep, EveryTileThreadConfigMatchesSerialReference) {
  const db::Design design = benchgen::generate(test::sized_case(96, 110, GetParam()));
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();
  core::RouterStats stats;
  auto run_with = [&](int tiles, int threads) {
    grid::RoutingGrid grid(design);
    core::RouterConfig cfg;
    cfg.shard_tiles = tiles;
    cfg.rrr_threads = threads;
    core::MrTplRouter router(design, &guides, cfg);
    const grid::Solution sol = router.run(grid);
    stats = router.stats();
    return io::solution_to_string(grid, sol);
  };
  const std::string reference = run_with(1, 1);
  for (const int tiles : {4, 16}) {
    for (const int threads : {2, 8}) {
      EXPECT_EQ(run_with(tiles, threads), reference)
          << "tiles " << tiles << " threads " << threads << " seed "
          << GetParam();
      // The walk must actually keep speculations, or the equality above
      // would only compare serial redos with the serial run.
      EXPECT_GT(stats.speculated, 0) << "tiles " << tiles << " threads " << threads;
      EXPECT_GE(stats.speculated, stats.respeculated);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardSweep, ::testing::Values(11, 21));

}  // namespace
}  // namespace mrtpl
