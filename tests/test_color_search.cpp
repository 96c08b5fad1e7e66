#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/color_search.hpp"
#include "support/builders.hpp"

namespace mrtpl::core {
namespace {

using test::corridor_design;

TEST(ColorSearch, StraightPreferredPath) {
  const db::Design d = corridor_design();
  grid::RoutingGrid g(d);
  ColorSearch search(g, RouterConfig{});
  search.begin_net(0, nullptr, d.die());
  const grid::VertexId src = g.vertex(0, 1, 8);
  const grid::VertexId dst = g.vertex(0, 14, 8);
  search.add_source(src, ColorState::all());
  search.add_target(dst, 1);
  const grid::VertexId reached = search.search();
  ASSERT_EQ(reached, dst);
  // Path length = 13 preferred moves of wire_cost 1.
  EXPECT_NEAR(search.cost(dst), 13.0, 1e-9);
  // No colored neighbors anywhere: state stays 111 the whole way.
  EXPECT_EQ(search.state(dst).to_string(), "111");
  // prev chain leads back to src.
  grid::VertexId v = dst;
  int steps = 0;
  while (search.prev(v) != grid::kInvalidVertex) {
    v = search.prev(v);
    ++steps;
  }
  EXPECT_EQ(v, src);
  EXPECT_EQ(steps, 13);
}

TEST(ColorSearch, AvoidsBlockedVertices) {
  const db::Design d = corridor_design();
  grid::RoutingGrid g(d);
  // Wall across the straight path, full column except one gap at y=2.
  for (int y = 0; y < 16; ++y)
    if (y != 2)
      for (int l = 0; l < 2; ++l) g.inject_blockage(g.vertex(l, 7, y));
  ColorSearch search(g, RouterConfig{});
  search.begin_net(0, nullptr, d.die());
  search.add_source(g.vertex(0, 1, 8), ColorState::all());
  search.add_target(g.vertex(0, 14, 8), 1);
  const grid::VertexId reached = search.search();
  ASSERT_NE(reached, grid::kInvalidVertex);
  // Detour through the gap: strictly longer than 13.
  EXPECT_GT(search.cost(reached), 13.0);
}

TEST(ColorSearch, UnreachableReturnsInvalid) {
  const db::Design d = corridor_design();
  grid::RoutingGrid g(d);
  for (int y = 0; y < 16; ++y)
    for (int l = 0; l < 2; ++l) g.inject_blockage(g.vertex(l, 7, y));
  ColorSearch search(g, RouterConfig{});
  search.begin_net(0, nullptr, d.die());
  search.add_source(g.vertex(0, 1, 8), ColorState::all());
  search.add_target(g.vertex(0, 14, 8), 1);
  EXPECT_EQ(search.search(), grid::kInvalidVertex);
}

TEST(ColorSearch, OtherNetWireIsHardBlocked) {
  const db::Design d = corridor_design();
  grid::RoutingGrid g(d);
  for (int y = 0; y < 16; ++y)
    for (int l = 0; l < 2; ++l) g.commit(g.vertex(l, 7, y), 1, 0);
  ColorSearch search(g, RouterConfig{});
  search.begin_net(0, nullptr, d.die());
  search.add_source(g.vertex(0, 1, 8), ColorState::all());
  search.add_target(g.vertex(0, 14, 8), 1);
  EXPECT_EQ(search.search(), grid::kInvalidVertex);
}

TEST(ColorSearch, StateExcludesConflictingColor) {
  const db::Design d = corridor_design();
  grid::RoutingGrid g(d);
  // A red wire of another net runs parallel one track away along the
  // entire straight path: red costs gamma per step, so the argmin set at
  // the destination is green|blue = 011.
  for (int x = 0; x <= 15; ++x) g.commit(g.vertex(0, x, 10), 1, 0);
  ColorSearch search(g, RouterConfig{});
  search.begin_net(0, nullptr, d.die());
  search.add_source(g.vertex(0, 1, 8), ColorState::all());
  search.add_target(g.vertex(0, 14, 8), 1);
  const grid::VertexId reached = search.search();
  ASSERT_NE(reached, grid::kInvalidVertex);
  EXPECT_EQ(search.state(reached).to_string(), "011");
}

TEST(ColorSearch, SingleColorModeCollapsesState) {
  const db::Design d = corridor_design();
  grid::RoutingGrid g(d);
  RouterConfig cfg;
  cfg.set_based_states = false;  // ablation A1
  ColorSearch search(g, cfg);
  search.begin_net(0, nullptr, d.die());
  search.add_source(g.vertex(0, 1, 8), ColorState::all());
  search.add_target(g.vertex(0, 14, 8), 1);
  const grid::VertexId reached = search.search();
  ASSERT_NE(reached, grid::kInvalidVertex);
  EXPECT_TRUE(search.state(reached).is_single());
}

TEST(ColorSearch, PlainModeKeepsAllState) {
  const db::Design d = corridor_design();
  grid::RoutingGrid g(d);
  for (int x = 0; x <= 15; ++x) g.commit(g.vertex(0, x, 10), 1, 0);
  RouterConfig cfg;
  cfg.enable_coloring = false;
  ColorSearch search(g, cfg);
  search.begin_net(0, nullptr, d.die());
  search.add_source(g.vertex(0, 1, 8), ColorState::all());
  search.add_target(g.vertex(0, 14, 8), 1);
  const grid::VertexId reached = search.search();
  ASSERT_NE(reached, grid::kInvalidVertex);
  EXPECT_EQ(search.state(reached).to_string(), "111");
  EXPECT_NEAR(search.cost(reached), 13.0, 1e-9);  // no color surcharge
}

TEST(ColorSearch, GuidePenaltySteersPath) {
  const db::Design d = corridor_design();
  grid::RoutingGrid g(d);
  global::NetGuide guide;
  guide.net = 0;
  guide.boxes = {{0, 6, 15, 10}};  // corridor around y=8
  ColorSearch search(g, RouterConfig{});
  search.begin_net(0, &guide, d.die());
  search.add_source(g.vertex(0, 1, 8), ColorState::all());
  search.add_target(g.vertex(0, 14, 8), 1);
  const grid::VertexId reached = search.search();
  ASSERT_NE(reached, grid::kInvalidVertex);
  grid::VertexId v = reached;
  while (v != grid::kInvalidVertex) {
    const auto l = g.loc(v);
    EXPECT_TRUE(guide.covers({l.x, l.y})) << "left the guide";
    v = search.prev(v);
  }
}

TEST(ColorSearch, WindowClampsExpansion) {
  const db::Design d = corridor_design();
  grid::RoutingGrid g(d);
  ColorSearch search(g, RouterConfig{});
  search.begin_net(0, nullptr, {0, 7, 15, 9});  // 3-row window
  search.add_source(g.vertex(0, 1, 8), ColorState::all());
  search.add_target(g.vertex(0, 14, 8), 1);
  ASSERT_NE(search.search(), grid::kInvalidVertex);
  // A vertex outside the window is never labeled.
  EXPECT_FALSE(search.visited(g.vertex(0, 8, 12)));
}

// Labels are stored per window-local slot, so a vertex outside the
// session's window has no slot at all: seeding one must throw (the router's
// guarded compute then marks the net failed) rather than index past the
// arena, and every accessor reads it as unlabeled.
TEST(ColorSearch, OutOfWindowVertexIsRejected) {
  const db::Design d = corridor_design();
  grid::RoutingGrid g(d);
  ColorSearch search(g, RouterConfig{});
  search.begin_net(0, nullptr, {0, 7, 15, 9});  // 3-row window
  const grid::VertexId outside = g.vertex(1, 8, 12);
  EXPECT_THROW(search.add_source(outside, ColorState::all()), std::out_of_range);
  EXPECT_THROW(search.add_target(outside, 1), std::out_of_range);
  for (const grid::VertexId v : {outside, g.vertex(0, 0, 6), g.vertex(1, 15, 10),
                                 g.num_vertices(), grid::kInvalidVertex}) {
    EXPECT_FALSE(search.visited(v)) << v;
    EXPECT_EQ(search.target_pin(v), -1) << v;
    EXPECT_TRUE(std::isinf(search.cost(v))) << v;
    EXPECT_EQ(search.prev(v), grid::kInvalidVertex) << v;
    EXPECT_TRUE(search.state(v).empty()) << v;
  }

  // The rejected calls left the session intact: in-window seeds route.
  search.add_source(g.vertex(0, 1, 8), ColorState::all());
  search.add_target(g.vertex(0, 14, 8), 1);
  const grid::VertexId reached = search.search();
  ASSERT_EQ(reached, g.vertex(0, 14, 8));
  EXPECT_NEAR(search.cost(reached), 13.0, 1e-9);
  EXPECT_FALSE(search.visited(outside));

  // An empty window (disjoint from the grid) maps no vertex at all.
  search.begin_net(0, nullptr, {40, 40, 50, 50});
  EXPECT_FALSE(search.window().valid());
  EXPECT_THROW(search.add_source(g.vertex(0, 1, 8), ColorState::all()),
               std::out_of_range);
  EXPECT_EQ(search.search(), grid::kInvalidVertex);
}

TEST(ColorSearch, HistoryMakesVerticesExpensive) {
  const db::Design d = corridor_design();
  grid::RoutingGrid g(d);
  // Huge history on the straight corridor: the router detours.
  for (int x = 3; x <= 12; ++x) g.add_history(g.vertex(0, x, 8), 100.0);
  ColorSearch search(g, RouterConfig{});
  search.begin_net(0, nullptr, d.die());
  search.add_source(g.vertex(0, 1, 8), ColorState::all());
  search.add_target(g.vertex(0, 14, 8), 1);
  const grid::VertexId reached = search.search();
  ASSERT_NE(reached, grid::kInvalidVertex);
  bool used_corridor_interior = false;
  for (grid::VertexId v = reached; v != grid::kInvalidVertex; v = search.prev(v)) {
    const auto l = g.loc(v);
    if (l.layer == 0 && l.y == 8 && l.x >= 3 && l.x <= 12) used_corridor_interior = true;
  }
  EXPECT_FALSE(used_corridor_interior);
}

TEST(ColorSearch, MakeSourceReseedsTree) {
  const db::Design d = corridor_design();
  grid::RoutingGrid g(d);
  ColorSearch search(g, RouterConfig{});
  search.begin_net(0, nullptr, d.die());
  search.add_source(g.vertex(0, 1, 8), ColorState::all());
  search.add_target(g.vertex(0, 14, 8), 1);
  ASSERT_NE(search.search(), grid::kInvalidVertex);
  // Pin 1 reached: retire its targets (the router always does this).
  search.clear_targets_of_pin(1);
  // Re-seed a mid-path vertex and search for a new target: cost from the
  // new source should be used.
  search.add_source(g.vertex(0, 8, 8), ColorState(0b100));
  search.add_target(g.vertex(0, 8, 14), 2);
  const grid::VertexId reached = search.search();
  ASSERT_NE(reached, grid::kInvalidVertex);
  EXPECT_EQ(search.target_pin(reached), 2);
  EXPECT_LE(search.cost(reached), 6.0 * (1.0 + 2.0) + 1e-9);  // short hop
}

}  // namespace
}  // namespace mrtpl::core
