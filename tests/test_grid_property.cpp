/// \file test_grid_property.cpp
/// Structural invariants of the routing grid, swept over layer/size
/// shapes: vertex<->loc bijection, neighbor inverses, window symmetry of
/// the Dcolor neighborhood, commit/release round trips, and the
/// incrementally maintained congestion field against the window scan it
/// stands in for.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "benchgen/generator.hpp"
#include "grid/grid_view.hpp"
#include "grid/routing_grid.hpp"
#include "support/builders.hpp"
#include "util/rng.hpp"

namespace mrtpl::grid {
namespace {

/// (layers, width, height) shapes for the sweep.
struct Shape {
  int layers, w, h;
};

class GridShapes : public ::testing::TestWithParam<Shape> {
 protected:
  static db::Design make_design(const Shape& s) {
    return test::single_pin_design(s.layers, s.w, s.h);
  }
};

TEST_P(GridShapes, VertexLocBijection) {
  const db::Design d = make_design(GetParam());
  const RoutingGrid g(d);
  std::set<VertexId> seen;
  for (int l = 0; l < g.num_layers(); ++l)
    for (int y = 0; y < g.size_y(); ++y)
      for (int x = 0; x < g.size_x(); ++x) {
        const VertexId v = g.vertex(l, x, y);
        ASSERT_LT(v, g.num_vertices());
        EXPECT_TRUE(seen.insert(v).second) << "duplicate id " << v;
        const VertexLoc loc = g.loc(v);
        EXPECT_EQ(loc.layer, l);
        EXPECT_EQ(loc.x, x);
        EXPECT_EQ(loc.y, y);
      }
  EXPECT_EQ(seen.size(), g.num_vertices());
}

TEST_P(GridShapes, NeighborsAreInvolutions) {
  const db::Design d = make_design(GetParam());
  const RoutingGrid g(d);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int di = 0; di < kNumDirs; ++di) {
      const auto dir = static_cast<Dir>(di);
      const VertexId u = g.neighbor(v, dir);
      if (u == kInvalidVertex) continue;
      EXPECT_EQ(g.neighbor(u, opposite(dir)), v)
          << "dir " << di << " at vertex " << v;
    }
  }
}

TEST_P(GridShapes, NeighborsDifferByOneStep) {
  const db::Design d = make_design(GetParam());
  const RoutingGrid g(d);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexLoc l = g.loc(v);
    for (int di = 0; di < kNumDirs; ++di) {
      const VertexId u = g.neighbor(v, static_cast<Dir>(di));
      if (u == kInvalidVertex) continue;
      const VertexLoc lu = g.loc(u);
      const int dl = std::abs(lu.layer - l.layer);
      const int dx = std::abs(lu.x - l.x);
      const int dy = std::abs(lu.y - l.y);
      EXPECT_EQ(dl + dx + dy, 1) << "vertex " << v << " dir " << di;
      EXPECT_EQ(is_via(static_cast<Dir>(di)), dl == 1);
    }
  }
}

TEST_P(GridShapes, BoundaryVerticesLackOutwardNeighbors) {
  const db::Design d = make_design(GetParam());
  const RoutingGrid g(d);
  // Corners of the bottom layer.
  EXPECT_EQ(g.neighbor(g.vertex(0, 0, 0), Dir::West), kInvalidVertex);
  EXPECT_EQ(g.neighbor(g.vertex(0, 0, 0), Dir::South), kInvalidVertex);
  EXPECT_EQ(g.neighbor(g.vertex(0, 0, 0), Dir::Down), kInvalidVertex);
  const VertexId top =
      g.vertex(g.num_layers() - 1, g.size_x() - 1, g.size_y() - 1);
  EXPECT_EQ(g.neighbor(top, Dir::East), kInvalidVertex);
  EXPECT_EQ(g.neighbor(top, Dir::North), kInvalidVertex);
  EXPECT_EQ(g.neighbor(top, Dir::Up), kInvalidVertex);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GridShapes,
                         ::testing::Values(Shape{2, 8, 8}, Shape{2, 8, 13},
                                           Shape{3, 13, 8}, Shape{4, 16, 16},
                                           Shape{5, 9, 21}, Shape{6, 12, 12}));

TEST(GridWindow, ColoredNeighborhoodIsSymmetric) {
  // u in window(v) <=> v in window(u), for committed vertices of different
  // nets — the conflict relation must be symmetric or counting breaks.
  const db::Design d = benchgen::generate(benchgen::tiny_case());
  RoutingGrid g(d);
  // Commit a scatter of fake metal on layer 0 for two nets.
  std::vector<VertexId> reds, greens;
  for (int i = 0; i < 10; ++i) {
    const VertexId v = g.vertex(0, 2 * i % g.size_x(), (3 * i) % g.size_y());
    if (g.owner(v) != db::kNoNet || g.blocked(v)) continue;
    g.commit(v, i % 2, 0);
    (i % 2 == 0 ? reds : greens).push_back(v);
  }
  for (const VertexId v : reds) {
    std::set<VertexId> from_v;
    g.for_each_colored_neighbor(v, 0, [&](VertexId u, db::NetId, Mask) {
      from_v.insert(u);
    });
    for (const VertexId u : from_v) {
      std::set<VertexId> from_u;
      g.for_each_colored_neighbor(u, 1, [&](VertexId w, db::NetId, Mask) {
        from_u.insert(w);
      });
      EXPECT_TRUE(from_u.contains(v)) << "asymmetric window " << v << "/" << u;
    }
  }
}

TEST(GridWindow, SameNetInvisible) {
  const db::Design d = benchgen::generate(benchgen::tiny_case());
  RoutingGrid g(d);
  const VertexId a = g.vertex(0, 5, 5);
  const VertexId b = g.vertex(0, 5, 6);
  g.commit(a, 0, 0);
  g.commit(b, 0, 0);
  int seen = 0;
  g.for_each_colored_neighbor(a, 0, [&](VertexId, db::NetId, Mask) { ++seen; });
  EXPECT_EQ(seen, 0) << "own metal must not self-conflict";
}

TEST(GridWindow, UncoloredMetalInvisible) {
  const db::Design d = benchgen::generate(benchgen::tiny_case());
  RoutingGrid g(d);
  const VertexId a = g.vertex(0, 5, 5);
  const VertexId b = g.vertex(0, 5, 6);
  g.commit(a, 0, 0);
  g.commit(b, 1, kNoMask);  // committed but uncolored
  int seen = 0;
  g.for_each_colored_neighbor(a, 0, [&](VertexId, db::NetId, Mask) { ++seen; });
  EXPECT_EQ(seen, 0);
}

TEST(GridCommit, ReleaseRestoresPinOwnership) {
  const db::Design d = benchgen::generate(benchgen::tiny_case());
  RoutingGrid g(d);
  // Find a pin vertex; commit it to its net with a mask, then release.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!g.is_pin_vertex(v)) continue;
    const db::NetId owner = g.owner(v);
    ASSERT_NE(owner, db::kNoNet);
    g.commit(v, owner, 1);
    EXPECT_EQ(g.mask(v), 1);
    g.release(v);
    EXPECT_EQ(g.owner(v), owner) << "pin metal must survive rip-up";
    EXPECT_EQ(g.mask(v), kNoMask);
    return;
  }
  FAIL() << "no pin vertex found";
}

TEST(GridHistory, AccumulatesAndClears) {
  const db::Design d = benchgen::generate(benchgen::tiny_case());
  RoutingGrid g(d);
  const VertexId v = g.vertex(1, 3, 3);
  EXPECT_DOUBLE_EQ(g.history(v), 0.0);
  g.add_history(v, 1.5);
  g.add_history(v, 2.0);
  EXPECT_NEAR(g.history(v), 3.5, 1e-6);
  g.clear_history();
  EXPECT_DOUBLE_EQ(g.history(v), 0.0);
}

/// At every TPL vertex of `g` whose Dcolor window (clipped to the die)
/// lies inside `exact`, the congestion field must equal the per-mask
/// count of a window scan that excludes no net. A view's field is exact
/// only there: its edge vertices keep the base's counts of metal outside
/// the view, which no interior-owned search ever reads (grid_view.hpp).
void expect_field_matches_scan(const RoutingGrid& g, const geom::Rect& die,
                               const geom::Rect& exact, const std::string& where) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexLoc l = g.loc(v);
    if (!g.tech().is_tpl_layer(l.layer)) continue;
    if (!exact.contains(geom::Rect{l.x, l.y, l.x, l.y}
                            .inflated(g.dcolor())
                            .intersected(die)))
      continue;
    int scan[kNumMasks] = {};
    g.for_each_colored_neighbor(v, db::kNoNet,
                                [&scan](VertexId, db::NetId, Mask m) { ++scan[m]; });
    const std::uint16_t* field = g.colored_neighbor_counts(v);
    for (Mask m = 0; m < kNumMasks; ++m) {
      if (field[m] != scan[m]) {
        ADD_FAILURE() << where << ": vertex (" << l.layer << "," << l.x << ","
                      << l.y << ") mask " << int{m} << " field " << field[m]
                      << " scan " << scan[m];
        return;
      }
    }
  }
}

/// A random walk of commits (colored and uncolored), recolors and
/// releases over `g`, with one rerasterize of a random region (all
/// layers) three quarters of the way. The field is checked against the
/// scan after every step.
void walk_and_check(RoutingGrid& g, const geom::Rect& die, const geom::Rect& exact,
                    util::Rng& rng, const std::string& label) {
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  const auto num_nets = static_cast<std::uint32_t>(g.design().num_nets());
  const auto random_mask = [&rng] {
    return rng.next_bool(0.2) ? kNoMask : static_cast<Mask>(rng.next_below(3));
  };
  constexpr int kSteps = 200;
  for (int step = 0; step < kSteps; ++step) {
    const std::string where = label + " step " + std::to_string(step);
    if (step == 3 * kSteps / 4) {
      const geom::Rect b = g.bounds();
      const int x = rng.next_int(b.lo.x, b.hi.x);
      const int y = rng.next_int(b.lo.y, b.hi.y);
      for (int layer = 0; layer < g.num_layers(); ++layer)
        g.rerasterize(layer, {x, y, x + 8, y + 8});
    } else {
      const auto v = static_cast<VertexId>(rng.next_below(n));
      if (g.blocked(v)) continue;
      if (g.owner(v) == db::kNoNet)
        g.commit(v, static_cast<db::NetId>(rng.next_below(num_nets)), random_mask());
      else if (rng.next_bool(0.4))
        g.release(v);
      else
        g.set_mask(v, random_mask());
    }
    expect_field_matches_scan(g, die, exact, where);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(GridProperty, CongestionFieldMatchesWindowScan) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const db::Design d = benchgen::generate(test::sized_case(24, 20, seed));
    RoutingGrid base(d);
    const geom::Rect die = base.bounds();
    util::Rng rng(seed * 104729 + 7);
    walk_and_check(base, die, die, rng, "base seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;
    // A view starts from the walked base's state, then walks on its own.
    GridView view(base, {5, 4, 18, 16});
    walk_and_check(view, die, view.bounds(), rng,
                   "view seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace mrtpl::grid
