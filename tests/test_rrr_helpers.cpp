#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/conflict.hpp"
#include "core/mrtpl_router.hpp"
#include "db/design.hpp"

namespace mrtpl::core {
namespace {

db::Design three_nets() {
  db::Design d("b", db::Tech::make_default(2, 2), {0, 0, 31, 31});
  for (int i = 0; i < 3; ++i) {
    const db::NetId n = d.add_net("n" + std::to_string(i));
    db::Pin p;
    p.layer = 0;
    p.shapes = {{2, 4 * i + 2, 2, 4 * i + 2}};
    d.add_pin(n, p);
    p.shapes = {{12, 4 * i + 2, 12, 4 * i + 2}};
    d.add_pin(n, p);
  }
  d.validate();
  return d;
}

TEST(BlockersOf, FindsNetsInsideWindow) {
  const db::Design d = three_nets();
  grid::RoutingGrid g(d);
  // Net 1's wire crosses net 0's bbox region.
  for (int x = 2; x <= 12; ++x) g.commit(g.vertex(0, x, 4), 1, 0);
  const auto blockers = blockers_of(g, d, 0, 2);
  // Window = net 0's bbox (y=2) inflated by 2 -> rows 0..4: net 1's wire
  // at y=4 is inside; both other nets' pin metal (y=6, y=10) is not.
  ASSERT_EQ(blockers.size(), 1u);
  EXPECT_EQ(blockers[0], 1);
}

TEST(BlockersOf, IgnoresOwnMetalAndFarNets) {
  const db::Design d = three_nets();
  grid::RoutingGrid g(d);
  // Net 0's own wire never blocks itself.
  for (int x = 2; x <= 12; ++x) g.commit(g.vertex(0, x, 2), 0, 0);
  // Net 2 wire far away (y=30, outside net 0's inflated bbox).
  for (int x = 2; x <= 12; ++x) g.commit(g.vertex(0, x, 30), 2, 1);
  const auto blockers = blockers_of(g, d, 0, 2);
  for (const auto b : blockers) {
    EXPECT_NE(b, 0);
    EXPECT_NE(b, 2);
  }
}

TEST(BlockersOf, MarginWidensTheWindow) {
  const db::Design d = three_nets();
  grid::RoutingGrid g(d);
  // Net 2's pins are at y=10; net 0's bbox is y=2. With margin 2 they are
  // outside; with margin 10 they are inside.
  const auto narrow = blockers_of(g, d, 0, 2);
  const auto wide = blockers_of(g, d, 0, 10);
  EXPECT_LT(narrow.size(), wide.size());
  bool has_net2 = false;
  for (const auto b : wide) has_net2 |= (b == 2);
  EXPECT_TRUE(has_net2);
}

TEST(BlockersOf, EachNetReportedOnce) {
  const db::Design d = three_nets();
  grid::RoutingGrid g(d);
  for (int x = 2; x <= 12; ++x) g.commit(g.vertex(0, x, 3), 1, 0);
  for (int x = 2; x <= 12; ++x) g.commit(g.vertex(0, x, 4), 1, 0);
  const auto blockers = blockers_of(g, d, 0, 2);
  int count_net1 = 0;
  for (const auto b : blockers) count_net1 += (b == 1);
  EXPECT_EQ(count_net1, 1);
}

// ---- route_order ---------------------------------------------------------

/// Random design on a small die — so the order key (bbox half-perimeter +
/// 4 · degree) ties often — with some nets removed into dead tombstones.
db::Design random_design(std::mt19937& rng) {
  db::Design d("r", db::Tech::make_default(2, 2), {0, 0, 15, 15});
  std::uniform_int_distribution<int> coord(0, 15), degree(1, 4), nets(1, 40);
  const int n = nets(rng);
  for (int i = 0; i < n; ++i) {
    const db::NetId id = d.add_net("n" + std::to_string(i));
    for (int k = degree(rng); k > 0; --k) {
      db::Pin p;
      p.layer = 0;
      const int x = coord(rng), y = coord(rng);
      p.shapes = {{x, y, x, y}};
      d.add_pin(id, p);
    }
  }
  for (db::NetId id = 0; id < n; ++id)
    if (rng() % 4 == 0) d.remove_net(id);
  return d;
}

TEST(RouteOrder, SubsetIsTheFilterOfTheFullOrder) {
  std::mt19937 rng(20240611);
  int ties = 0, dead = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const db::Design d = random_design(rng);
    // Reference: every live net, stable-sorted by the key alone.
    std::vector<db::NetId> full;
    for (db::NetId id = 0; id < d.num_nets(); ++id)
      if (d.net(id).degree() > 0) full.push_back(id);
    const auto key = [&](db::NetId id) {
      const geom::Rect b = d.net(id).bbox();
      return b.width() + b.height() + 4 * d.net(id).degree();
    };
    std::stable_sort(full.begin(), full.end(),
                     [&](db::NetId a, db::NetId b) { return key(a) < key(b); });
    for (size_t i = 1; i < full.size(); ++i) ties += key(full[i - 1]) == key(full[i]);
    dead += d.num_nets() - static_cast<int>(full.size());

    std::vector<db::NetId> all(static_cast<size_t>(d.num_nets()));
    for (db::NetId id = 0; id < d.num_nets(); ++id) all[static_cast<size_t>(id)] = id;
    ASSERT_EQ(route_order(d, all), full) << "trial " << trial;

    // A shuffled subset with duplicates, dead nets and out-of-range ids.
    std::vector<db::NetId> subset{-1, d.num_nets(), d.num_nets() + 7};
    std::vector<char> in(static_cast<size_t>(d.num_nets()), 0);
    for (db::NetId id = 0; id < d.num_nets(); ++id) {
      if (rng() % 3 != 0) continue;
      in[static_cast<size_t>(id)] = 1;
      subset.push_back(id);
      if (rng() % 2 == 0) subset.push_back(id);
    }
    std::shuffle(subset.begin(), subset.end(), rng);
    std::vector<db::NetId> expected;
    for (const db::NetId id : full)
      if (in[static_cast<size_t>(id)]) expected.push_back(id);
    EXPECT_EQ(route_order(d, subset), expected) << "trial " << trial;
  }
  // The sweep must actually exercise the id tie-break and tombstones.
  EXPECT_GT(ties, 0);
  EXPECT_GT(dead, 0);
}

}  // namespace
}  // namespace mrtpl::core
