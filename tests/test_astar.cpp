/// \file test_astar.cpp
/// A* mode must preserve solution quality (the heuristic is admissible,
/// so path costs are optimal either way) while doing no more relaxation
/// work than Dijkstra. Quality equality is checked at the metrics level;
/// exact path identity is not required (equal-cost ties may break
/// differently).

#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "core/color_search.hpp"
#include "core/mrtpl_router.hpp"
#include "drc/checker.hpp"
#include "eval/metrics.hpp"
#include "global/global_router.hpp"
#include "support/builders.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mrtpl::core {
namespace {

struct FlowMetrics {
  eval::Metrics metrics;
  std::uint64_t relaxations = 0;
};

FlowMetrics run_flow(const db::Design& design, const global::GuideSet& guides,
                     bool astar) {
  grid::RoutingGrid grid(design);
  RouterConfig cfg;
  cfg.use_astar = astar;
  MrTplRouter router(design, &guides, cfg);
  const grid::Solution sol = router.run(grid);
  // Whatever the search mode, the result must verify.
  const drc::DrcReport report = drc::verify(grid, design, sol);
  EXPECT_TRUE(report.clean()) << report.summary();
  return {eval::evaluate(grid, sol, &guides), router.stats().relaxations};
}

class AstarEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AstarEquivalence, QualityPreservedWorkReduced) {
  const db::Design design =
      benchgen::generate(test::sized_case(48, 70, GetParam()));
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();

  const FlowMetrics dijkstra = run_flow(design, guides, false);
  const FlowMetrics astar = run_flow(design, guides, true);

  // Same weighted quality band (ties can nudge individual counts by a
  // hair, never systematically).
  EXPECT_NEAR(astar.metrics.cost, dijkstra.metrics.cost,
              0.03 * dijkstra.metrics.cost + 10.0)
      << "seed " << GetParam();
  EXPECT_LE(astar.metrics.conflicts, dijkstra.metrics.conflicts + 2);
  EXPECT_EQ(astar.metrics.failed_nets, dijkstra.metrics.failed_nets);

  // The point of the heuristic: strictly less frontier work.
  EXPECT_LT(astar.relaxations, dijkstra.relaxations) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AstarEquivalence,
                         ::testing::Values(5, 17, 23, 61, 97));

TEST(Astar, FourPinNetSameCostAsDijkstra) {
  // One net alone on an empty grid: both modes must find a tree of equal
  // total cost (the optimum for each pin round).
  db::Design d("f", db::Tech::make_default(2, 2), {0, 0, 29, 29});
  const db::NetId n = d.add_net("n");
  db::Pin p;
  p.layer = 0;
  for (const auto& [x, y] :
       {std::pair{2, 2}, {26, 3}, {3, 25}, {24, 26}}) {
    p.shapes = {{x, y, x, y}};
    d.add_pin(n, p);
  }
  d.validate();

  auto wirelength_of = [&](bool astar) {
    grid::RoutingGrid grid(d);
    RouterConfig cfg;
    cfg.use_astar = astar;
    MrTplRouter router(d, nullptr, cfg);
    const grid::Solution sol = router.run(grid);
    return eval::evaluate(grid, sol, nullptr).wirelength;
  };
  EXPECT_EQ(wirelength_of(true), wirelength_of(false));
}

/// Search-level oracle: on small random *colored* grids — foreign nets
/// committed with masks on the TPL layers, history, blockages and a
/// guide — one two-terminal search must cost exactly the same under A*
/// and Dijkstra from identical grid state. The heuristic only reorders
/// the frontier; it must never change what the search finds.
TEST(Astar, TwoTerminalSearchCostMatchesDijkstraOnColoredGrids) {
  constexpr int kSize = 16;
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(seed * 104729);
    db::Design d("colored", db::Tech::make_default(3, 2), {0, 0, kSize - 1, kSize - 1});
    db::Pin p;
    p.layer = 0;
    const db::NetId net = d.add_net("n");
    for (int pin = 0; pin < 2; ++pin) {
      const int x = rng.next_int(0, kSize - 1), y = rng.next_int(0, kSize - 1);
      p.shapes = {{x, y, x, y}};
      d.add_pin(net, p);
    }
    constexpr int kForeign = 4;
    for (int f = 0; f < kForeign; ++f) d.add_net(util::format("f%d", f));
    d.validate();

    grid::RoutingGrid g(d);
    for (int i = 0; i < 260; ++i) {
      const grid::VertexId v = g.vertex(rng.next_int(0, 2), rng.next_int(0, kSize - 1),
                                        rng.next_int(0, kSize - 1));
      if (g.owner(v) != db::kNoNet || g.blocked(v)) continue;
      const double roll = rng.next_double();
      if (roll < 0.45) {
        const grid::Mask m = static_cast<grid::Mask>(rng.next_below(grid::kNumMasks));
        g.commit(v, static_cast<db::NetId>(1 + rng.next_below(kForeign)), m);
      } else if (roll < 0.85) {
        g.add_history(v, 0.5 * rng.next_int(1, 8));
      } else {
        g.inject_blockage(v);
      }
    }
    global::NetGuide guide;
    guide.net = net;
    for (int b = 0; b < 2; ++b) {
      const int x0 = rng.next_int(0, kSize - 1), y0 = rng.next_int(0, kSize - 1);
      guide.boxes.push_back({x0, y0, std::min(kSize - 1, x0 + rng.next_int(2, 8)),
                             std::min(kSize - 1, y0 + rng.next_int(2, 8))});
    }

    auto search_cost = [&](bool astar) {
      RouterConfig cfg;
      cfg.use_astar = astar;
      ColorSearch search(g, cfg);
      search.begin_net(net, &guide, d.die());
      const auto universe = ColorState::universe(g.tech().rules().num_masks);
      for (const grid::VertexId v : g.pin_vertices(d.net(net).pins[0]))
        search.add_source(v, universe);
      for (const grid::VertexId v : g.pin_vertices(d.net(net).pins[1]))
        search.add_target(v, 1);
      const grid::VertexId dst = search.search();
      return dst == grid::kInvalidVertex ? -1.0 : search.cost(dst);
    };
    const double dijkstra = search_cost(false);
    EXPECT_NEAR(search_cost(true), dijkstra, 1e-9) << "seed " << seed;
    if (dijkstra > 0.0) ++compared;
  }
  // Most instances must actually route, or the oracle compares nothing.
  EXPECT_GT(compared, 200);
}

}  // namespace
}  // namespace mrtpl::core
