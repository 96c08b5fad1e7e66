#include "eval/metrics.hpp"

namespace mrtpl::eval {

int count_stitches(const grid::RoutingGrid& grid, const grid::Solution& solution) {
  return mrtpl::grid::count_stitches(grid, solution);  // canonical impl lives in grid
}

double ispd_cost(const Metrics& m) {
  return 0.5 * static_cast<double>(m.wirelength) + 4.0 * static_cast<double>(m.vias) +
         1.0 * static_cast<double>(m.wrong_way) +
         1.0 * static_cast<double>(m.out_of_guide) +
         0.5 * static_cast<double>(m.stitches) + 5000.0 * m.failed_nets;
}

Metrics evaluate(const grid::RoutingGrid& grid, const grid::Solution& solution,
                 const global::GuideSet* guides) {
  Metrics m;
  m.conflicts = static_cast<int>(core::detect_conflicts(grid).size());
  for (const auto& route : solution.routes) {
    // One edge list per route feeds every edge metric; stitches count on
    // every route, dead or not, exactly as grid::count_stitches does.
    const auto edges = route.edges();
    m.stitches += mrtpl::grid::count_route_stitches(grid, edges);
    // Dead nets (zero pins — ECO removals) have nothing to route; their
    // empty entries are success, not failure.
    if (route.net >= 0 && route.net < grid.design().num_nets() &&
        grid.design().net(route.net).degree() == 0)
      continue;
    if (!route.empty() && !route.routed) ++m.failed_nets;
    if (route.empty()) {
      ++m.failed_nets;
      continue;
    }
    for (const auto& [a, b] : edges) {
      const grid::VertexLoc la = grid.loc(a);
      const grid::VertexLoc lb = grid.loc(b);
      if (la.layer != lb.layer) {
        ++m.vias;
        continue;
      }
      ++m.wirelength;
      const bool horizontal_move = la.y == lb.y;
      if (grid.tech().is_horizontal(la.layer) != horizontal_move) ++m.wrong_way;
    }
    if (guides != nullptr && route.net >= 0 &&
        route.net < static_cast<db::NetId>(guides->size())) {
      const auto& guide = (*guides)[static_cast<size_t>(route.net)];
      if (!guide.boxes.empty()) {
        for (const grid::VertexId v : route.vertices()) {
          const grid::VertexLoc l = grid.loc(v);
          if (!guide.covers({l.x, l.y})) ++m.out_of_guide;
        }
      }
    }
  }
  m.cost = ispd_cost(m);
  return m;
}

}  // namespace mrtpl::eval
