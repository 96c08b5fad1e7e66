#include "layout/recolor.hpp"

#include <algorithm>
#include <numeric>

namespace mrtpl::layout {

namespace {

/// Number of (vertex, other-vertex) same-mask cross-net pairs the segment
/// would contribute if assigned mask `m`. Reads the *current* committed
/// state, so greedy updates stay consistent as moves are applied.
int conflict_pairs(const grid::RoutingGrid& grid, const Segment& seg,
                   grid::Mask m) {
  int pairs = 0;
  for (const grid::VertexId v : seg.vertices)
    grid.for_each_colored_neighbor(
        v, seg.net, [&](grid::VertexId, db::NetId, grid::Mask other) {
          if (other == m) ++pairs;
        });
  return pairs;
}

/// Stitch edges the segment would have with its same-net touching
/// segments if assigned mask `m` (vias are free).
int stitch_edges(const grid::RoutingGrid& grid,
                 const std::vector<std::vector<int>>& touch_of,
                 const SegmentGraph& graph, SegmentId seg, grid::Mask m) {
  int stitches = 0;
  for (const int t : touch_of[static_cast<size_t>(seg)]) {
    const TouchEdge& e = graph.touches[static_cast<size_t>(t)];
    if (e.via) continue;
    const SegmentId other = e.a == seg ? e.b : e.a;
    // The neighbor's current mask is its first vertex's committed mask.
    const grid::Mask om =
        grid.mask(graph.segments[static_cast<size_t>(other)].vertices.front());
    if (om != grid::kNoMask && om != m) ++stitches;
  }
  return stitches;
}

/// Total same-mask cross-net vertex pairs in the layout (stat only;
/// clustered conflict counting is the evaluator's job).
int total_violations(const grid::RoutingGrid& grid, const SegmentGraph& graph) {
  int pairs = 0;
  for (const auto& seg : graph.segments) {
    const grid::Mask m = grid.mask(seg.vertices.front());
    if (m == grid::kNoMask) continue;
    pairs += conflict_pairs(grid, seg, m);
  }
  return pairs / 2;  // every pair seen from both sides
}

int total_stitches(const grid::RoutingGrid& grid, const SegmentGraph& graph) {
  int stitches = 0;
  for (const auto& e : graph.touches) {
    if (e.via) continue;
    const grid::Mask ma =
        grid.mask(graph.segments[static_cast<size_t>(e.a)].vertices.front());
    const grid::Mask mb =
        grid.mask(graph.segments[static_cast<size_t>(e.b)].vertices.front());
    if (ma != grid::kNoMask && mb != grid::kNoMask && ma != mb) ++stitches;
  }
  return stitches;
}

}  // namespace

RecolorStats recolor_refine(grid::RoutingGrid& grid,
                            const grid::Solution& solution,
                            RecolorConfig config) {
  RecolorStats stats;
  SegmentGraph graph = extract_segments(grid, solution);
  if (graph.segments.empty()) return stats;

  const auto& rules = grid.tech().rules();
  const double beta = rules.beta;
  const double gamma = rules.gamma;
  const int num_masks = rules.num_masks;

  // Touch-edge incidence per segment.
  std::vector<std::vector<int>> touch_of(graph.segments.size());
  for (int t = 0; t < static_cast<int>(graph.touches.size()); ++t) {
    const auto& e = graph.touches[static_cast<size_t>(t)];
    touch_of[static_cast<size_t>(e.a)].push_back(t);
    touch_of[static_cast<size_t>(e.b)].push_back(t);
  }

  stats.violations_before = total_violations(grid, graph);
  stats.stitches_before = total_stitches(grid, graph);

  // Sweep order: most conflicted segments first, ties by id for
  // determinism. Recomputed once per pass.
  std::vector<SegmentId> order(graph.segments.size());
  std::iota(order.begin(), order.end(), 0);

  for (int pass = 0; pass < config.max_passes; ++pass) {
    std::vector<double> pain(graph.segments.size(), 0.0);
    for (const SegmentId s : order) {
      const auto& seg = graph.segments[static_cast<size_t>(s)];
      const grid::Mask m = grid.mask(seg.vertices.front());
      if (m == grid::kNoMask) continue;
      pain[static_cast<size_t>(s)] =
          gamma * conflict_pairs(grid, seg, m) +
          beta * stitch_edges(grid, touch_of, graph, s, m);
    }
    std::stable_sort(order.begin(), order.end(), [&](SegmentId a, SegmentId b) {
      return pain[static_cast<size_t>(a)] > pain[static_cast<size_t>(b)];
    });

    int moves_this_pass = 0;
    for (const SegmentId s : order) {
      const auto& seg = graph.segments[static_cast<size_t>(s)];
      if (!grid.tech().is_tpl_layer(seg.layer)) continue;
      const grid::Mask current = grid.mask(seg.vertices.front());
      if (current == grid::kNoMask) continue;

      double best_cost = gamma * conflict_pairs(grid, seg, current) +
                         beta * stitch_edges(grid, touch_of, graph, s, current);
      grid::Mask best = current;
      for (grid::Mask m = 0; m < static_cast<grid::Mask>(num_masks); ++m) {
        if (m == current) continue;
        const double cost = gamma * conflict_pairs(grid, seg, m) +
                            beta * stitch_edges(grid, touch_of, graph, s, m);
        if (cost < best_cost) {
          best_cost = cost;
          best = m;
        }
      }
      if (best != current) {
        for (const grid::VertexId v : seg.vertices) grid.set_mask(v, best);
        ++moves_this_pass;
      }
    }
    stats.moves += moves_this_pass;
    stats.passes = pass + 1;
    if (moves_this_pass == 0) break;  // fixpoint
  }

  stats.violations_after = total_violations(grid, graph);
  stats.stitches_after = total_stitches(grid, graph);
  return stats;
}

}  // namespace mrtpl::layout
