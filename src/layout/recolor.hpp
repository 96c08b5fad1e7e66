#pragma once
/// \file recolor.hpp
/// Post-routing mask-assignment refinement: greedy local search over the
/// segment partition of a *colored* layout.
///
/// Both flows of the paper end with a fully colored layout — Mr.TPL
/// commits per net during backtrace, the decomposition baseline colors the
/// whole layout at once. Either way the committed assignment is the output
/// of a sequential/greedy process and usually has slack: single segments
/// whose mask can be flipped to remove a color conflict or a stitch
/// without creating new ones. This pass sweeps segments in decreasing
/// violation order and applies strictly-improving single-segment moves
/// until a fixpoint (or the pass cap) is reached.
///
/// It is *not* part of Mr.TPL as published — the paper's claim is that
/// in-routing coloring beats post-hoc repair. The `bench_ablation_refine`
/// experiment quantifies exactly how much headroom such a repair pass has
/// left on each flow's output (little for Mr.TPL, much for the one-pass
/// baseline — which is the paper's thesis restated).

#include "grid/route_result.hpp"
#include "grid/routing_grid.hpp"
#include "layout/segment_extract.hpp"

namespace mrtpl::layout {

/// The objective weights (beta, gamma) come from the design's tech rules.
struct RecolorConfig {
  int max_passes = 8;
};

struct RecolorStats {
  int passes = 0;           ///< sweeps actually performed
  int moves = 0;            ///< segment recolorings applied
  int violations_before = 0;  ///< same-mask cross-net vertex pairs
  int violations_after = 0;
  int stitches_before = 0;  ///< differing-mask same-layer touch edges
  int stitches_after = 0;
};

/// Refine the committed mask assignment of `solution` in `grid`. Only
/// segments on TPL layers with a real mask are touched; uncolored layouts
/// are left unchanged (run the decomposer first).
RecolorStats recolor_refine(grid::RoutingGrid& grid,
                            const grid::Solution& solution,
                            RecolorConfig config = {});

}  // namespace mrtpl::layout
