#pragma once
/// \file router_config.hpp
/// Tunables of the Mr.TPL detailed router. Weight defaults follow the
/// TechRules of the design; the toggles exist for the ablation benches
/// (DESIGN.md experiments A1–A3).

#include <cstdint>

namespace mrtpl::core {

struct RouterConfig {
  // ---- rip-up & reroute (Fig. 2 outer loop) --------------------------
  int max_rrr_iterations = 5;

  /// Whether the RRR loop rips nets on *color conflicts* (with history
  /// cost), in addition to routability failures. Negotiated color-conflict
  /// RRR is part of Mr.TPL's Fig. 2 flow; the DAC-2012 baseline's
  /// published flow commits colors in one pass and its rip-up only targets
  /// unroutable nets, so the Table II harness runs the baseline with this
  /// off (see DESIGN.md §2). Turning it on for the baseline is the
  /// `bench_ablation_rrr` "negotiated baseline" ablation.
  bool rrr_on_color_conflicts = true;

  /// Worker threads of the tile walk (MrTplRouter::route_list). The walk
  /// runs only when BOTH rrr_threads >= 2 and shard_tiles >= 2, and it is
  /// parallel only from shard_tiles >= 4; rrr_threads alone routes
  /// serially. Output is byte-identical for every value.
  int rrr_threads = 1;

  /// Die tiling of the tile walk. The die is partitioned into
  /// ~sqrt(shard_tiles)² tiles; a net whose halo-inflated search window
  /// fits inside one tile is *interior* to it and computes sequentially
  /// against that tile's GridView (intra-tile dependencies exact, O(tile)
  /// memory), nets crossing tile boundaries join the boundary pool and
  /// speculate flat; one serial walk in ripped order then validates every
  /// outcome and redoes stale ones. Output is byte-identical for every
  /// (shard_tiles, rrr_threads) configuration — validation decides what
  /// is KEPT, never what the result is. 1 routes serially; 2 and 3 round
  /// down to a single-tile plan.
  int shard_tiles = 1;

  /// Maintain the violating-pair set incrementally (core::ConflictIndex,
  /// fed by the grid's dirty log) instead of rescanning the whole die
  /// every RRR iteration. Identical conflicts; detection cost scales with
  /// the rip delta. Off falls back to the detect_conflicts debug oracle.
  bool incremental_conflicts = true;

  // ---- search window ---------------------------------------------------
  /// Hard clamp: search stays within the net bbox united with its guide
  /// bbox, inflated by this many tracks. Keeps per-net search local, as a
  /// guide-driven detailed router does.
  int search_margin = 6;

  // ---- ablation toggles ------------------------------------------------
  /// A1: when false, the searcher commits to a *single* argmin color per
  /// vertex instead of keeping the argmin set — i.e. disables the paper's
  /// set-based color-state merging contribution.
  bool set_based_states = true;

  /// Override beta (stitch weight) / gamma (color-conflict weight) from
  /// the tech rules when >= 0; used by the A2 sweep.
  double beta_override = -1.0;
  double gamma_override = -1.0;

  /// When false, skip coloring entirely (plain-router mode used by the
  /// decomposition flow of Table III).
  bool enable_coloring = true;

  // ---- search hot-path engine (README "Search hot path") ---------------
  /// Pop queued labels from the flat monotone bucket queue instead of the
  /// legacy binary heap. Both engines pop in the same (quantized key,
  /// push sequence) order, so routing output is byte-identical; this is
  /// purely a constant-factor switch, kept so `bench_search_micro
  /// --compare` and the equivalence tests can pin one against the other.
  bool use_bucket_queue = true;

  /// Read the per-mask color-conflict counts from the grid's incrementally
  /// maintained congestion field instead of rescanning the Dcolor window
  /// on every relaxation. Exact (the searcher falls back to the scan for
  /// the rare net that already holds colored vertices), so output is
  /// byte-identical with the toggle off.
  bool precomputed_congestion = true;

  /// Drive the color-state search as A* with an admissible Manhattan
  /// lower bound to the nearest unreached pin instead of plain Dijkstra
  /// (the paper's Algorithm 2). Path costs are identical — the heuristic
  /// never overestimates because wire steps cost at least alpha *
  /// wire_cost and color terms are nonnegative — so solution quality is
  /// preserved while the explored frontier shrinks (5.8x fewer
  /// relaxations on production_grid_10k). On by default; the paper-table
  /// harnesses (`bench_table2`/`bench_table3`) turn it off so the
  /// reproduced tables run Algorithm 2 as published, and ablation A5
  /// (`bench_ablation_astar`) compares the two.
  bool use_astar = true;
};

}  // namespace mrtpl::core
