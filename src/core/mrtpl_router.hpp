#pragma once
/// \file mrtpl_router.hpp
/// The Mr.TPL detailed router: Algorithm 1 (multi-pin net routing) per
/// net, Algorithm 3 (backtrace with verSet/segSet color merging), and the
/// Fig. 2 outer loop (route all nets → detect conflicts → rip-up & update
/// history → reroute).

#include <vector>

#include "core/color_search.hpp"
#include "core/conflict.hpp"
#include "core/route_budget.hpp"
#include "core/router_config.hpp"
#include "core/segset.hpp"
#include "global/guide.hpp"
#include "grid/route_result.hpp"
#include "grid/routing_grid.hpp"

namespace mrtpl::core {

class ConflictIndex;  // conflict_index.hpp

/// Aggregate statistics of one routing run.
struct RouterStats {
  int rrr_iterations = 0;             ///< executed RRR rounds
  std::vector<int> conflicts_per_iter;///< clustered conflicts after each round
  int failed_nets = 0;                ///< nets with unreachable pins
  std::uint64_t relaxations = 0;      ///< total *applied* search relaxations
  double runtime_s = 0.0;
  double detect_s = 0.0;              ///< wall time in conflict detection
  double reroute_s = 0.0;             ///< wall time routing nets (all passes)
  int route_batches = 0;              ///< executor passes (one per route_list)

  /// Applied relaxations of each route_list pass, in pass order. The
  /// entries always sum to `relaxations` — bench_sharded aborts if the
  /// accounting ever drifts — and, like it, are independent of the
  /// (tiles, threads) configuration (speculative work that fails
  /// validation is *not* applied; it lands in wasted_relaxations instead).
  std::vector<std::uint64_t> relaxations_per_pass;
  int speculated = 0;                 ///< speculative outcomes reaching commit
  int respeculated = 0;               ///< speculations redone serially
  std::uint64_t wasted_relaxations = 0;  ///< search effort of those discards

  /// Largest label-array length (slots) of any SearchArena the run used,
  /// main search and tile workers alike: the biggest searched window's
  /// area × layers, never the die's vertex count.
  std::size_t arena_slots = 0;

  /// A RouteBudget bound tripped and stopped the run early; the returned
  /// solution carries SolutionStatus::kDegraded.
  bool budget_hit = false;
};

/// Resumable router state at an RRR iteration boundary, produced by
/// `run(grid, budget, &checkpoint)` when a budget stops the run, and
/// consumed by a later run() call on a FRESH grid of the same design.
/// Checkpoints are only taken at *clean* boundaries — states an
/// uninterrupted run also passes through — so resuming with a fresh
/// (or unlimited) budget reproduces the uninterrupted run's final
/// solution byte-for-byte (pinned by test_snapshot_restore).
struct RouterCheckpoint {
  bool valid = false;
  int iteration = 0;  ///< next RRR iteration to execute (0 = initial pass done)
  grid::Solution solution;                      ///< committed layout
  std::vector<std::vector<grid::Mask>> masks;   ///< parallel to routes[i].vertices()
  std::vector<float> history;                   ///< per-vertex history cost
  std::vector<int> extra_margin;                ///< per-net widened windows
  std::vector<int> conflicts_per_iter;          ///< stats continuity
  /// Best iterate seen so far (the run's final keep-best restore point).
  grid::Solution best_solution;
  std::vector<std::vector<grid::Mask>> best_masks;
  double best_score = 0.0;  ///< meaningful only when best_masks nonempty
};

/// Net routing order of `nets`: short, low-degree nets first (key
/// bbox width + height + 4 · degree), ties by id. Dead (zero-pin) and
/// out-of-range ids are dropped and duplicates collapse. The id tie-break
/// makes any subset come out exactly as its filter of the whole design's
/// order, so the RRR loop and ECO reroutes order a handful of nets
/// without sorting the design.
[[nodiscard]] std::vector<db::NetId> route_order(const db::Design& design,
                                                 std::vector<db::NetId> nets);

/// Mr.TPL router. Construct once per design; `run` routes every net into
/// the grid (committing vertices and masks) and returns the solution.
class MrTplRouter {
 public:
  /// `guides` may be null (route unguided). The config's toggles select
  /// the ablation variants.
  MrTplRouter(const db::Design& design, const global::GuideSet* guides,
              RouterConfig config = {});

  /// Route all nets with rip-up & reroute. The grid must be freshly built
  /// from the same design.
  grid::Solution run(grid::RoutingGrid& grid);

  /// Budgeted run (route_budget.hpp). With an exhausted budget the run
  /// stops ripping, keeps the best iterate it reached, and returns a
  /// kDegraded solution with per-net dispositions; with `budget` unlimited
  /// the output is byte-identical to run(grid). When `checkpoint` is
  /// non-null: if checkpoint->valid, the run RESUMES from it (the grid
  /// must be freshly built — the checkpoint's layout is committed into
  /// it); on a budget stop, the last clean iteration boundary is written
  /// back into *checkpoint (valid=false when the run completed or never
  /// reached a clean boundary).
  grid::Solution run(grid::RoutingGrid& grid, const RouteBudget& budget,
                     RouterCheckpoint* checkpoint = nullptr);

  [[nodiscard]] const RouterStats& stats() const { return stats_; }

  /// Incremental ECO reroute for resident sessions. `dirty` names the nets
  /// whose routes the caller has already released from `grid` (plus any
  /// newly added nets); they are rerouted into the otherwise-committed
  /// layout, then the standard RRR loop repairs whatever conflicts or
  /// failures the delta caused — globally correct, local in practice.
  /// `index` is the caller's resident conflict engine (null: one is built,
  /// or the full-rescan oracle runs per config). Strictly serial, so a
  /// journal replay of the same (state, dirty, budget) is byte-identical
  /// to the live apply. `solution` is updated in place (entries resize to
  /// the design; dead nets normalize to trivially-routed markers); returns
  /// the run status (kDegraded when `budget` tripped).
  grid::SolutionStatus reroute(grid::RoutingGrid& grid, ConflictIndex* index,
                               const std::vector<db::NetId>& dirty,
                               grid::Solution& solution,
                               const RouteBudget& budget = {});

  /// Route one net in isolation (exposed for tests and the quickstart
  /// example, which narrates Fig. 3 step by step). Commits the result.
  grid::NetRoute route_net(grid::RoutingGrid& grid, ColorSearch& search,
                           db::NetId net_id);

  /// Per-vertex committed masks of the last `route_net` call, for
  /// callers that need the color of each path vertex.
  [[nodiscard]] const std::vector<std::pair<grid::VertexId, grid::Mask>>&
  last_colors() const {
    return last_colors_;
  }

  /// Current widened-window margin of a net beyond config.search_margin.
  /// Zero after any successful route (the widening is an escape valve for
  /// one failure episode, not a permanent enlargement); exposed so tests
  /// can pin the reset.
  [[nodiscard]] int extra_margin(db::NetId net_id) const {
    return net_id >= 0 && static_cast<std::size_t>(net_id) < extra_margin_.size()
               ? extra_margin_[static_cast<std::size_t>(net_id)]
               : 0;
  }

 private:
  /// Everything one net's routing produces, computed against a read-only
  /// grid: the tree, the chosen (vertex, mask) commits in commit order,
  /// and the search-effort counter. Committing an outcome is the only
  /// grid mutation — which is what lets the tile walk compute nets
  /// concurrently and commit them serially.
  struct RouteOutcome {
    grid::NetRoute route;
    std::vector<std::pair<grid::VertexId, grid::Mask>> colors;
    std::uint64_t relaxations = 0;
    /// Read footprint, split by halo class. `read_near` covers the
    /// owner/blocked/history reads: the labeled bbox inflated by 1 and
    /// clipped to the (guide-derived) search window — expansion tests the
    /// window before reading a candidate, so nothing outside the window is
    /// ever read. `read_tpl` covers the Dcolor congestion scans: the bbox
    /// of TPL-layer reads inflated by dcolor, usually far smaller than the
    /// labeled bbox. The tile walk validates commits against the pair;
    /// tightness only changes how many speculations are KEPT, never the
    /// routing output.
    geom::Rect read_near;
    geom::Rect read_tpl;
    bool has_read_near = false;
    bool has_read_tpl = false;
  };

  /// The tile walk's thread pool plus one SearchArena and one base-grid
  /// ColorSearch per worker (mrtpl_router.cpp). Built once per run(), so
  /// after the first few nets warm the arenas the parallel hot path
  /// allocates nothing.
  struct Workers;

  /// A restorable copy of the committed layout (mrtpl_router.cpp).
  struct LayoutSnapshot;

  /// compute_route with every exception (injected allocation failures,
  /// unexpected search errors) converted into a failed outcome — the
  /// recovery contract of the RRR loop: a net that cannot compute is
  /// marked failed and retried on a later iteration instead of killing
  /// the run. Safe because compute_route never mutates the grid.
  [[nodiscard]] RouteOutcome compute_route_guarded(const grid::RoutingGrid& grid,
                                                   ColorSearch& search,
                                                   db::NetId net_id) const;

  /// A net's search scope: the guide actually applied (null when absent
  /// or empty) and the window (bbox ∪ guide bbox, inflated by
  /// search_margin, clamped to the die). The single source of truth
  /// shared by compute_route and the tile classifier, so tile ownership
  /// can never desynchronize from the search.
  struct SearchScope {
    const global::NetGuide* guide = nullptr;
    geom::Rect window;
  };
  [[nodiscard]] SearchScope net_scope(db::NetId net_id) const;

  /// Algorithm 3. Walks prev pointers from `dst` to the routed tree,
  /// attaching vertices to verSets/segSets and re-seeding the tree.
  static std::vector<grid::VertexId> backtrace(const grid::RoutingGrid& grid,
                                               ColorSearch& search, SegSetPool& pool,
                                               grid::VertexId dst);

  /// Algorithms 1–3 for one net without touching the grid. Thread-safe
  /// for nets whose read footprints (window + dcolor halo) are disjoint
  /// from every concurrent commit.
  [[nodiscard]] RouteOutcome compute_route(const grid::RoutingGrid& grid,
                                           ColorSearch& search,
                                           db::NetId net_id) const;

  /// Final per-segSet mask selection for a routed net (the commit half of
  /// the old color_and_commit, minus the commits): fills outcome.colors.
  void choose_colors(const grid::RoutingGrid& grid, SegSetPool& pool,
                     db::NetId net_id, const grid::NetRoute& route,
                     std::vector<std::pair<grid::VertexId, grid::Mask>>& colors) const;

  /// Commit an outcome's colors and fold its counters into stats_.
  void apply_outcome(grid::RoutingGrid& grid, const RouteOutcome& outcome);

  /// Refresh the last_colors() accessor from an outcome. Kept separate
  /// from apply_outcome so the tile walk can pin last_colors() to the
  /// final applied net of the list — the accessor must not depend on the
  /// (tiles, threads) configuration either.
  void set_last_colors(const RouteOutcome& outcome);

  /// Route `nets` in order, storing results in `solution`. Two branches:
  /// serial (no `workers`, a single net, or a budget already expired at
  /// pass start — every net then skips), and the tile walk (route_tiles).
  /// Either way the budget is checked against the *applied* ledger at
  /// each net's commit point, and a net found expired is marked kSkipped
  /// without committing anything, so a relaxation budget stops on the
  /// same net for every configuration.
  ///
  /// The tile walk runs one pass in three steps:
  ///
  ///  1. CLASSIFY. The die is partitioned into a K×K shard::TilePlan. A
  ///     net whose halo-inflated search window fits one tile is *interior*
  ///     to it; everything else joins the boundary pool. The plan depends
  ///     only on (die, shard_tiles), never on the thread count.
  ///  2. COMPUTE (parallel, main grid frozen). One pool task per non-empty
  ///     tile plus one per boundary net. A tile task builds a
  ///     grid::GridView of its rect (an O(tile) copy of the pass-start
  ///     state) and routes its interior nets SEQUENTIALLY in ripped order,
  ///     committing each into the view — intra-tile dependencies are
  ///     exact, not speculative. Boundary nets speculate flat against the
  ///     shared pass-start grid.
  ///  3. RECONCILE (serial). One commit walk in ripped order. An interior
  ///     outcome is stale only if a *hazard* — an applied boundary commit,
  ///     or an earlier redo that diverged from its speculation — landed
  ///     inside its read footprint (interior nets of other tiles provably
  ///     cannot overlap it: reads ⊆ window ⊕ halo ⊆ own tile). A boundary
  ///     outcome is stale if ANY earlier applied commit did. Stale nets
  ///     recompute on the spot, against the exact serial-prefix grid.
  ///     Both indices are geom::SpatialGrid, so the walk is O(n · window).
  ///
  /// Every applied outcome therefore equals the serial loop's, so the
  /// solution and the applied-relaxation ledger are byte-identical for
  /// every (shard_tiles, rrr_threads) configuration — validation decides
  /// what is KEPT, never what the result is.
  void route_list(grid::RoutingGrid& grid, ColorSearch& search, Workers* workers,
                  const std::vector<db::NetId>& nets, grid::Solution& solution);

  /// The tile walk of route_list (steps 1–3 above).
  void route_tiles(grid::RoutingGrid& grid, ColorSearch& search, Workers& workers,
                   const std::vector<db::NetId>& nets, grid::Solution& solution);

  /// Shared prologue of run() and reroute(): reset the stats, arm the
  /// budget, clear the widened windows, size `solution` to the design and
  /// normalize dead-net entries (ECO tombstones) to trivially routed.
  void begin_run(const RouteBudget& budget, grid::Solution& solution);

  /// The Fig. 2 rip-up-and-reroute loop shared by run() and reroute(),
  /// starting after the initial pass at iteration `start_iter`: conflict
  /// detection (`index`, or the full-rescan oracle when null), history
  /// update, window widening, blocker sweep, ripped order, reroute, then
  /// the keep-best restore and the final status/failed-net accounting.
  /// `best` carries the best iterate so far in and out; it is captured
  /// lazily, just before a rip moves the grid off the best iterate, so a
  /// loop that never rips never copies or re-scores the layout. With
  /// `pending` non-null, every clean iteration boundary is captured into
  /// it.
  void rrr_loop(grid::RoutingGrid& grid, ColorSearch& search, Workers* workers,
                ConflictIndex* index, int start_iter, LayoutSnapshot& best,
                grid::Solution& solution, RouterCheckpoint* pending);

  /// Capture the clean boundary before iteration `next_iter` into
  /// `*pending`. No-op when `pending` is null or the budget has tripped —
  /// every captured state is one an uninterrupted run also passes through,
  /// which is what makes resume-then-finish byte-identical.
  void capture_checkpoint(const grid::RoutingGrid& grid,
                          const grid::Solution& solution,
                          const LayoutSnapshot& best, int next_iter,
                          RouterCheckpoint* pending) const;

  const db::Design& design_;
  const global::GuideSet* guides_;
  RouterConfig config_;
  RouterStats stats_;
  std::vector<std::pair<grid::VertexId, grid::Mask>> last_colors_;

  /// Armed budget of the current run (inactive when run(grid) was called
  /// without one). route_list consults it at per-net commit points; the
  /// ColorSearch instances poll it mid-search for deadline/cancel.
  BudgetTracker budget_;

  /// Extra search margin per net, beyond config_.search_margin. Starts at
  /// zero, doubles every RRR iteration a net fails to route — the escape
  /// valve for labyrinth-style blockages whose only opening lies far
  /// outside the net's bbox (scenario macro mazes) — and drops back to
  /// zero the moment the net routes. Mutated only between route passes on
  /// the main thread; net_scope reads it, so tile ownership tracks the
  /// widened windows automatically.
  std::vector<int> extra_margin_;
};

}  // namespace mrtpl::core
