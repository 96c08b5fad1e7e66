#pragma once
/// \file color_search.hpp
/// Algorithm 2 of the paper: Dijkstra-style color-state searching.
///
/// Each label holds a cost *and* a color state. Relaxing an edge evaluates
/// all three masks (Eq. 1's per-color cost: traditional + gamma ·
/// conflict-count, plus beta when a planar move leaves the predecessor's
/// state — a stitch) and keeps the **set of argmin masks** as the new
/// vertex's state.
///
/// By default the loop runs as A* (RouterConfig::use_astar): queue keys
/// are g + h, with h the Manhattan distance to the nearest unreached
/// target times the cheapest step cost (alpha · wire_cost). Every planar
/// step costs at least that much and vias keep h unchanged, so h is
/// admissible and consistent: path costs equal Dijkstra's while far fewer
/// labels are relaxed. When a pin is reached the target set shrinks,
/// queued keys go stale, and popped entries of an older round are
/// re-keyed. With use_astar off the loop is Algorithm 2's plain Dijkstra,
/// which the paper-table harnesses run.
///
/// The hot path runs on a SearchArena (search_arena.hpp): epoch-stamped
/// SoA labels reused across nets without clearing and indexed by
/// window-local slots — O(window × layers) memory, not O(die) — a stamped
/// target registry, a per-session guide-cover bitmap, and one of two queue
/// engines — the flat monotone bucket queue (default) or the legacy
/// binary heap — both popping in the SAME (quantized key, push sequence)
/// order, so routing output is byte-identical across engines. Per-die
/// cost atoms (per-layer/per-direction base costs, TPL-layer flags) are
/// precomputed once at construction; the per-mask congestion term can
/// read the grid's incrementally maintained colored-neighbor counts
/// instead of rescanning the Dcolor window on every relaxation.

#include <memory>
#include <vector>

#include "core/color_state.hpp"
#include "core/route_budget.hpp"
#include "core/router_config.hpp"
#include "core/search_arena.hpp"
#include "geom/rect.hpp"
#include "global/guide.hpp"
#include "grid/routing_grid.hpp"

namespace mrtpl::core {

class ColorSearch {
 public:
  /// Standalone construction: the search owns a private SearchArena.
  ColorSearch(const grid::RoutingGrid& grid, RouterConfig config);
  /// Construction over a caller-owned arena (one per ThreadPool worker in
  /// the tile walk). The arena must outlive the search; two
  /// searches may share an arena only if never used concurrently.
  ColorSearch(const grid::RoutingGrid& grid, RouterConfig config,
              SearchArena& arena);

  /// Start a search session for `net`. `window` hard-clamps expansion and
  /// fixes the session's slot mapping (the arena grows to the clamped
  /// window's area × layers); `guide` (may be null) adds out-of-guide
  /// penalties. Resets the relaxation counter and retires all labels of
  /// the previous session.
  void begin_net(db::NetId net, const global::NetGuide* guide, geom::Rect window);

  /// Seed a source vertex with cost 0 and the given state (Algorithm 1
  /// lines 4–8 use ColorState::all()). Throws std::out_of_range when `v`
  /// lies outside the session's window (it would have no slot).
  void add_source(grid::VertexId v, ColorState state);

  /// Register vertex `v` as belonging to (unreached) pin `pin`. Throws
  /// std::out_of_range when `v` lies outside the session's window.
  void add_target(grid::VertexId v, int pin);
  /// Remove all target vertices of a pin once it is reached.
  void clear_targets_of_pin(int pin);

  /// Run the search loop until a target pops. Returns the destination
  /// vertex, or kInvalidVertex when the queue drains (unroutable pin) OR
  /// the attached budget interrupts — callers distinguish the two via
  /// interrupted().
  [[nodiscard]] grid::VertexId search();

  /// Attach (or detach, with nullptr) a budget tracker. The search polls
  /// tracker->interrupted() every kBudgetCheckInterval relaxations —
  /// coarse enough to cost nothing, fine enough that a deadline stops a
  /// die-spanning search mid-net. The tracker must outlive the search.
  void set_budget(const BudgetTracker* budget) { budget_ = budget; }

  /// True when the last search() returned early because the budget
  /// tripped (deadline/cancel — relaxation budgets only stop BETWEEN
  /// nets, see route_budget.hpp). Reset by begin_net.
  [[nodiscard]] bool interrupted() const { return interrupted_; }

  /// How many relaxations pass between budget polls inside search().
  static constexpr std::uint64_t kBudgetCheckInterval = 4096;

  /// Pin id that vertex `v` targets, or -1 (always -1 outside the window).
  [[nodiscard]] int target_pin(grid::VertexId v) const;

  // ---- label accessors (used by backtrace) ---------------------------
  // Global ids in, mapped to slots through the grid's loc(). A vertex not
  // labeled this session — outside the window included — reads as
  // unvisited: infinite cost, no predecessor, empty state.
  [[nodiscard]] double cost(grid::VertexId v) const;
  [[nodiscard]] grid::VertexId prev(grid::VertexId v) const;
  [[nodiscard]] ColorState state(grid::VertexId v) const;
  [[nodiscard]] bool visited(grid::VertexId v) const { return live_slot(v) != kNoSlot; }

  /// Algorithm 3 lines 17–18: zero the vertex's cost, keep/replace its
  /// state, and re-queue it so the routed tree seeds the next pin search.
  /// Throws std::out_of_range when `v` lies outside the session's window.
  void make_source(grid::VertexId v, ColorState state);

  /// Label relaxations performed since the most recent begin_net — a
  /// strictly per-net counter (begin_net resets it to zero); callers that
  /// want per-run totals must accumulate it themselves, once per net.
  [[nodiscard]] std::uint64_t relaxations() const { return relaxations_; }

  /// Bounding box (x, y; all layers) of every vertex labeled since
  /// begin_net. Owner/blocked/history reads stay within this box inflated
  /// by 1 (and within the window); only the TPL congestion reads — tracked
  /// separately below — reach a full Dcolor beyond their vertices. The
  /// tile walk validates commits against the pair.
  [[nodiscard]] bool anything_touched() const { return arena_->any_touched; }
  [[nodiscard]] geom::Rect touched_bbox() const { return arena_->touched_bbox; }

  /// Bounding box of every vertex whose Dcolor-window congestion state the
  /// session read (TPL-layer candidates and sources). Grid state those
  /// reads depended on lies within it inflated by dcolor.
  [[nodiscard]] bool anything_tpl_touched() const { return arena_->any_tpl_touched; }
  [[nodiscard]] geom::Rect tpl_touched_bbox() const { return arena_->tpl_touched_bbox; }

  /// The effective (grid-clamped) window of the current session; the read
  /// footprint of everything except the TPL congestion scans is contained
  /// in it.
  [[nodiscard]] geom::Rect window() const { return slots_.window(); }

  /// Current label-array length of the arena: the high-water slot count
  /// (window area × layers) of every session it has served.
  [[nodiscard]] std::size_t arena_slots() const { return arena_->cost.size(); }

 private:
  ColorSearch(const grid::RoutingGrid& grid, RouterConfig config,
              SearchArena* arena);

  static constexpr std::uint32_t kNoSlot = ~0u;

  /// slots_.slot of `v`'s location, or kNoSlot when it lies outside the
  /// window (or the grid).
  [[nodiscard]] std::uint32_t slot_of(grid::VertexId v) const;
  /// slot_of(v) when it is labeled this session, else kNoSlot.
  [[nodiscard]] std::uint32_t live_slot(grid::VertexId v) const;
  /// slot_of(v), throwing std::out_of_range for an out-of-window vertex.
  [[nodiscard]] std::uint32_t checked_slot(grid::VertexId v, const char* caller) const;

  void touch(std::uint32_t slot, int x, int y);
  void touch_tpl(int x, int y);
  [[nodiscard]] bool guide_covered(int x, int y) const;

  /// Admissible lower bound from (x, y) to the current target set (0 when
  /// A* is off or no targets remain): a scan for the nearest target. The
  /// O(1) distance to the targets' bounding box was measured slower end
  /// to end (it prunes less on spread-out multi-pin nets), so the scan
  /// stays.
  [[nodiscard]] double heuristic(int x, int y) const;
  void push(std::uint32_t slot, int x, int y, double g);
  [[nodiscard]] QueueItem pop_item();
  [[nodiscard]] bool queue_empty() const;

  const grid::RoutingGrid& grid_;
  RouterConfig config_;
  double beta_, gamma_;
  ColorState universe_ = ColorState::all();  ///< masks of the K-patterning process

  // ---- per-die precomputed cost atoms ---------------------------------
  double alpha_ = 1.0;
  double oog_cost_ = 0.0;       ///< out-of-guide surcharge (pre-alpha)
  double inv_quantum_ = 2.0;    ///< 1 / bucket width; width <= min edge cost
  std::vector<double> trad_base_;     ///< [layer * kNumDirs + dir], pre-alpha
  std::vector<std::uint8_t> tpl_layer_;

  db::NetId net_ = db::kNoNet;
  const global::NetGuide* guide_ = nullptr;
  bool guide_active_ = false;
  SlotMap slots_;  ///< the session's clamped window and its slot numbering

  SearchArena* arena_ = nullptr;
  std::unique_ptr<SearchArena> owned_arena_;

  std::uint32_t round_ = 0;  ///< bumped whenever the target set changes
  double min_step_cost_ = 1.0;

  std::uint64_t relaxations_ = 0;
  const BudgetTracker* budget_ = nullptr;
  std::uint64_t next_budget_check_ = kBudgetCheckInterval;
  bool interrupted_ = false;
};

}  // namespace mrtpl::core
