#pragma once
/// \file routing_grid.hpp
/// The 3-D gridded routing graph shared by Mr.TPL and both baselines.
///
/// Vertices are track intersections (layer, x, y). Edges are implicit:
/// four planar moves plus up/down vias, mirroring the six search
/// directions {F,B,R,L,U,D} of Algorithm 2 in the paper. The grid also
/// stores the *committed* state of the layout — which net owns a vertex
/// and which mask it has been assigned — which is what the color-conflict
/// cost of Eq. 1 and the final conflict detection read.

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "db/design.hpp"
#include "db/tech.hpp"
#include "geom/point.hpp"

namespace mrtpl::grid {

using VertexId = std::uint32_t;
constexpr VertexId kInvalidVertex = std::numeric_limits<VertexId>::max();

/// Mask index: 0=red, 1=green, 2=blue; kNoMask = not yet colored.
using Mask = std::int8_t;
constexpr Mask kNoMask = -1;
constexpr int kNumMasks = 3;

/// Search directions, same order as Algorithm 2's {F,B,R,L,U,D}.
enum class Dir : std::uint8_t { East = 0, West, North, South, Up, Down };
constexpr int kNumDirs = 6;

[[nodiscard]] constexpr bool is_via(Dir d) { return d == Dir::Up || d == Dir::Down; }
[[nodiscard]] constexpr Dir opposite(Dir d) {
  switch (d) {
    case Dir::East: return Dir::West;
    case Dir::West: return Dir::East;
    case Dir::North: return Dir::South;
    case Dir::South: return Dir::North;
    case Dir::Up: return Dir::Down;
    case Dir::Down: return Dir::Up;
  }
  return Dir::East;
}

/// Location of a vertex in (layer, x, y) coordinates.
struct VertexLoc {
  int layer = 0;
  int x = 0;
  int y = 0;
  friend constexpr auto operator<=>(const VertexLoc&, const VertexLoc&) = default;
};

/// Gridded routing graph + committed layout state.
///
/// Construction rasterises the design: obstacle shapes block vertices;
/// every pin's shapes are recorded as owned by its net (pins are metal and
/// participate in TPL coloring) and are impenetrable to other nets.
///
/// A grid may also be a rectangular *view* of another grid (grid_view.hpp):
/// the dense arrays then cover only the window `bounds()`, vertex ids are
/// offset-mapped into it, and every coordinate-taking or -returning API
/// keeps speaking GLOBAL die coordinates — callers cannot tell a view from
/// a whole-die grid as long as they stay inside its bounds.
class RoutingGrid {
 public:
  explicit RoutingGrid(const db::Design& design);

  // ---- topology -----------------------------------------------------
  [[nodiscard]] int num_layers() const { return nl_; }
  [[nodiscard]] int size_x() const { return nx_; }
  [[nodiscard]] int size_y() const { return ny_; }
  [[nodiscard]] std::uint32_t num_vertices() const {
    return static_cast<std::uint32_t>(nl_) * static_cast<std::uint32_t>(nx_) *
           static_cast<std::uint32_t>(ny_);
  }
  /// The (x, y) region this grid's arrays cover, in die coordinates.
  /// Whole-die grids cover {0, 0, size_x-1, size_y-1}; views cover their
  /// window. Every (x, y) passed to vertex() must lie inside it.
  [[nodiscard]] geom::Rect bounds() const {
    return {x0_, y0_, x0_ + nx_ - 1, y0_ + ny_ - 1};
  }

  [[nodiscard]] VertexId vertex(int layer, int x, int y) const {
    return (static_cast<VertexId>(layer) * static_cast<VertexId>(ny_) +
            static_cast<VertexId>(y - y0_)) * static_cast<VertexId>(nx_) +
           static_cast<VertexId>(x - x0_);
  }
  [[nodiscard]] VertexId vertex(const VertexLoc& l) const {
    return vertex(l.layer, l.x, l.y);
  }
  [[nodiscard]] VertexLoc loc(VertexId v) const {
    const int x = static_cast<int>(v % static_cast<VertexId>(nx_));
    const VertexId rest = v / static_cast<VertexId>(nx_);
    const int y = static_cast<int>(rest % static_cast<VertexId>(ny_));
    const int layer = static_cast<int>(rest / static_cast<VertexId>(ny_));
    return {layer, x0_ + x, y0_ + y};
  }

  /// Neighbor in direction `d`, or kInvalidVertex at the boundary.
  [[nodiscard]] VertexId neighbor(VertexId v, Dir d) const {
    return neighbors(v)[static_cast<int>(d)];
  }
  /// neighbor() in every direction, indexed by Dir, from one loc() decode.
  /// Inline, so a neighbor() call computes only the entry it returns.
  [[nodiscard]] std::array<VertexId, kNumDirs> neighbors(VertexId v) const {
    const VertexLoc l = loc(v);
    const auto row = static_cast<VertexId>(nx_);
    const auto plane = static_cast<VertexId>(nx_) * static_cast<VertexId>(ny_);
    std::array<VertexId, kNumDirs> out;
    out[static_cast<int>(Dir::East)] = l.x + 1 < x0_ + nx_ ? v + 1 : kInvalidVertex;
    out[static_cast<int>(Dir::West)] = l.x > x0_ ? v - 1 : kInvalidVertex;
    out[static_cast<int>(Dir::North)] = l.y + 1 < y0_ + ny_ ? v + row : kInvalidVertex;
    out[static_cast<int>(Dir::South)] = l.y > y0_ ? v - row : kInvalidVertex;
    out[static_cast<int>(Dir::Up)] = l.layer + 1 < nl_ ? v + plane : kInvalidVertex;
    out[static_cast<int>(Dir::Down)] = l.layer > 0 ? v - plane : kInvalidVertex;
    return out;
  }

  /// True when moving planar in `d` on `layer` follows the preferred
  /// direction (East/West on horizontal layers, North/South on vertical).
  [[nodiscard]] bool is_preferred(int layer, Dir d) const;

  // ---- committed layout state ----------------------------------------
  [[nodiscard]] bool blocked(VertexId v) const { return blocked_[v] != 0; }
  [[nodiscard]] db::NetId owner(VertexId v) const { return owner_[v]; }
  [[nodiscard]] Mask mask(VertexId v) const { return mask_[v]; }
  [[nodiscard]] bool is_pin_vertex(VertexId v) const { return pin_vertex_[v] != 0; }

  /// Commit a routed vertex to `net` (mask may be kNoMask until coloring).
  void commit(VertexId v, db::NetId net, Mask m);
  /// Assign/overwrite the mask of an already-committed vertex.
  void set_mask(VertexId v, Mask m);
  /// Release a vertex during rip-up. Pin vertices revert to pin ownership,
  /// wire vertices to free.
  void release(VertexId v);

  // ---- negotiated-congestion history ---------------------------------
  [[nodiscard]] double history(VertexId v) const { return history_[v]; }
  void add_history(VertexId v, double amount) {
    history_[v] += static_cast<float>(amount);
    history_dirty_ = true;
  }
  /// Zero every history cost; O(1) when no add_history ran since the
  /// last clear (a clean ECO apply never adds any).
  void clear_history();

  // ---- TPL neighborhood queries ---------------------------------------
  /// Number of vertices within the Dcolor window of `v` (same layer,
  /// Chebyshev distance in [1, dcolor]) committed to a *different* net
  /// with mask `m`. This is the color-conflict term of Eq. 1. Non-TPL
  /// layers always report 0.
  [[nodiscard]] int same_mask_neighbors(VertexId v, Mask m, db::NetId self) const;

  /// Bitmask over masks 0..2: bit c set iff same_mask_neighbors(v, c) > 0.
  /// One window scan instead of three.
  [[nodiscard]] std::uint8_t conflict_mask_bits(VertexId v, db::NetId self) const;

  /// Visit all (vertex, mask) pairs of *other* nets within the window.
  template <typename Fn>  // Fn(VertexId u, db::NetId owner, Mask m)
  void for_each_colored_neighbor(VertexId v, db::NetId self, Fn&& fn) const;

  // ---- precomputed congestion field -----------------------------------
  /// Per-mask colored-vertex counts over the same Dcolor window the scan
  /// above visits, EXCLUDING `v` itself but including every net: three
  /// uint16 counters per vertex, maintained incrementally on every
  /// commit/set_mask/release mask transition. A search for net N may use
  /// these in place of the window scan exactly when colored_count(N) == 0
  /// (then no counted vertex can belong to N) — which is always true in
  /// the router flows, because rip-up clears masks and pins start
  /// uncolored. Non-TPL layers hold zeros.
  [[nodiscard]] const std::uint16_t* colored_neighbor_counts(VertexId v) const {
    return &color_counts_[3 * static_cast<std::size_t>(v)];
  }

  /// Number of committed vertices of `net` currently carrying a mask —
  /// the validity guard of the fast path above. Nets beyond the design
  /// (tests commit synthetic ids) are tracked too.
  [[nodiscard]] std::uint32_t colored_count(db::NetId net) const {
    return net >= 0 && static_cast<std::size_t>(net) < colored_of_.size()
               ? colored_of_[static_cast<std::size_t>(net)]
               : 0;
  }

  [[nodiscard]] const db::Design& design() const { return *design_; }
  [[nodiscard]] const db::Tech& tech() const { return design_->tech(); }
  [[nodiscard]] int dcolor() const { return dcolor_; }

  /// All grid vertices covered by a pin's shapes that are usable as
  /// search sources/targets (not blocked by obstacles).
  [[nodiscard]] std::vector<VertexId> pin_vertices(const db::Pin& pin) const;

  // ---- incremental re-rasterization (ECO edits) -----------------------
  /// Recompute the static layout state (blocked / pin vertex / pin owner)
  /// of every vertex of `region` on `layer` from the design's CURRENT
  /// obstacles and pins, mirroring construction exactly: obstacles win
  /// over pins, and of overlapping pins the highest net id wins. Owner
  /// and mask transitions flow through the dirty log and the congestion
  /// field like any commit/release. Callers (the session subsystem) must
  /// release all committed wire in the region first — any leftover wire
  /// ownership is dropped here, not preserved.
  void rerasterize(int layer, const geom::Rect& region);

  // ---- failure injection (tests) --------------------------------------
  /// Block an arbitrary vertex; used by tests to create unroutable or
  /// congested instances deterministically.
  void inject_blockage(VertexId v) { blocked_[v] = 1; }

  // ---- change notification --------------------------------------------
  /// Attach a dirty log: every commit/set_mask/release that actually
  /// changes a vertex's (owner, mask) appends the vertex id. Duplicates
  /// are possible — consumers dedupe. One consumer at a time (pass
  /// nullptr to detach); core::ConflictIndex uses this to keep the
  /// violating-pair set incremental instead of rescanning the die.
  void set_dirty_log(std::vector<VertexId>* log) { dirty_log_ = log; }
  /// Detach, but only if `log` is still the attached consumer — so a
  /// consumer's destructor can't rip out a successor's log.
  void clear_dirty_log(const std::vector<VertexId>* log) {
    if (dirty_log_ == log) dirty_log_ = nullptr;
  }
  [[nodiscard]] bool has_dirty_log() const { return dirty_log_ != nullptr; }

 protected:
  /// View construction (grid_view.hpp): a grid whose arrays cover only
  /// `tile ∩ base.bounds()`, seeded with a copy of the base's committed
  /// state in that window. The base's rasterization is reused — obstacles
  /// and pins are never re-scanned — so K disjoint tiles of one die cost
  /// O(die) memory and time in total, not K × O(die).
  RoutingGrid(const RoutingGrid& base, const geom::Rect& tile);

 private:
  const db::Design* design_;
  int nl_, nx_, ny_;
  int x0_ = 0, y0_ = 0;  ///< window origin in die coordinates (views)
  int dcolor_;
  std::vector<db::NetId> owner_;   ///< committed net or kNoNet
  std::vector<Mask> mask_;         ///< committed mask or kNoMask
  std::vector<std::uint8_t> blocked_;
  std::vector<std::uint8_t> pin_vertex_;  ///< vertex belongs to a pin shape
  std::vector<db::NetId> pin_owner_;      ///< pin net (survives release())
  std::vector<float> history_;
  bool history_dirty_ = false;  ///< add_history ran since the last clear
  std::vector<std::uint16_t> color_counts_;  ///< 3 per vertex, see accessor
  std::vector<std::uint32_t> colored_of_;    ///< per-net colored-vertex count
  std::vector<VertexId>* dirty_log_ = nullptr;  ///< change log, may be null

  /// Fold one vertex's (owner, mask) transition into the congestion field
  /// and the per-net colored counters. Must run before owner_/mask_ are
  /// overwritten.
  void update_color_field(VertexId v, db::NetId old_owner, Mask old_m,
                          db::NetId new_owner, Mask new_m);

  void note_change(VertexId v, db::NetId new_owner, Mask new_mask) {
    if (dirty_log_ != nullptr && (owner_[v] != new_owner || mask_[v] != new_mask))
      dirty_log_->push_back(v);
  }
};

template <typename Fn>
void RoutingGrid::for_each_colored_neighbor(VertexId v, db::NetId self, Fn&& fn) const {
  const VertexLoc l = loc(v);
  if (!tech().is_tpl_layer(l.layer)) return;
  const int x0 = l.x - dcolor_ > x0_ ? l.x - dcolor_ : x0_;
  const int x1 = l.x + dcolor_ < x0_ + nx_ ? l.x + dcolor_ : x0_ + nx_ - 1;
  const int y0 = l.y - dcolor_ > y0_ ? l.y - dcolor_ : y0_;
  const int y1 = l.y + dcolor_ < y0_ + ny_ ? l.y + dcolor_ : y0_ + ny_ - 1;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      if (x == l.x && y == l.y) continue;
      const VertexId u = vertex(l.layer, x, y);
      const db::NetId net = owner_[u];
      if (net == db::kNoNet || net == self) continue;
      const Mask m = mask_[u];
      if (m == kNoMask) continue;
      fn(u, net, m);
    }
  }
}

}  // namespace mrtpl::grid
