#pragma once
/// \file search_arena.hpp
/// Preallocated scratch state of the color-state search hot path: SoA
/// label arrays reused across nets via epoch stamping, the stamped target
/// registry, the rasterized guide-cover bitmap, and the bucket queue.
///
/// Every per-vertex array is indexed by a *window-local slot* (SlotMap),
/// not by the global vertex id: a search only ever expands inside its
/// net's clamped window, so the arrays hold O(window × layers) entries —
/// grown on demand to the largest window the arena has served — instead
/// of O(die), and neighboring labels sit w or w·h slots apart instead of
/// a die row or plane.
///
/// The BucketQueue pops in one total order — (quantized key, push
/// sequence), lexicographic — so the routing output depends on the keys
/// and the push order alone. It is a flat bucket array indexed by the
/// quantized key with FIFO buckets: FIFO within a bucket IS push-sequence
/// order, and a two-level occupancy bitmap finds the lowest non-empty
/// bucket in a handful of word operations. With the quantum no larger
/// than the cheapest edge, a Dijkstra pass never relaxes into the bucket
/// it is draining, so the scan cursor moves monotonically; pushes below
/// the cursor (A* re-keys, and the cost-0 tree re-seeds between pin
/// rounds) rewind it, which keeps the structure an *exact* (key, seq)
/// priority queue, not merely an approximate monotone one. Each bucket is
/// a singly linked list over ONE shared, free-listed node pool, so the
/// queue's memory is its peak live item count — not the sum of every
/// bucket's high-water mark, which A*'s spread-out f-keys would inflate.
/// The binary heap it replaced is the order oracle of the tests
/// (tests/support/heap_queue_oracle.hpp).
///
/// Keys beyond the bucket range spill into an overflow heap (same order);
/// bucket items always pop first because their keys are strictly smaller.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geom/rect.hpp"
#include "grid/routing_grid.hpp"

namespace mrtpl::core {

/// One queued search label. `g` is the true (unquantized) label value at
/// push time — the pop-side staleness check compares it against the
/// current label — `slot` is the label's window-local slot (the search
/// derives the global vertex id from it), and `round` tags the
/// target-set generation the A* heuristic was computed against.
struct QueueItem {
  double g = 0.0;
  std::uint32_t slot = 0;
  std::uint32_t round = 0;
};

/// Flat monotone bucket queue over quantized keys; see the file comment
/// for the ordering contract. All storage is reused across clear() calls
/// (the node pool keeps its capacity), so a search session allocates
/// nothing once the arena is warm.
class BucketQueue {
 public:
  /// Keys in [0, kNumBuckets) live in the flat array; larger keys go to
  /// the overflow heap. 2^16 buckets cover path costs up to 2^16 quanta,
  /// which the windowed searches stay under except on pathological
  /// history pile-ups.
  static constexpr std::uint32_t kNumBuckets = 1u << 16;

  BucketQueue() : buckets_(kNumBuckets) {}

  void clear();
  [[nodiscard]] bool empty() const { return in_buckets_ + overflow_.size() == 0; }
  [[nodiscard]] std::size_t size() const { return in_buckets_ + overflow_.size(); }

  void push(std::uint64_t qkey, const QueueItem& item, std::uint32_t seq);

  /// Pops the item with the smallest (qkey, seq). Precondition: !empty().
  QueueItem pop();

 private:
  static constexpr std::uint32_t kNil = ~0u;
  /// Pool node: an item plus the index of the next node in its bucket
  /// (or in the free list).
  struct Node {
    QueueItem item;
    std::uint32_t next = kNil;
  };
  /// FIFO list of pool nodes; `head == kNil` iff the bucket is empty
  /// (`tail` is then indifferent).
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  struct OverflowItem {
    std::uint64_t qkey = 0;
    std::uint32_t seq = 0;
    QueueItem item;
  };
  /// Min-heap comparator: "a pops after b".
  struct OverflowAfter {
    bool operator()(const OverflowItem& a, const OverflowItem& b) const {
      return a.qkey != b.qkey ? a.qkey > b.qkey : a.seq > b.seq;
    }
  };

  void mark_nonempty(std::uint32_t b);
  void mark_empty(std::uint32_t b);

  std::vector<Bucket> buckets_;
  std::vector<Node> nodes_;   ///< the shared pool; live + free nodes
  std::uint32_t free_ = kNil; ///< free-list head (popped nodes, reused first)
  std::uint64_t words_[kNumBuckets / 64] = {};      ///< bit b: bucket non-empty
  std::uint64_t summary_[kNumBuckets / 4096] = {};  ///< bit w: words_[w] != 0
  std::uint32_t cursor_ = 0;       ///< lower bound on the lowest non-empty bucket
  std::size_t in_buckets_ = 0;
  std::vector<OverflowItem> overflow_;  ///< std::*_heap managed (clear keeps capacity)
};

/// Window-local slot numbering of one search session over a (grid-
/// clamped) window: slot = layer·(w·h) + (y − y0)·w + (x − x0). Slots of
/// the window × layers box are exactly [0, size()), and a label's +x, +y
/// and +layer neighbors sit 1, width() and plane() slots further on. An
/// empty (!valid()) window maps nothing: size() == 0.
class SlotMap {
 public:
  SlotMap() = default;
  SlotMap(const geom::Rect& window, int num_layers)
      : window_(window),
        w_(window.valid() ? static_cast<std::uint32_t>(window.width()) : 0),
        h_(window.valid() ? static_cast<std::uint32_t>(window.height()) : 0),
        plane_(w_ * h_),
        size_(plane_ * static_cast<std::uint32_t>(num_layers)) {}

  [[nodiscard]] const geom::Rect& window() const { return window_; }
  [[nodiscard]] std::uint32_t width() const { return w_; }
  [[nodiscard]] std::uint32_t plane() const { return plane_; }
  [[nodiscard]] std::uint32_t size() const { return size_; }

  /// True iff `l` lies in the window × layers box.
  [[nodiscard]] bool contains(const grid::VertexLoc& l) const {
    return l.layer >= 0 && static_cast<std::uint32_t>(l.layer) * plane_ < size_ &&
           window_.contains({l.x, l.y});
  }
  /// Slot of `l`. Precondition: contains(l).
  [[nodiscard]] std::uint32_t slot(const grid::VertexLoc& l) const {
    return static_cast<std::uint32_t>(l.layer) * plane_ +
           static_cast<std::uint32_t>(l.y - window_.lo.y) * w_ +
           static_cast<std::uint32_t>(l.x - window_.lo.x);
  }
  /// Inverse of slot(). Precondition: s < size().
  [[nodiscard]] grid::VertexLoc loc(std::uint32_t s) const {
    const std::uint32_t row = s / w_;
    const std::uint32_t layer = row / h_;
    return {static_cast<int>(layer), window_.lo.x + static_cast<int>(s - row * w_),
            window_.lo.y + static_cast<int>(row - layer * h_)};
  }

 private:
  geom::Rect window_{0, 0, -1, -1};
  std::uint32_t w_ = 0;
  std::uint32_t h_ = 0;
  std::uint32_t plane_ = 0;
  std::uint32_t size_ = 0;
};

/// Per-worker scratch arena of ColorSearch. One arena serves an unbounded
/// sequence of nets, each under its own window-to-slot mapping:
/// begin_session() bumps the epoch instead of clearing the label arrays,
/// so a stamp written under an earlier session's mapping never reads as
/// live, and every other structure resets in O(touched). The members are
/// plain data on purpose — ColorSearch owns the semantics (and the slot
/// mapping); tests exercise the reuse contract directly.
struct SearchArena {
  /// One registered target: its slot and planar position (the A*
  /// heuristic scans positions without decoding slots).
  struct Target {
    std::uint32_t slot = 0;
    int x = 0;
    int y = 0;
  };

  // ---- SoA labels by slot, valid iff stamp[slot] == epoch -------------
  std::vector<double> cost;
  std::vector<grid::VertexId> prev;  ///< global ids, for the backtrace
  std::vector<std::uint8_t> state;
  std::vector<std::uint8_t> closed;
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;

  // ---- target registry: stamped O(1) lookup + dense list --------------
  std::vector<std::int32_t> target_pin;
  std::vector<std::uint32_t> target_stamp;
  std::vector<Target> target_list;

  // ---- queue ----------------------------------------------------------
  BucketQueue bucket_queue;
  std::uint32_t seq = 0;  ///< push sequence, the queue's tie-break

  // ---- per-session guide-cover bitmap over the search window ----------
  std::vector<std::uint64_t> guide_bits;

  // ---- read-footprint tracking for the tile walk's validation --------
  bool any_touched = false;
  geom::Rect touched_bbox;
  /// TPL congestion reads only (Dcolor-window scans): usually a much
  /// smaller box than touched_bbox, which is what lets the executor
  /// validate with per-class halos instead of one square max(dcolor, 1).
  bool any_tpl_touched = false;
  geom::Rect tpl_touched_bbox;

  /// Grow the per-slot arrays to cover `num_slots` (a window's area ×
  /// layers); they never shrink, so the size is the high-water window.
  /// Values of grown slots are indifferent: their stamps arrive as
  /// 0 != epoch.
  void ensure(std::uint32_t num_slots);

  /// Open a fresh session: new epoch, empty queues/targets, reset
  /// footprint. O(structures touched by the previous session).
  void begin_session();
};

}  // namespace mrtpl::core
