#pragma once
/// \file heap_queue_oracle.hpp
/// Reference priority queue for the search's core::BucketQueue: the
/// binary heap the color-state search popped from before the bucket
/// queue replaced it, kept verbatim. Both order items by (quantized key,
/// push sequence), lexicographic, so the bucket queue must pop the same
/// items in the same order (test_search_arena's QueueOracle suites).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/search_arena.hpp"

namespace mrtpl::test {

using core::QueueItem;

/// The legacy engine: a binary heap over the same (qkey, seq) order.
/// Implemented on a plain vector (std::push_heap/pop_heap) instead of
/// std::priority_queue so clear() can keep the allocation.
class HeapQueue {
 public:
  void clear() { items_.clear(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

  void push(std::uint64_t qkey, const QueueItem& item, std::uint32_t seq) {
    items_.push_back({qkey, seq, item});
    std::push_heap(items_.begin(), items_.end(), After{});
  }

  QueueItem pop() {
    std::pop_heap(items_.begin(), items_.end(), After{});
    const QueueItem item = items_.back().item;
    items_.pop_back();
    return item;
  }

 private:
  struct HeapItem {
    std::uint64_t qkey = 0;
    std::uint32_t seq = 0;
    QueueItem item;
  };
  struct After {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      return a.qkey != b.qkey ? a.qkey > b.qkey : a.seq > b.seq;
    }
  };
  std::vector<HeapItem> items_;
};

}  // namespace mrtpl::test
