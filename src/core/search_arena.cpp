#include "core/search_arena.hpp"

#include <bit>
#include <cassert>
#include <new>

#include "util/fault_injector.hpp"

namespace mrtpl::core {

void BucketQueue::clear() {
  // Only non-empty buckets hold a head to reset, and the occupancy bitmap
  // lists exactly those; every node then returns to the pool at once.
  for (std::uint32_t sw = 0; sw < kNumBuckets / 4096; ++sw) {
    for (std::uint64_t s = summary_[sw]; s != 0; s &= s - 1) {
      const std::uint32_t w = sw * 64 + static_cast<std::uint32_t>(std::countr_zero(s));
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
        buckets_[w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits))].head = kNil;
      words_[w] = 0;
    }
    summary_[sw] = 0;
  }
  nodes_.clear();
  free_ = kNil;
  overflow_.clear();
  in_buckets_ = 0;
  cursor_ = 0;
}

void BucketQueue::mark_nonempty(std::uint32_t b) {
  words_[b / 64] |= 1ull << (b % 64);
  summary_[b / 4096] |= 1ull << ((b / 64) % 64);
}

void BucketQueue::mark_empty(std::uint32_t b) {
  words_[b / 64] &= ~(1ull << (b % 64));
  if (words_[b / 64] == 0) summary_[b / 4096] &= ~(1ull << ((b / 64) % 64));
}

void BucketQueue::push(std::uint64_t qkey, const QueueItem& item, std::uint32_t seq) {
  if (qkey >= kNumBuckets) {
    overflow_.push_back({qkey, seq, item});
    std::push_heap(overflow_.begin(), overflow_.end(), OverflowAfter{});
    return;
  }
  std::uint32_t n = free_;
  if (n != kNil) {
    free_ = nodes_[n].next;
    nodes_[n] = {item, kNil};
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({item, kNil});
  }
  const auto b = static_cast<std::uint32_t>(qkey);
  Bucket& bucket = buckets_[b];
  if (bucket.head == kNil) {  // was empty
    bucket.head = n;
    mark_nonempty(b);
    if (b < cursor_) cursor_ = b;  // A* re-key or re-seed rewind
  } else {
    nodes_[bucket.tail].next = n;
  }
  bucket.tail = n;
  ++in_buckets_;
}

QueueItem BucketQueue::pop() {
  assert(!empty());
  if (in_buckets_ == 0) {
    // Everything below the bucket range drained: overflow keys are all
    // >= kNumBuckets, so the overflow minimum is the global minimum.
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowAfter{});
    const QueueItem item = overflow_.back().item;
    overflow_.pop_back();
    return item;
  }
  // Lowest non-empty bucket via the two-level bitmap. Invariant: every
  // non-empty bucket lies at or above cursor_ (pop moves it to the bucket
  // it drained from; a lower push rewinds it), so the first set bit from
  // the cursor's summary word onward is the global minimum.
  std::uint32_t sw = cursor_ / 4096;
  while (summary_[sw] == 0) ++sw;
  const std::uint32_t w = sw * 64 + static_cast<std::uint32_t>(std::countr_zero(summary_[sw]));
  const std::uint32_t b = w * 64 + static_cast<std::uint32_t>(std::countr_zero(words_[w]));
  cursor_ = b;

  Bucket& bucket = buckets_[b];
  const std::uint32_t n = bucket.head;
  Node& node = nodes_[n];
  const QueueItem item = node.item;
  bucket.head = node.next;
  node.next = free_;
  free_ = n;
  --in_buckets_;
  if (bucket.head == kNil) mark_empty(b);
  return item;
}

void SearchArena::ensure(std::uint32_t num_slots) {
  // Fault site kArenaGrow: simulate label-array allocation failure. Every
  // ColorSearch::begin_net calls ensure exactly once (with its window's
  // slot count), and the check runs on every call — not only growing ones
  // — so the site can fire on any net mid-run; begin_net runs inside the
  // router's guarded compute, which recovers by marking the net failed.
  if (util::FaultInjector::enabled() &&
      util::FaultInjector::instance().should_fail(util::FaultSite::kArenaGrow))
    throw std::bad_alloc();
  if (cost.size() >= num_slots) return;
  cost.resize(num_slots);
  prev.resize(num_slots);
  state.resize(num_slots);
  closed.resize(num_slots);
  stamp.resize(num_slots, 0);
  target_pin.resize(num_slots, -1);
  target_stamp.resize(num_slots, 0);
}

void SearchArena::begin_session() {
  ++epoch;
  if (epoch == 0) {
    // Epoch wrap (once per 2^32 sessions): old stamps could alias the new
    // epoch, so pay one full clear and restart from 1.
    std::fill(stamp.begin(), stamp.end(), 0u);
    std::fill(target_stamp.begin(), target_stamp.end(), 0u);
    epoch = 1;
  }
  bucket_queue.clear();
  seq = 0;
  target_list.clear();
  any_touched = false;
  any_tpl_touched = false;
}

}  // namespace mrtpl::core
