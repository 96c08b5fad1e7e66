/// \file test_search_arena.cpp
/// The search hot path's two load-bearing reuse contracts (README "Search
/// hot path"):
///
///  1. BucketQueue and HeapQueue pop in the SAME total order — (quantized
///     key, push sequence), lexicographic — including the equal-key FIFO
///     tie-break and the overflow range. The routing engines' byte-identity
///     rests on this, so it is pinned element-for-element on randomized
///     push/pop streams, Dijkstra-shaped and A*-shaped (the latter
///     recycling the bucket queue's pooled nodes).
///  2. A SearchArena reused across an unbounded sequence of nets (epoch
///     stamping, no clearing) behaves exactly like fresh per-net state.

#include <gtest/gtest.h>

#include <vector>

#include "benchgen/generator.hpp"
#include "core/color_search.hpp"
#include "core/mrtpl_router.hpp"
#include "core/search_arena.hpp"
#include "global/global_router.hpp"
#include "grid/routing_grid.hpp"
#include "io/solution_io.hpp"
#include "support/builders.hpp"
#include "util/rng.hpp"

namespace mrtpl {
namespace {

using core::BucketQueue;
using core::HeapQueue;
using core::QueueItem;

/// Reference order: plain stable sort on (qkey, seq).
struct RefItem {
  std::uint64_t qkey;
  std::uint32_t seq;
  grid::VertexId v;
};

class QueueOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueOracle, BucketMatchesHeapElementForElement) {
  util::Rng rng(GetParam());
  BucketQueue bucket;
  HeapQueue heap;
  // Several sessions over the same (reused) queues: clear() must restore
  // a pristine state without losing the equivalence.
  for (int session = 0; session < 5; ++session) {
    bucket.clear();
    heap.clear();
    std::uint32_t seq = 0;
    std::uint64_t low_key = 0;  // keys drift upward like a Dijkstra run
    const int ops = 400 + session * 137;
    for (int op = 0; op < ops; ++op) {
      const bool do_push = bucket.empty() || rng.next_bool(0.6);
      if (do_push) {
        // Mix: clustered keys near the current frontier (lots of exact
        // ties to exercise FIFO), occasional overflow keys beyond the
        // bucket range, occasional keys *below* the frontier (the A*
        // re-key case that rewinds the bucket cursor).
        std::uint64_t qkey;
        const double roll = rng.next_double();
        if (roll < 0.70) {
          qkey = low_key + rng.next_below(4);  // dense ties
        } else if (roll < 0.85) {
          qkey = low_key + rng.next_below(300);
        } else if (roll < 0.95) {
          qkey = low_key > 8 ? low_key - rng.next_below(8) : 0;  // rewind
        } else {
          qkey = BucketQueue::kNumBuckets + rng.next_below(1 << 20);  // overflow
        }
        const QueueItem item{static_cast<double>(qkey), seq, 0};
        bucket.push(qkey, item, seq);
        heap.push(qkey, item, seq);
        ++seq;
      } else {
        ASSERT_FALSE(heap.empty());
        const QueueItem a = bucket.pop();
        const QueueItem b = heap.pop();
        // `v` carries the push sequence: equality pins the exact element,
        // not merely an equal key.
        ASSERT_EQ(a.v, b.v) << "session " << session << " op " << op;
        ASSERT_EQ(a.g, b.g);
        low_key = static_cast<std::uint64_t>(a.g);
      }
      ASSERT_EQ(bucket.size(), heap.size());
      ASSERT_EQ(bucket.empty(), heap.empty());
    }
    // Drain: the full remaining order must agree.
    while (!heap.empty()) {
      ASSERT_FALSE(bucket.empty());
      ASSERT_EQ(bucket.pop().v, heap.pop().v);
    }
    ASSERT_TRUE(bucket.empty());
  }
}

/// A*-shaped key streams: f-keys land anywhere in the 2^16 bucket range,
/// pushes below the last popped key (heuristic drops, round re-keys)
/// rewind the cursor often, and push-heavy and pop-heavy phases alternate
/// so the live set grows and shrinks. Every other session ends with items
/// still queued, so clear() must reclaim them. Pooled nodes are thereby
/// recycled across buckets (free list) and across sessions (pool reset);
/// the pop order must still match the heap element for element.
TEST_P(QueueOracle, AstarShapedKeysRecyclePooledNodes) {
  util::Rng rng(GetParam() ^ 0xA57A);
  BucketQueue bucket;
  HeapQueue heap;
  constexpr std::uint32_t kRange = BucketQueue::kNumBuckets;
  for (int session = 0; session < 8; ++session) {
    bucket.clear();
    heap.clear();
    std::uint32_t seq = 0;
    std::uint64_t last_pop = 0;
    const int ops = 3000 + session * 311;
    for (int op = 0; op < ops; ++op) {
      const bool pop_heavy = (op / 97) % 2 == 1;
      const bool do_push = bucket.empty() || rng.next_bool(pop_heavy ? 0.3 : 0.7);
      if (do_push) {
        std::uint64_t qkey;
        const double roll = rng.next_double();
        if (roll < 0.35) {
          qkey = rng.next_below(kRange);  // anywhere in the bucket range
        } else if (roll < 0.70) {
          qkey = last_pop - std::min<std::uint64_t>(last_pop, rng.next_below(64));
        } else if (roll < 0.95) {
          qkey = std::min<std::uint64_t>(last_pop + rng.next_below(8), kRange - 1);
        } else if (roll < 0.98) {
          qkey = kRange - 1 - rng.next_below(4);  // top edge of the range
        } else {
          qkey = kRange + rng.next_below(1 << 12);  // overflow
        }
        const QueueItem item{static_cast<double>(qkey), seq, 0};
        bucket.push(qkey, item, seq);
        heap.push(qkey, item, seq);
        ++seq;
      } else {
        const QueueItem a = bucket.pop();
        const QueueItem b = heap.pop();
        ASSERT_EQ(a.v, b.v) << "session " << session << " op " << op;
        last_pop = static_cast<std::uint64_t>(a.g);
      }
      ASSERT_EQ(bucket.size(), heap.size());
    }
    if (session % 2 == 1) continue;  // leave the rest for clear()
    while (!heap.empty()) ASSERT_EQ(bucket.pop().v, heap.pop().v);
    ASSERT_TRUE(bucket.empty());
  }
}

TEST_P(QueueOracle, EqualKeysPopInPushOrder) {
  util::Rng rng(GetParam() ^ 0x5EED);
  BucketQueue bucket;
  HeapQueue heap;
  // All pushes share one key (both in-range and overflow variants): pops
  // must return exactly the push order — the FIFO tie-break that makes
  // bucket order reproducible by the heap.
  for (const std::uint64_t qkey : {std::uint64_t{7}, std::uint64_t{70000}}) {
    bucket.clear();
    heap.clear();
    const int n = 100 + static_cast<int>(rng.next_below(100));
    for (int i = 0; i < n; ++i) {
      const QueueItem item{0.0, static_cast<grid::VertexId>(i), 0};
      bucket.push(qkey, item, static_cast<std::uint32_t>(i));
      heap.push(qkey, item, static_cast<std::uint32_t>(i));
    }
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(bucket.pop().v, static_cast<grid::VertexId>(i)) << "key " << qkey;
      ASSERT_EQ(heap.pop().v, static_cast<grid::VertexId>(i)) << "key " << qkey;
    }
  }
}

TEST(QueueOracle, BucketRangeAlwaysPopsBeforeOverflow) {
  BucketQueue q;
  const QueueItem high{1.0, 1, 0};
  const QueueItem low{2.0, 2, 0};
  // Overflow pushed FIRST (earlier seq) still pops after any in-range key.
  q.push(BucketQueue::kNumBuckets + 5, high, 0);
  q.push(3, low, 1);
  EXPECT_EQ(q.pop().v, 2u);
  EXPECT_EQ(q.pop().v, 1u);
  EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueOracle, ::testing::Values(1, 2, 3, 4));

/// Epoch-stamped reuse: one long-lived ColorSearch must route a long
/// net sequence exactly like a fresh ColorSearch constructed per net.
/// 1000 sessions also cross several arena-internal reuse boundaries
/// (bucket cursor resets, touched-list clears, guide bitmap reshapes).
TEST(SearchArenaReuse, ThousandConsecutiveNetsMatchFreshSearches) {
  const db::Design design =
      benchgen::generate(test::sized_case(40, 55, 42));
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();
  const grid::RoutingGrid grid(design);  // never committed: pure searches

  core::RouterConfig cfg;
  cfg.use_astar = true;  // exercise re-key + rewind paths too
  core::SearchArena arena;
  core::ColorSearch reused(grid, cfg, arena);

  const auto universe =
      core::ColorState::universe(grid.tech().rules().num_masks);
  const geom::Rect die{0, 0, design.die().width() - 1,
                       design.die().height() - 1};
  auto drive = [&](core::ColorSearch& search, db::NetId id) {
    const db::Net& net = design.net(id);
    geom::Rect window = net.bbox().inflated(6).intersected(die);
    search.begin_net(id, &guides[static_cast<size_t>(id)], window);
    for (const auto& pin : net.pins)
      for (const grid::VertexId v : grid.pin_vertices(pin))
        if (&pin == &net.pins.front())
          search.add_source(v, universe);
        else
          search.add_target(v, 1);
    const grid::VertexId dst = search.search();
    // Fingerprint: destination, its cost/state, and the full backwalk.
    std::vector<std::uint64_t> fp{dst};
    if (dst != grid::kInvalidVertex) {
      fp.push_back(static_cast<std::uint64_t>(search.cost(dst) * 1024.0));
      fp.push_back(search.state(dst).bits());
      for (grid::VertexId v = dst; v != grid::kInvalidVertex;
           v = search.prev(v))
        fp.push_back(v);
      fp.push_back(search.relaxations());
    }
    return fp;
  };

  const int num_nets = design.num_nets();
  for (int i = 0; i < 1000; ++i) {
    const db::NetId id = static_cast<db::NetId>(i % num_nets);
    core::ColorSearch fresh(grid, cfg);  // own arena, first session
    ASSERT_EQ(drive(reused, id), drive(fresh, id)) << "session " << i;
  }
}

/// Worker arenas must also be interchangeable with the serial search at
/// the router level — ensured transitively by test_determinism's thread
/// sweep, but pinned here on the arena-sharing ctor directly: two
/// searches alternating over ONE arena equal two over separate arenas.
TEST(SearchArenaReuse, AlternatingSearchesShareOneArena) {
  const db::Design design = test::parallel_nets_design(4);
  const grid::RoutingGrid grid(design);
  core::RouterConfig cfg;

  core::SearchArena shared;
  core::ColorSearch a(grid, cfg, shared);
  core::ColorSearch b(grid, cfg, shared);
  core::ColorSearch ref(grid, cfg);

  const auto universe =
      core::ColorState::universe(grid.tech().rules().num_masks);
  const geom::Rect die{0, 0, design.die().width() - 1,
                       design.die().height() - 1};
  auto run = [&](core::ColorSearch& search, db::NetId id) {
    const db::Net& net = design.net(id);
    search.begin_net(id, nullptr, net.bbox().inflated(6).intersected(die));
    for (const grid::VertexId v : grid.pin_vertices(net.pins[0]))
      search.add_source(v, universe);
    for (const grid::VertexId v : grid.pin_vertices(net.pins[1]))
      search.add_target(v, 1);
    const grid::VertexId dst = search.search();
    return dst == grid::kInvalidVertex
               ? -1.0
               : search.cost(dst);
  };
  for (int round = 0; round < 3; ++round) {
    for (db::NetId id = 0; id < design.num_nets(); ++id) {
      // a and b interleave on the same arena; never concurrently.
      core::ColorSearch& search = (id % 2 == 0) ? a : b;
      EXPECT_EQ(run(search, id), run(ref, id)) << "net " << id;
    }
  }
}

/// End-to-end reuse sanity at router scale: the tile walk's per-worker
/// arenas (shared by the worker's base-grid search and its tile views)
/// route the same solution whether the run is the first or the
/// hundredth use of the worker state. (The router rebuilds
/// workers per run; this guards the arena against *intra*-run drift by
/// comparing two identically configured runs that exercise thousands of
/// sessions per arena.)
TEST(SearchArenaReuse, RouterRunsAreStableUnderArenaReuse) {
  const db::Design design = benchgen::generate(test::sized_case(40, 55, 7));
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();
  auto run_once = [&] {
    grid::RoutingGrid grid(design);
    core::RouterConfig cfg;
    cfg.rrr_threads = 2;
    cfg.shard_tiles = 4;
    core::MrTplRouter router(design, &guides, cfg);
    const grid::Solution sol = router.run(grid);
    return io::solution_to_string(grid, sol);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace mrtpl
