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
///     stamping, no clearing) behaves exactly like fresh per-net state —
///     also when consecutive sessions use windows of different shapes,
///     i.e. different slot mappings over the same arrays.
///  3. The window-local slot numbering (SlotMap) is a bijection of window
///     × layers onto [0, size()) whose ±1 / ±w / ±w·h strides are the
///     grid's planar and via neighbors, on base grids and tile views; and
///     the arenas it indexes stay window-sized through a whole router run.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/generator.hpp"
#include "core/color_search.hpp"
#include "core/mrtpl_router.hpp"
#include "core/search_arena.hpp"
#include "global/global_router.hpp"
#include "grid/grid_view.hpp"
#include "grid/routing_grid.hpp"
#include "io/solution_io.hpp"
#include "shard/tile_plan.hpp"
#include "support/builders.hpp"
#include "util/rng.hpp"

namespace mrtpl {
namespace {

using core::BucketQueue;
using core::HeapQueue;
using core::QueueItem;
using core::SlotMap;

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
        // `slot` carries the push sequence: equality pins the exact element,
        // not merely an equal key.
        ASSERT_EQ(a.slot, b.slot) << "session " << session << " op " << op;
        ASSERT_EQ(a.g, b.g);
        low_key = static_cast<std::uint64_t>(a.g);
      }
      ASSERT_EQ(bucket.size(), heap.size());
      ASSERT_EQ(bucket.empty(), heap.empty());
    }
    // Drain: the full remaining order must agree.
    while (!heap.empty()) {
      ASSERT_FALSE(bucket.empty());
      ASSERT_EQ(bucket.pop().slot, heap.pop().slot);
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
        ASSERT_EQ(a.slot, b.slot) << "session " << session << " op " << op;
        last_pop = static_cast<std::uint64_t>(a.g);
      }
      ASSERT_EQ(bucket.size(), heap.size());
    }
    if (session % 2 == 1) continue;  // leave the rest for clear()
    while (!heap.empty()) ASSERT_EQ(bucket.pop().slot, heap.pop().slot);
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
      ASSERT_EQ(bucket.pop().slot, static_cast<grid::VertexId>(i)) << "key " << qkey;
      ASSERT_EQ(heap.pop().slot, static_cast<grid::VertexId>(i)) << "key " << qkey;
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
  EXPECT_EQ(q.pop().slot, 2u);
  EXPECT_EQ(q.pop().slot, 1u);
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

/// Window-local slots vs the grid's own vertex numbering, on random
/// windows of a base grid and of every tile view: the slot map must be a
/// bijection of window × layers onto [0, size()) that inverts exactly,
/// and each in-window neighbor — found through the grid's global ids and
/// loc() — must sit at the slot the search loop computes arithmetically
/// (±1, ±w, ±w·h).
TEST(WindowSlots, SlotMapMatchesGridOracleOnBaseAndViews) {
  const db::Design design = benchgen::generate(test::sized_case(40, 55, 7));
  const grid::RoutingGrid base(design);
  const shard::TilePlan plan(design.die(), 4);
  std::vector<std::unique_ptr<grid::GridView>> views;
  for (int t = 0; t < plan.num_tiles(); ++t)
    views.push_back(std::make_unique<grid::GridView>(base, plan.tile(t)));

  util::Rng rng(11);
  const int layers = base.num_layers();
  auto check = [&](const grid::RoutingGrid& g, const geom::Rect& raw) {
    const SlotMap map(raw.intersected(g.bounds()), layers);
    const geom::Rect& win = map.window();
    ASSERT_EQ(map.size(), win.valid() ? static_cast<std::uint32_t>(win.area() * layers) : 0u);
    std::vector<char> seen(map.size(), 0);
    for (int l = 0; l < layers; ++l)
      for (int y = win.lo.y; y <= win.hi.y; ++y)
        for (int x = win.lo.x; x <= win.hi.x; ++x) {
          const grid::VertexId v = g.vertex(l, x, y);
          const grid::VertexLoc at = g.loc(v);
          ASSERT_TRUE(map.contains(at));
          const std::uint32_t s = map.slot(at);
          ASSERT_LT(s, map.size());
          ASSERT_FALSE(seen[s]) << "slot " << s << " hit twice";
          seen[s] = 1;
          ASSERT_EQ(map.loc(s), at);
          for (int d = 0; d < grid::kNumDirs; ++d) {
            const auto dir = static_cast<grid::Dir>(d);
            const grid::VertexId u = g.neighbor(v, dir);
            if (u == grid::kInvalidVertex || !map.contains(g.loc(u))) continue;
            const std::uint32_t stride = grid::is_via(dir) ? map.plane()
                                         : (dir == grid::Dir::North ||
                                            dir == grid::Dir::South)
                                             ? map.width()
                                             : 1u;
            const bool up = dir == grid::Dir::East || dir == grid::Dir::North ||
                            dir == grid::Dir::Up;
            const std::uint32_t su = up ? s + stride : s - stride;
            ASSERT_EQ(map.slot(g.loc(u)), su);
            ASSERT_EQ(map.loc(su), g.loc(u));
          }
        }
    // Every slot was hit: the map is onto [0, size()).
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
              static_cast<std::ptrdiff_t>(map.size()));
    // Just outside the window (and outside the layer range) maps nothing.
    EXPECT_FALSE(map.contains({0, win.lo.x - 1, win.lo.y}));
    EXPECT_FALSE(map.contains({0, win.hi.x, win.hi.y + 1}));
    EXPECT_FALSE(map.contains({layers, win.lo.x, win.lo.y}));
  };
  const geom::Rect die = design.die();
  for (int trial = 0; trial < 40; ++trial) {
    // Random windows, some overhanging the grid so the clamp is exercised.
    const int x0 = rng.next_int(-4, die.hi.x);
    const int y0 = rng.next_int(-4, die.hi.y);
    const geom::Rect raw{x0, y0, x0 + rng.next_int(0, 24), y0 + rng.next_int(0, 24)};
    check(base, raw);
    check(*views[static_cast<size_t>(trial) % views.size()], raw);
  }
  check(base, die);  // the degenerate whole-die window
}

/// One arena serving windows of alternating size and origin — several
/// slot mappings over the same arrays, on the base grid and on a tile
/// view — must reproduce fresh per-session searches exactly, and a new
/// session must never see a live label or target left behind by an
/// earlier session under a different mapping.
TEST(SearchArenaReuse, WindowsOfDifferentShapeShareOneArena) {
  const db::Design design = benchgen::generate(test::sized_case(40, 55, 42));
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();
  const grid::RoutingGrid base(design);
  const grid::GridView view(base, {0, 0, 23, 23});

  core::RouterConfig cfg;
  core::SearchArena arena;
  core::ColorSearch on_base(base, cfg, arena);
  core::ColorSearch on_view(view, cfg, arena);

  const auto universe = core::ColorState::universe(base.tech().rules().num_masks);
  // Inflations from tight to die-sized; the sequence alternates large and
  // small so consecutive sessions never share a mapping.
  const int inflations[] = {40, 1, 12, 0, 25, 3};
  std::size_t max_slots = 0;
  auto drive = [&](core::ColorSearch& search, const grid::RoutingGrid& g,
                   db::NetId id, int inflate, bool check_stale) {
    const db::Net& net = design.net(id);
    search.begin_net(id, &guides[static_cast<size_t>(id)],
                     net.bbox().inflated(inflate));
    const geom::Rect win = search.window();
    if (check_stale) {
      // Nothing is labeled yet: every in-window vertex reads fresh even
      // though the arena's stamps come from other windows' slots.
      for (int l = 0; l < g.num_layers(); ++l)
        for (int y = win.lo.y; y <= win.hi.y; ++y)
          for (int x = win.lo.x; x <= win.hi.x; ++x) {
            const grid::VertexId v = g.vertex(l, x, y);
            EXPECT_FALSE(search.visited(v));
            EXPECT_EQ(search.target_pin(v), -1);
          }
    }
    max_slots = std::max(max_slots, static_cast<std::size_t>(win.area()) *
                                        static_cast<std::size_t>(g.num_layers()));
    for (const auto& pin : net.pins)
      for (const grid::VertexId v : g.pin_vertices(pin))
        if (&pin == &net.pins.front())
          search.add_source(v, universe);
        else
          search.add_target(v, 1);
    const grid::VertexId dst = search.search();
    std::vector<std::uint64_t> fp{dst, search.relaxations()};
    if (dst != grid::kInvalidVertex) {
      fp.push_back(static_cast<std::uint64_t>(search.cost(dst) * 1024.0));
      fp.push_back(search.state(dst).bits());
      for (grid::VertexId v = dst; v != grid::kInvalidVertex; v = search.prev(v))
        fp.push_back(v);
    }
    return fp;
  };

  int sessions = 0;
  for (int i = 0; i < 240; ++i) {
    const db::NetId id = static_cast<db::NetId>(i % design.num_nets());
    const int inflate = inflations[i % 6];
    const bool check_stale = i < 60;
    {
      core::ColorSearch fresh(base, cfg);
      const auto got = drive(on_base, base, id, inflate, check_stale);
      ASSERT_EQ(got, drive(fresh, base, id, inflate, false)) << "base session " << i;
      ++sessions;
    }
    // Nets whose pins lie inside the view also search the view's window
    // (clamped to the tile) on the same arena.
    const geom::Rect box = design.net(id).bbox();
    if (view.bounds().contains(box)) {
      core::ColorSearch fresh(view, cfg);
      const auto got = drive(on_view, view, id, inflate, check_stale);
      ASSERT_EQ(got, drive(fresh, view, id, inflate, false)) << "view session " << i;
      ++sessions;
    }
  }
  EXPECT_GT(sessions, 240);  // some nets did exercise the view
  // The arena grew to the largest window it served, never beyond.
  EXPECT_EQ(arena.cost.size(), max_slots);
}

/// Deterministic memory gate: a router run on a die much larger than its
/// nets' windows leaves every search arena — the serial search's and each
/// tile worker's — no larger than the biggest routed window × layers, far
/// below the die's vertex count.
TEST(SearchArenaReuse, ArenaIsWindowSized) {
  // 64 short 2-pin nets scattered 24 tracks apart over a 192 x 192 die:
  // each window is a few dozen tracks on a side.
  db::Design design("local", db::Tech::make_default(3, 2), {0, 0, 191, 191});
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) {
      const db::NetId n = design.add_net("n" + std::to_string(i * 8 + j));
      db::Pin p;
      p.layer = 0;
      p.shapes = {{24 * i + 4, 24 * j + 5, 24 * i + 4, 24 * j + 5}};
      design.add_pin(n, p);
      p.shapes = {{24 * i + 11, 24 * j + 9, 24 * i + 11, 24 * j + 9}};
      design.add_pin(n, p);
    }
  design.validate();

  for (const auto [threads, tiles] : {std::pair{1, 1}, std::pair{2, 4}}) {
    grid::RoutingGrid grid(design);
    core::RouterConfig cfg;
    cfg.rrr_threads = threads;
    cfg.shard_tiles = tiles;
    core::MrTplRouter router(design, nullptr, cfg);
    (void)router.run(grid);
    ASSERT_EQ(router.stats().failed_nets, 0);  // no window was ever widened

    std::int64_t largest_window = 0;
    for (db::NetId id = 0; id < design.num_nets(); ++id)
      largest_window = std::max(
          largest_window,
          design.net(id).bbox().inflated(cfg.search_margin).intersected(design.die()).area());
    const auto bound = static_cast<std::size_t>(largest_window * grid.num_layers());
    EXPECT_GT(router.stats().arena_slots, 0u);
    EXPECT_LE(router.stats().arena_slots, bound)
        << "threads " << threads << " tiles " << tiles;
    EXPECT_LT(router.stats().arena_slots * 50, grid.num_vertices());
  }
}

}  // namespace
}  // namespace mrtpl
