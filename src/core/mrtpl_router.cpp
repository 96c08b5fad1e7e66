#include "core/mrtpl_router.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <optional>

#include "core/conflict_index.hpp"
#include "geom/spatial_grid.hpp"
#include "grid/grid_view.hpp"
#include "shard/tile_plan.hpp"
#include "util/fault_injector.hpp"
#include "util/logger.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mrtpl::core {

MrTplRouter::MrTplRouter(const db::Design& design, const global::GuideSet* guides,
                         RouterConfig config)
    : design_(design), guides_(guides), config_(config) {}

std::vector<db::NetId> route_order(const db::Design& design,
                                   std::vector<db::NetId> nets) {
  std::vector<std::pair<int, db::NetId>> keyed;
  keyed.reserve(nets.size());
  for (const db::NetId id : nets) {
    // Dead nets (zero pins — ECO tombstones) own no metal and are never
    // routed; begin_run marks their solution entries trivially routed.
    if (id < 0 || id >= design.num_nets()) continue;
    const db::Net& net = design.net(id);
    if (net.degree() == 0) continue;
    const geom::Rect box = net.bbox();
    keyed.emplace_back(box.width() + box.height() + 4 * net.degree(), id);
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.erase(std::unique(keyed.begin(), keyed.end()), keyed.end());
  nets.clear();
  for (const auto& [h, id] : keyed) nets.push_back(id);
  return nets;
}

std::vector<grid::VertexId> MrTplRouter::backtrace(const grid::RoutingGrid& grid,
                                                   ColorSearch& search,
                                                   SegSetPool& pool,
                                                   grid::VertexId dst) {
  // Algorithm 3. The walk runs from the reached pin's vertex back along
  // prev pointers; tree vertices were seeded with prev == invalid, so the
  // loop naturally stops at the junction with the routed tree.
  std::vector<grid::VertexId> path;
  grid::VertexId v = dst;
  while (v != grid::kInvalidVertex) {
    path.push_back(v);

    // Lines 3–6: a vertex without a verSet gets a fresh verSet + segSet
    // carrying its search-time color state.
    VerSetId vs = pool.verset_of(v);
    if (vs == kNoVerSet) {
      vs = pool.make_verset(search.state(v));
      pool.attach(v, vs);
    }

    const grid::VertexId prev = search.prev(v);
    if (prev == grid::kInvalidVertex) break;

    // A via edge is a free color change: masks are per-layer, so segments
    // on different layers color independently — no merge, no stitch.
    if (grid.loc(prev).layer != grid.loc(v).layer) {
      v = prev;
      continue;
    }
    const ColorState v_state = pool.state_of(vs);
    // The predecessor's effective state: its segSet state when already
    // attached (tree vertex), else its search label.
    const VerSetId prev_vs = pool.verset_of(prev);
    const ColorState prev_state =
        prev_vs != kNoVerSet ? pool.state_of(prev_vs) : search.state(prev);

    // Lines 7–16: merge when the two vertices share a candidate color;
    // otherwise a stitch separates them and prev starts its own segSet on
    // the next iteration. In both branches the surviving segSet state is
    // the *intersection* — a verSet's state must hold at every member, or
    // the final single color would conflict at the members whose argmin
    // set excluded it.
    if (v_state.has_common(prev_state)) {
      const ColorState common = v_state.intersected(prev_state);
      if (prev_vs == kNoVerSet) {
        pool.attach(prev, vs);                           // line 9: same verSet
        pool.change_state(pool.segset_of(vs), common);
      } else {
        const SegSetId root = pool.merge(vs, prev_vs);   // line 14
        pool.change_state(root, common);                 // line 13
      }
    }
    v = prev;
  }
  return path;
}

MrTplRouter::SearchScope MrTplRouter::net_scope(db::NetId net_id) const {
  SearchScope scope;
  scope.window = design_.net(net_id).bbox();
  if (guides_ != nullptr && net_id < static_cast<db::NetId>(guides_->size())) {
    const global::NetGuide& guide = (*guides_)[static_cast<size_t>(net_id)];
    if (!guide.boxes.empty()) {
      scope.guide = &guide;
      scope.window = scope.window.united(guide.bbox());
    }
  }
  int margin = config_.search_margin;
  if (net_id < static_cast<db::NetId>(extra_margin_.size()))
    margin += extra_margin_[static_cast<size_t>(net_id)];
  scope.window = scope.window.inflated(margin).intersected(design_.die());
  return scope;
}

MrTplRouter::RouteOutcome MrTplRouter::compute_route(const grid::RoutingGrid& grid,
                                                     ColorSearch& search,
                                                     db::NetId net_id) const {
  const db::Net& net = design_.net(net_id);
  RouteOutcome outcome;
  grid::NetRoute& route = outcome.route;
  route.net = net_id;

  // A dead net (zero pins) is trivially routed: nothing to connect,
  // nothing to commit.
  if (net.pins.empty()) {
    route.routed = true;
    route.disposition = grid::NetDisposition::kRouted;
    return outcome;
  }

  // Fault site kSearchFail: report the net unroutable without searching.
  // Keyed by net id so the decision is independent of thread scheduling,
  // and firing at most once per net so the RRR retry demonstrates
  // recovery (the net routes on its next attempt).
  if (util::FaultInjector::enabled() &&
      util::FaultInjector::instance().should_fail(
          util::FaultSite::kSearchFail, static_cast<std::uint64_t>(net_id))) {
    util::warn("mrtpl", util::format("net %s: injected search failure",
                                     net.name.c_str()));
    return outcome;  // routed=false, disposition kFailed: RRR retries it
  }

  // Pin access vertices.
  std::vector<std::vector<grid::VertexId>> pin_verts;
  pin_verts.reserve(net.pins.size());
  for (const auto& pin : net.pins) pin_verts.push_back(grid.pin_vertices(pin));
  for (const auto& verts : pin_verts) {
    if (verts.empty()) {
      util::warn("mrtpl", util::format("net %s: pin with no accessible vertices",
                                       net.name.c_str()));
      return outcome;  // unroutable by construction
    }
  }

  // Search window: net bbox ∪ guide bbox, inflated.
  const SearchScope scope = net_scope(net_id);
  const global::NetGuide* guide = scope.guide;

  search.begin_net(net_id, guide, scope.window);

  // Algorithm 1 lines 1–8: pin 0's vertices are the initial sources with
  // color state 111.
  SegSetPool pool;
  const ColorState universe = ColorState::universe(grid.tech().rules().num_masks);
  for (const grid::VertexId v : pin_verts[0]) search.add_source(v, universe);
  std::vector<bool> reached(net.pins.size(), false);
  reached[0] = true;
  for (size_t p = 1; p < pin_verts.size(); ++p)
    for (const grid::VertexId v : pin_verts[p]) search.add_target(v, static_cast<int>(p));

  int remaining = static_cast<int>(net.pins.size()) - 1;
  while (remaining > 0) {
    const grid::VertexId dst = search.search();  // Algorithm 2
    if (dst == grid::kInvalidVertex) {
      if (search.interrupted()) {
        // Budget deadline/cancel tripped mid-search: not a routability
        // verdict. The tree built so far still commits (consistent
        // layout), marked partial for the degraded-run report.
        route.disposition = grid::NetDisposition::kPartial;
      } else {
        util::warn("mrtpl", util::format("net %s: %d pin(s) unreachable",
                                         net.name.c_str(), remaining));
        route.disposition = grid::NetDisposition::kFailed;
      }
      break;
    }
    const int pin = search.target_pin(dst);
    assert(pin >= 0 && !reached[static_cast<size_t>(pin)]);

    // Algorithm 3: trace, merge color states, collect the path.
    std::vector<grid::VertexId> path = backtrace(grid, search, pool, dst);

    // Re-seed the tree (Algorithm 3 lines 17–18): every path vertex
    // becomes a zero-cost source carrying its segSet state.
    for (const grid::VertexId v : path)
      search.add_source(v, pool.state_of(pool.verset_of(v)));

    // The reached pin's metal joins the tree: same verSet as dst. Pin
    // vertices enter the route as their own single-vertex paths so that
    // edges() never fabricates adjacency between non-neighboring vertices.
    reached[static_cast<size_t>(pin)] = true;
    search.clear_targets_of_pin(pin);
    const VerSetId dst_vs = pool.verset_of(dst);
    for (const grid::VertexId v : pin_verts[static_cast<size_t>(pin)]) {
      if (pool.verset_of(v) == kNoVerSet) pool.attach(v, dst_vs);
      search.add_source(v, pool.state_of(dst_vs));
      route.paths.push_back({v});
    }
    route.paths.push_back(std::move(path));
    --remaining;
  }
  if (remaining == 0) {
    // Pin 0's metal belongs to the tree as well. The first backtrace ended
    // on one of pin 0's vertices (the initial sources), which therefore
    // already carries a verSet; attach the rest of the pin's metal to it
    // so the whole pin receives a mask consistent with the wire leaving it.
    VerSetId pin0_vs = kNoVerSet;
    for (const grid::VertexId v : pin_verts[0])
      if (pool.verset_of(v) != kNoVerSet) {
        pin0_vs = pool.verset_of(v);
        break;
      }
    if (pin0_vs == kNoVerSet) pin0_vs = pool.make_verset(universe);
    for (const grid::VertexId v : pin_verts[0]) {
      if (pool.verset_of(v) == kNoVerSet) pool.attach(v, pin0_vs);
      route.paths.push_back({v});
    }
    route.routed = true;
    route.disposition = grid::NetDisposition::kRouted;
  }

  // A net that stopped short keeps its partial tree: colors are chosen for
  // what exists so the layout stays consistent for other nets once
  // committed.
  outcome.relaxations = search.relaxations();
  choose_colors(grid, pool, net_id, route, outcome.colors);
  outcome.has_read_near = search.anything_touched();
  if (outcome.has_read_near)
    outcome.read_near =
        search.touched_bbox().inflated(1).intersected(search.window());
  outcome.has_read_tpl = search.anything_tpl_touched();
  if (outcome.has_read_tpl)
    outcome.read_tpl = search.tpl_touched_bbox().inflated(grid.dcolor());
  return outcome;
}

MrTplRouter::RouteOutcome MrTplRouter::compute_route_guarded(
    const grid::RoutingGrid& grid, ColorSearch& search, db::NetId net_id) const {
  try {
    return compute_route(grid, search, net_id);
  } catch (const std::exception& e) {
    util::warn("mrtpl",
               util::format("net %s: routing threw (%s); marking failed",
                            design_.net(net_id).name.c_str(), e.what()));
    RouteOutcome outcome;
    outcome.route.net = net_id;
    return outcome;  // routed=false, kFailed — retried by a later iteration
  }
}

grid::NetRoute MrTplRouter::route_net(grid::RoutingGrid& grid, ColorSearch& search,
                                      db::NetId net_id) {
  RouteOutcome outcome = compute_route(grid, search, net_id);
  apply_outcome(grid, outcome);
  return std::move(outcome.route);
}

void MrTplRouter::apply_outcome(grid::RoutingGrid& grid, const RouteOutcome& outcome) {
  for (const auto& [v, m] : outcome.colors) grid.commit(v, outcome.route.net, m);
  stats_.relaxations += outcome.relaxations;
}

void MrTplRouter::choose_colors(
    const grid::RoutingGrid& grid, SegSetPool& pool, db::NetId net_id,
    const grid::NetRoute& route,
    std::vector<std::pair<grid::VertexId, grid::Mask>>& colors) const {
  if (!config_.enable_coloring) {
    for (const auto& [v, vs] : pool.attachments())
      colors.emplace_back(v, grid::kNoMask);
    return;
  }
  // Group attachments by segSet root.
  std::unordered_map<SegSetId, std::vector<grid::VertexId>> groups;
  for (const auto& [v, vs] : pool.attachments())
    groups[pool.segset_of(vs)].push_back(v);

  // segSet adjacency over same-layer tree edges: every boundary whose two
  // sides end on different masks is a stitch, so color choice below
  // prefers aligning with already-colored neighbor segSets.
  std::unordered_map<SegSetId, std::vector<SegSetId>> adjacent;
  for (const auto& [a, b] : route.edges()) {
    const VerSetId va = pool.verset_of(a);
    const VerSetId vb = pool.verset_of(b);
    if (va == kNoVerSet || vb == kNoVerSet) continue;
    if (grid.loc(a).layer != grid.loc(b).layer) continue;  // via: free
    const SegSetId ra = pool.segset_of(va);
    const SegSetId rb = pool.segset_of(vb);
    if (ra == rb) continue;
    adjacent[ra].push_back(rb);
    adjacent[rb].push_back(ra);
  }

  // Deterministic processing order (larger segSets first, then id).
  std::vector<SegSetId> order;
  order.reserve(groups.size());
  for (const auto& [root, _] : groups) order.push_back(root);
  std::sort(order.begin(), order.end(), [&](SegSetId a, SegSetId b) {
    const size_t sa = groups[a].size(), sb = groups[b].size();
    return sa != sb ? sa > sb : a < b;
  });

  const auto& rules = grid.tech().rules();
  const double beta = config_.beta_override >= 0 ? config_.beta_override : rules.beta;
  std::unordered_map<SegSetId, grid::Mask> committed_root_mask;
  for (const SegSetId root : order) {
    auto& members = groups[root];
    std::sort(members.begin(), members.end());
    // change_state with 111 intersects with the universe: a no-op read.
    const ColorState universe =
        ColorState::universe(grid.tech().rules().num_masks);
    ColorState state = pool.change_state(root, universe);
    if (state.empty()) state = universe;  // over-constrained: fall back

    // Final convergence to a single color (end of the backtracing phase):
    // sum the committed same-mask neighborhood over the segSet for every
    // mask in one window pass per member. Colors outside the state pay a
    // stitch-sized penalty — the search's argmin narrowing is a
    // preference, not a hard constraint, and a conflict (gamma) always
    // outweighs a stitch (beta).
    double counts[grid::kNumMasks] = {0, 0, 0};
    for (const grid::VertexId v : members)
      grid.for_each_colored_neighbor(
          v, net_id,
          [&counts](grid::VertexId, db::NetId, grid::Mask m) { counts[m] += 1.0; });
    grid::Mask best = 0;
    double best_penalty = std::numeric_limits<double>::infinity();
    for (grid::Mask c = 0; c < grid::kNumMasks; ++c) {
      if (!universe.contains(c)) continue;  // DPL: mask 2 unavailable
      double penalty = rules.gamma * counts[c];
      if (!state.contains(c)) penalty += beta;
      // Stitch alignment: every already-colored adjacent segSet of this
      // net on a different mask costs one stitch.
      const auto it = adjacent.find(root);
      if (it != adjacent.end()) {
        for (const SegSetId nb : it->second) {
          const auto cit = committed_root_mask.find(nb);
          if (cit != committed_root_mask.end() && cit->second != c) penalty += beta;
        }
      }
      if (penalty < best_penalty) {
        best = c;
        best_penalty = penalty;
      }
    }
    committed_root_mask[root] = best;
    for (const grid::VertexId v : members) {
      // Upper (single-patterned) layers carry no mask.
      const grid::Mask m =
          grid.tech().is_tpl_layer(grid.loc(v).layer) ? best : grid::kNoMask;
      colors.emplace_back(v, m);
    }
  }
}

namespace {

/// Iterate quality used to pick the best snapshot: conflicts are printing
/// failures and dominate, then stitches (yield), then a routability tax.
/// Ties in violations resolve toward the earlier (less detoured) iterate
/// because replacement below is strict.
double iterate_score(int conflicts, int stitches, int failed) {
  return 1e6 * failed + 1e4 * conflicts + 1e2 * stitches;
}

/// Budget skip: the net commits nothing and reports kSkipped.
void mark_skipped(grid::Solution& solution, db::NetId id) {
  grid::NetRoute& r = solution.routes[static_cast<size_t>(id)];
  r = grid::NetRoute{};
  r.net = id;
  r.disposition = grid::NetDisposition::kSkipped;
}

/// Bounding box of the vertices a commit list writes; empty list, no box.
std::optional<geom::Rect> colors_bbox(
    const grid::RoutingGrid& grid,
    const std::vector<std::pair<grid::VertexId, grid::Mask>>& colors) {
  std::optional<geom::Rect> box;
  for (const auto& [v, m] : colors) {
    const grid::VertexLoc l = grid.loc(v);
    const geom::Rect point{l.x, l.y, l.x, l.y};
    box = box ? box->united(point) : point;
  }
  return box;
}

/// A restorable copy of the committed layout: per-net routes plus the mask
/// of every routed vertex. Negotiated RRR is not monotonic — on heavily
/// congested cases history-cost detours can make a later iteration worse
/// than an earlier one — so the driver keeps the best iterate and restores
/// it at the end instead of returning whatever the last iteration left.
/// An infinite score marks an empty snapshot: nothing captured yet.
struct LayoutSnapshot {
  grid::Solution solution;
  std::vector<std::vector<grid::Mask>> masks;  ///< parallel to routes[i].vertices()
  double score = std::numeric_limits<double>::infinity();

  static LayoutSnapshot capture(const grid::RoutingGrid& grid,
                                const grid::Solution& solution, double score) {
    LayoutSnapshot snap;
    snap.solution = solution;
    snap.score = score;
    snap.masks.reserve(solution.routes.size());
    for (const auto& route : solution.routes) {
      std::vector<grid::Mask> route_masks;
      for (const grid::VertexId v : route.vertices())
        route_masks.push_back(grid.mask(v));
      snap.masks.push_back(std::move(route_masks));
    }
    return snap;
  }

  /// Replace the grid's committed state with this snapshot. `current` is
  /// the solution whose routes are committed *now* — releasing the
  /// snapshot's own routes instead would leave any vertex used only by
  /// the current iterate committed forever (phantom metal).
  void restore(grid::RoutingGrid& grid, const grid::Solution& current) const {
    for (const auto& route : current.routes) grid::release_route(grid, route);
    for (size_t i = 0; i < solution.routes.size(); ++i)
      grid::commit_route(grid, solution.routes[i], masks[i]);
  }
};

}  // namespace

struct MrTplRouter::Workers {
  Workers(const grid::RoutingGrid& grid, const RouterConfig& config,
          const BudgetTracker* budget)
      : pool(config.rrr_threads) {
    for (int i = 0; i < pool.size(); ++i) {
      arenas.push_back(std::make_unique<SearchArena>());
      searches.push_back(std::make_unique<ColorSearch>(grid, config, *arenas.back()));
      if (budget != nullptr) searches.back()->set_budget(budget);
    }
  }

  util::ThreadPool pool;
  // Arenas are declared before the searches that borrow them so they
  // outlive them; a worker's tile views borrow its arena too.
  std::vector<std::unique_ptr<SearchArena>> arenas;
  std::vector<std::unique_ptr<ColorSearch>> searches;
};

void MrTplRouter::route_list(grid::RoutingGrid& grid, ColorSearch& search,
                             Workers* workers, const std::vector<db::NetId>& nets,
                             grid::Solution& solution) {
  util::Timer timer;
  const std::uint64_t pass_relax_base = stats_.relaxations;
  // A budget already expired at pass start skips every net; the serial
  // branch does that without paying for a parallel dispatch.
  if (workers != nullptr && nets.size() > 1 &&
      !(budget_.active() && budget_.expired(stats_.relaxations))) {
    route_tiles(grid, search, *workers, nets, solution);
  } else {
    for (const db::NetId id : nets) {
      if (budget_.active() && budget_.expired(stats_.relaxations)) {
        mark_skipped(solution, id);
        continue;
      }
      RouteOutcome outcome = compute_route_guarded(grid, search, id);
      apply_outcome(grid, outcome);
      solution.routes[static_cast<size_t>(id)] = std::move(outcome.route);
    }
  }
  if (!nets.empty())
    stats_.relaxations_per_pass.push_back(stats_.relaxations - pass_relax_base);
  stats_.reroute_s += timer.elapsed_s();
}

void MrTplRouter::route_tiles(grid::RoutingGrid& grid, ColorSearch& search,
                              Workers& workers, const std::vector<db::NetId>& nets,
                              grid::Solution& solution) {
  // ---- 1. classify: interior-to-tile vs boundary pool -------------------
  const int halo = std::max(grid.dcolor(), 1);
  const shard::TilePlan plan(design_.die(), config_.shard_tiles);
  std::vector<int> tile_of(nets.size());
  std::vector<std::vector<size_t>> tile_nets(static_cast<size_t>(plan.num_tiles()));
  for (size_t k = 0; k < nets.size(); ++k) {
    tile_of[k] = plan.owner_of(net_scope(nets[k]).window, halo);
    if (tile_of[k] >= 0) tile_nets[static_cast<size_t>(tile_of[k])].push_back(k);
  }

  // One task per non-empty tile, then one per boundary net. tile < 0
  // marks a boundary task carrying its net-list index.
  struct ShardTask {
    int tile;
    size_t net;
  };
  std::vector<ShardTask> tasks;
  for (int t = 0; t < plan.num_tiles(); ++t)
    if (!tile_nets[static_cast<size_t>(t)].empty()) tasks.push_back({t, 0});
  for (size_t k = 0; k < nets.size(); ++k)
    if (tile_of[k] < 0) tasks.push_back({-1, k});

  // ---- 2. compute (nothing commits to the main grid) --------------------
  // Workers only read `grid` (compute_route is const; tile commits land in
  // the private view), so the shared grid IS the pass-start snapshot for
  // every task. Task-to-worker assignment only picks which arena warms up;
  // outcomes are slot-indexed and the per-tile order is the ripped order.
  // The guarded compute keeps a throwing worker (injected allocation
  // failure) from leaving its slot empty.
  std::vector<RouteOutcome> outcomes(nets.size());
  workers.pool.for_each(tasks.size(), [&](size_t t, int worker) {
    const ShardTask& task = tasks[t];
    const auto w = static_cast<size_t>(worker);
    if (task.tile < 0) {
      outcomes[task.net] =
          compute_route_guarded(grid, *workers.searches[w], nets[task.net]);
      return;
    }
    grid::GridView view(grid, plan.tile(task.tile));
    ColorSearch vsearch(view, config_, *workers.arenas[w]);
    if (budget_.active()) vsearch.set_budget(&budget_);
    for (const size_t k : tile_nets[static_cast<size_t>(task.tile)]) {
      outcomes[k] = compute_route_guarded(view, vsearch, nets[k]);
      for (auto& [v, m] : outcomes[k].colors) {
        view.commit(v, nets[k], m);
        v = view.to_base(v);
      }
      for (auto& path : outcomes[k].route.paths)
        for (grid::VertexId& v : path) v = view.to_base(v);
    }
  });

  // ---- 3. serial reconciliation in ripped order -------------------------
  geom::SpatialGrid applied_idx(design_.die(), 32);  // every applied commit
  geom::SpatialGrid hazard_idx(design_.die(), 32);   // commits views can't see
  for (size_t k = 0; k < nets.size(); ++k) {
    if (budget_.active() && budget_.expired(stats_.relaxations)) {
      // expired() is monotone within the walk, so every later net skips
      // too — no view ever validated against a skipped predecessor's
      // phantom commit, hence no hazard entry is needed here.
      stats_.wasted_relaxations += outcomes[k].relaxations;
      mark_skipped(solution, nets[k]);
      continue;
    }
    ++stats_.speculated;
    const bool interior = tile_of[k] >= 0;
    const geom::SpatialGrid& idx = interior ? hazard_idx : applied_idx;
    bool stale =
        (outcomes[k].has_read_near && idx.any_overlap(outcomes[k].read_near)) ||
        (outcomes[k].has_read_tpl && idx.any_overlap(outcomes[k].read_tpl));
    // Fault site kSpecInvalidate: force the serial redo path; the redo
    // recomputes against the exact serial-prefix state, so output is
    // unchanged — the site exercises the redo path, it does not perturb
    // results.
    if (util::FaultInjector::enabled() &&
        util::FaultInjector::instance().should_fail(
            util::FaultSite::kSpecInvalidate))
      stale = true;

    bool diverged = false;
    std::optional<geom::Rect> spec_box;
    if (stale) {
      ++stats_.respeculated;
      stats_.wasted_relaxations += outcomes[k].relaxations;
      const std::vector<std::pair<grid::VertexId, grid::Mask>> spec_colors =
          std::move(outcomes[k].colors);
      outcomes[k] = compute_route_guarded(grid, search, nets[k]);
      diverged = outcomes[k].colors != spec_colors;
      // The speculative metal is what later same-tile views saw; when the
      // redo diverges, its bbox becomes a hazard alongside the commit.
      if (diverged) spec_box = colors_bbox(grid, spec_colors);
    }

    const std::optional<geom::Rect> commit_box = colors_bbox(grid, outcomes[k].colors);
    apply_outcome(grid, outcomes[k]);
    if (commit_box) {
      applied_idx.insert(static_cast<std::uint32_t>(k), *commit_box);
      // Hazards for later interior nets: commits their views could not
      // contain. Interior commits applied as-speculated are what the view
      // held (same tile) or provably disjoint (other tiles) — not hazards.
      if (!interior || diverged)
        hazard_idx.insert(static_cast<std::uint32_t>(k), *commit_box);
    }
    if (spec_box) hazard_idx.insert(static_cast<std::uint32_t>(k), *spec_box);
    solution.routes[static_cast<size_t>(nets[k])] = std::move(outcomes[k].route);
  }
}

void MrTplRouter::begin_run(const RouteBudget& budget, grid::Solution& solution) {
  stats_ = RouterStats{};
  budget_.arm(budget);
  extra_margin_.assign(static_cast<size_t>(design_.num_nets()), 0);
  solution.routes.resize(static_cast<size_t>(design_.num_nets()));
  // Dead nets never enter route_order() and own no metal (an ECO removal's
  // was released by the caller); mark them trivially routed so the
  // failed-net count and the dispositions stay honest.
  for (const auto& net : design_.nets()) {
    if (!net.pins.empty()) continue;
    grid::NetRoute& r = solution.routes[static_cast<size_t>(net.id)];
    r = grid::NetRoute{};
    r.net = net.id;
    r.routed = true;
    r.disposition = grid::NetDisposition::kRouted;
  }
}

void MrTplRouter::rrr_loop(grid::RoutingGrid& grid, ColorSearch& search,
                           Workers* workers, ConflictIndex& index,
                           grid::Solution& solution) {
  auto detect = [&] {
    util::Timer t;
    auto conflicts = index.conflicts();
    stats_.detect_s += t.elapsed_s();
    return conflicts;
  };
  auto failed_nets = [&] {
    std::vector<db::NetId> failed;
    for (const auto& r : solution.routes)
      if (!r.routed && r.net != db::kNoNet) failed.push_back(r.net);
    return failed;
  };

  // Lazy keep-best: the grid's iterate is compared with `best` as it is
  // reached, but only copied into `best` just before a rip moves the grid
  // off it. Until something has been captured there is nothing to compare
  // with, so the first iterate wins unscored — a loop that never rips (a
  // clean ECO apply) never copies, re-scores or restores the layout.
  LayoutSnapshot best;
  bool grid_is_best = false;   // the grid holds the best iterate so far
  bool considered = false;     // ... as of the grid's current iterate
  std::optional<double> grid_score;
  const auto score_grid = [&](std::size_t conflicts, std::size_t failed) {
    return iterate_score(static_cast<int>(conflicts),
                         grid::count_stitches(grid, solution),
                         static_cast<int>(failed));
  };
  const auto consider = [&](std::size_t conflicts, std::size_t failed) {
    considered = true;
    grid_score.reset();
    if (best.score == std::numeric_limits<double>::infinity()) {
      grid_is_best = true;
      return;
    }
    grid_score = score_grid(conflicts, failed);
    grid_is_best = *grid_score < best.score;
  };

  // Fig. 2 left column: conflict detection + rip-up & reroute with
  // history cost, bounded by max iterations. Blockage failures (a pin
  // walled in by earlier nets) are handled the same way: the blockers in
  // the failed net's window are ripped and the failed net retries first.
  for (int iter = 0; iter < config_.max_rrr_iterations; ++iter) {
    if (budget_.active() && budget_.expired(stats_.relaxations)) break;
    const auto conflicts = detect();
    stats_.conflicts_per_iter.push_back(static_cast<int>(conflicts.size()));
    const std::vector<db::NetId> failed = failed_nets();
    consider(conflicts.size(), failed.size());
    if (conflicts.empty() && failed.empty()) break;
    stats_.rrr_iterations = iter + 1;

    // History update on every violating vertex, then rip the nets involved.
    std::vector<char> rip(static_cast<size_t>(design_.num_nets()), 0);
    const double hist = grid.tech().rules().history_increment;
    for (const auto& c : conflicts) {
      rip[static_cast<size_t>(c.net_a)] = 1;
      rip[static_cast<size_t>(c.net_b)] = 1;
      for (const auto& [v, u] : c.pairs) {
        grid.add_history(v, hist);
        grid.add_history(u, hist);
      }
    }
    // Progressive window widening: a net that failed inside its clamped
    // window retries with double the margin, up to the whole die — the
    // escape valve for blockage labyrinths whose only opening lies far
    // outside the bbox. Deterministic (depends only on the failure
    // history), so the configuration invariance is unaffected.
    const int margin_cap =
        std::max(design_.die().width(), design_.die().height());
    for (const db::NetId id : failed) {
      int& extra = extra_margin_[static_cast<size_t>(id)];
      extra = std::min(margin_cap,
                       extra == 0 ? config_.search_margin : 2 * extra);
      rip[static_cast<size_t>(id)] = 1;
      // The blocker sweep must cover the same widened window the retry
      // will search: a narrow choke point (maze slot) plugged by earlier
      // nets can sit far outside the original margin, and unless those
      // owners are ripped the retry finds it hard-blocked forever.
      for (const db::NetId b :
           blockers_of(grid, design_, id, config_.search_margin + extra))
        rip[static_cast<size_t>(b)] = 1;
    }
    std::vector<db::NetId> ripped = failed;  // failed nets reroute first, into free space
    for (const db::NetId id : failed) rip[static_cast<size_t>(id)] = 2;
    std::vector<db::NetId> others;
    for (db::NetId id = 0; id < design_.num_nets(); ++id)
      if (rip[static_cast<size_t>(id)] == 1) others.push_back(id);
    for (const db::NetId id : route_order(design_, std::move(others)))
      ripped.push_back(id);
    if (ripped.empty()) break;
    if (grid_is_best) {
      best = LayoutSnapshot::capture(
          grid, solution,
          grid_score ? *grid_score : score_grid(conflicts.size(), failed.size()));
      grid_is_best = false;
    }
    for (const db::NetId id : ripped)
      grid::release_route(grid, solution.routes[static_cast<size_t>(id)]);
    route_list(grid, search, workers, ripped, solution);
    considered = false;
    // A success retires the net's widened window: the widening is an
    // escape valve for one failure episode, and letting it stick made
    // every later rip of the net search a window up to the whole die.
    // Depends only on routed flags, so configuration invariance holds.
    for (const db::NetId id : ripped)
      if (solution.routes[static_cast<size_t>(id)].routed)
        extra_margin_[static_cast<size_t>(id)] = 0;
  }
  // Judge the state the loop ended on (the per-iteration check above sees
  // each state *before* its reroute, so the last reroute's result is still
  // unjudged), then restore the best iterate unless the grid holds it.
  {
    const auto conflicts = detect();
    if (static_cast<int>(stats_.conflicts_per_iter.size()) == config_.max_rrr_iterations)
      stats_.conflicts_per_iter.push_back(static_cast<int>(conflicts.size()));
    if (!considered) consider(conflicts.size(), failed_nets().size());
  }
  if (!grid_is_best) {
    best.restore(grid, solution);
    solution = best.solution;
  }

  // Status AFTER the best-restore: the returned routes are the best
  // iterate, and their dispositions describe exactly that iterate (an
  // earlier, fully-routed iterate legitimately carries no partial or
  // skipped markers even on a degraded run).
  const bool degraded = budget_.active() && budget_.tripped();
  solution.status =
      degraded ? grid::SolutionStatus::kDegraded : grid::SolutionStatus::kComplete;
  stats_.budget_hit = degraded;
  for (const auto& r : solution.routes)
    if (!r.routed && r.net != db::kNoNet) ++stats_.failed_nets;
}

grid::Solution MrTplRouter::run(grid::RoutingGrid& grid, const RouteBudget& budget) {
  util::Timer timer;
  grid::Solution solution;
  begin_run(budget, solution);
  ColorSearch search(grid, config_);
  if (budget_.active()) search.set_budget(&budget_);

  // Incremental conflict engine: subscribes to the grid's dirty log so
  // each detection pass costs O(rip delta × window), not O(die).
  // Constructed before any commit so its log sees every change since the
  // empty grid.
  ConflictIndex index(grid);

  // The tile walk needs both a pool and a die tiling; any other
  // configuration routes serially.
  std::unique_ptr<Workers> workers;
  if (config_.rrr_threads > 1 && config_.shard_tiles > 1)
    workers = std::make_unique<Workers>(grid, config_,
                                        budget_.active() ? &budget_ : nullptr);

  // Fig. 2 middle column: route every net once.
  std::vector<db::NetId> all(static_cast<size_t>(design_.num_nets()));
  std::iota(all.begin(), all.end(), 0);
  route_list(grid, search, workers.get(), route_order(design_, std::move(all)),
             solution);

  rrr_loop(grid, search, workers.get(), index, solution);

  if (stats_.budget_hit)
    util::warn("mrtpl",
               util::format("budget expired: stopping after %d RRR iteration(s) "
                            "(%d partial, %d skipped net(s) in returned iterate)",
                            stats_.rrr_iterations, solution.num_partial(),
                            solution.num_skipped()));
  stats_.arena_slots = search.arena_slots();
  if (workers != nullptr)
    for (const auto& arena : workers->arenas)
      stats_.arena_slots = std::max(stats_.arena_slots, arena->cost.size());
  stats_.runtime_s = timer.elapsed_s();
  return solution;
}

grid::SolutionStatus MrTplRouter::reroute(grid::RoutingGrid& grid,
                                          ConflictIndex& index,
                                          const std::vector<db::NetId>& dirty,
                                          grid::Solution& solution,
                                          const RouteBudget& budget) {
  util::Timer timer;
  begin_run(budget, solution);
  ColorSearch search(grid, config_);
  if (budget_.active()) search.set_budget(&budget_);

  // Worklist: the dirty nets in global heuristic order (dedup'd, dead and
  // out-of-range ids dropped). Sessions are strictly serial — no workers —
  // so live apply and journal replay walk the identical code path.
  const std::vector<db::NetId> work = route_order(design_, dirty);

  // The localized RRR loop: same policy as run(), seeded by the edit's
  // delta. Conflicts and failures can only arise where the edit touched
  // (the pre-edit state was an accepted iterate), so ripping stays local
  // in practice while remaining globally correct.
  route_list(grid, search, nullptr, work, solution);
  rrr_loop(grid, search, nullptr, index, solution);
  stats_.arena_slots = search.arena_slots();
  stats_.runtime_s = timer.elapsed_s();
  return solution.status;
}

}  // namespace mrtpl::core
