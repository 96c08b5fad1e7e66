#include "baseline/dac12_router.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "util/logger.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace mrtpl::baseline {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;
}  // namespace

Dac12Router::Dac12Router(const db::Design& design, const global::GuideSet* guides,
                         core::RouterConfig config)
    : design_(design), guides_(guides), config_(config) {}

void Dac12Router::touch(Node n) {
  if (stamp_[n] != epoch_) {
    stamp_[n] = epoch_;
    cost_[n] = kInf;
    prev_[n] = std::numeric_limits<Node>::max();
    closed_[n] = 0;
  }
}

grid::NetRoute Dac12Router::route_net(grid::RoutingGrid& grid, db::NetId net_id) {
  const auto& rules = grid.tech().rules();
  const double beta = config_.beta_override >= 0 ? config_.beta_override : rules.beta;
  const double gamma = rules.gamma;

  const int num_masks = rules.num_masks;  // 2 = DPL mode, 3 = TPL

  const db::Net& net = design_.net(net_id);
  grid::NetRoute route;
  route.net = net_id;

  if (cost_.empty()) {
    const size_t n = static_cast<size_t>(grid.num_vertices()) * kExp;
    cost_.assign(n, kInf);
    prev_.assign(n, std::numeric_limits<Node>::max());
    stamp_.assign(n, 0);
    closed_.assign(n, 0);
  }

  std::vector<std::vector<grid::VertexId>> pin_verts;
  for (const auto& pin : net.pins) pin_verts.push_back(grid.pin_vertices(pin));
  for (const auto& verts : pin_verts)
    if (verts.empty()) return route;

  const global::NetGuide* guide = nullptr;
  geom::Rect window = net.bbox();
  if (guides_ != nullptr && net_id < static_cast<db::NetId>(guides_->size())) {
    guide = &(*guides_)[static_cast<size_t>(net_id)];
    if (!guide->boxes.empty()) window = window.united(guide->bbox());
  }
  window = window.inflated(config_.search_margin).intersected(design_.die());

  // --- 2-pin decomposition: connect pins nearest-first to the tree. ----
  // Tree state: vertex -> committed mask (kNoMask while uncolored pin metal).
  std::unordered_map<grid::VertexId, grid::Mask> tree;
  for (const grid::VertexId v : pin_verts[0]) tree.emplace(v, grid::kNoMask);

  std::vector<bool> reached(net.pins.size(), false);
  reached[0] = true;

  auto pin_center = [&](size_t p) {
    return net.pins[p].bbox().center();
  };

  for (size_t round = 1; round < net.pins.size(); ++round) {
    // Nearest unreached pin to the current tree bbox (cheap heuristic for
    // the baseline's MST-style decomposition).
    geom::Rect tree_box{grid.loc(tree.begin()->first).x, grid.loc(tree.begin()->first).y,
                        grid.loc(tree.begin()->first).x, grid.loc(tree.begin()->first).y};
    for (const auto& [v, _] : tree) {
      const auto l = grid.loc(v);
      tree_box = tree_box.united({l.x, l.y, l.x, l.y});
    }
    size_t best_pin = 0;
    int best_dist = std::numeric_limits<int>::max();
    for (size_t p = 0; p < net.pins.size(); ++p) {
      if (reached[p]) continue;
      const int d = tree_box.manhattan_to(pin_center(p));
      if (d < best_dist) {
        best_dist = d;
        best_pin = p;
      }
    }

    // --- expanded-graph Dijkstra: tree -> best_pin -------------------
    ++epoch_;
    using Item = std::pair<double, Node>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;

    for (const auto& [v, m] : tree) {
      (void)m;
      for (int mask = 0; mask < num_masks; ++mask) {
        // Every mask seeds at cost 0, *including* at already-colored tree
        // metal: each 2-pin subnet is routed and colored independently of
        // the frozen tree, exactly the behaviour Fig. 1(c) of the paper
        // criticizes. The search never sees the junction mismatch — the
        // evaluator does, as a stitch (or the mismatch radiates a
        // conflict the one-pass flow cannot repair).
        for (int arr = 0; arr < kArr; ++arr) {
          const Node n = node(v, mask, arr);
          touch(n);
          cost_[n] = 0.0;
          pq.push({0.0, n});
        }
      }
    }
    if (target_stamp_.size() != grid.num_vertices())
      target_stamp_.assign(grid.num_vertices(), 0);
    ++target_epoch_;
    for (const grid::VertexId v : pin_verts[best_pin]) target_stamp_[v] = target_epoch_;
    const auto is_target = [&](grid::VertexId v) {
      return target_stamp_[v] == target_epoch_;
    };

    Node dst = std::numeric_limits<Node>::max();
    while (!pq.empty()) {
      const auto [c, n] = pq.top();
      pq.pop();
      if (stamp_[n] != epoch_ || closed_[n] || c > cost_[n] + kEps) continue;
      const grid::VertexId v = vertex_of(n);
      if (is_target(v)) {
        dst = n;
        break;
      }
      closed_[n] = 1;
      const int mask = mask_of(n);
      const grid::VertexLoc from_loc = grid.loc(v);

      for (int d = 0; d < grid::kNumDirs; ++d) {
        const auto dir = static_cast<grid::Dir>(d);
        const grid::VertexId u = grid.neighbor(v, dir);
        if (u == grid::kInvalidVertex || grid.blocked(u)) continue;
        const db::NetId owner = grid.owner(u);
        if (owner != db::kNoNet && owner != net_id) continue;
        const grid::VertexLoc to_loc = grid.loc(u);
        if (!window.contains({to_loc.x, to_loc.y})) continue;

        double trad;
        if (grid::is_via(dir)) {
          trad = rules.via_cost;
        } else {
          trad = rules.wire_cost;
          if (!grid.is_preferred(from_loc.layer, dir)) trad += rules.wrong_way_cost;
        }
        if (guide != nullptr && !guide->boxes.empty() &&
            !guide->covers({to_loc.x, to_loc.y}))
          trad += rules.out_of_guide_cost;
        trad += grid.history(u);
        trad *= rules.alpha;

        const int arr_new = grid::is_via(dir) ? static_cast<int>(n % kArr) : d;
        // One window scan covering all three masks (not one per mask).
        int counts[kMasks] = {0, 0, 0};
        if (grid.tech().is_tpl_layer(to_loc.layer))
          grid.for_each_colored_neighbor(
              u, net_id,
              [&counts](grid::VertexId, db::NetId, grid::Mask m) { ++counts[m]; });
        for (int m2 = 0; m2 < num_masks; ++m2) {
          double cc = trad + gamma * counts[m2];
          if (!grid::is_via(dir) && m2 != mask) cc += beta;  // stitch
          const Node nn = node(u, m2, arr_new);
          touch(nn);
          ++relax_count_;
          if (cost_[n] + cc < cost_[nn] - kEps) {
            cost_[nn] = cost_[n] + cc;
            prev_[nn] = n;
            pq.push({cost_[nn], nn});
          }
        }
      }
    }

    if (dst == std::numeric_limits<Node>::max()) {
      util::warn("dac12", util::format("net %s: pin unreachable", net.name.c_str()));
      route.routed = false;
      // Commit partial tree.
      for (const auto& [v, m] : tree)
        grid.commit(v, net_id,
                    grid.tech().is_tpl_layer(grid.loc(v).layer) ? m : grid::kNoMask);
      stats_.relaxations += relax_count_;
      // Reset like the success path below does: without it the next net's
      // relaxations were double-counted after any unreachable pin.
      relax_count_ = 0;
      return route;
    }

    // Backtrace nodes -> (vertex, mask) path; commit masks immediately
    // (the defining behaviour: colors freeze per 2-pin connection).
    std::vector<grid::VertexId> path;
    for (Node n = dst;; n = prev_[n]) {
      const grid::VertexId v = vertex_of(n);
      const auto mask = static_cast<grid::Mask>(mask_of(n));
      if (path.empty() || path.back() != v) path.push_back(v);
      auto it = tree.find(v);
      if (it == tree.end()) {
        tree.emplace(v, mask);
      } else if (it->second == grid::kNoMask) {
        it->second = mask;  // pin metal picks up the wire's color
      }
      if (prev_[n] == std::numeric_limits<Node>::max()) break;
    }
    reached[best_pin] = true;
    for (const grid::VertexId v : pin_verts[best_pin]) {
      if (!tree.contains(v)) {
        // Pin metal joins with the color of the arriving wire.
        tree.emplace(v, static_cast<grid::Mask>(mask_of(dst)));
        route.paths.push_back({v});
      }
    }
    route.paths.push_back(std::move(path));
  }

  // Any remaining uncolored pin-0 metal: adopt the first path's junction
  // color (or red for isolated metal).
  for (auto& [v, m] : tree)
    if (m == grid::kNoMask) m = 0;
  for (const grid::VertexId v : pin_verts[0]) route.paths.push_back({v});

  for (const auto& [v, m] : tree)
    grid.commit(v, net_id,
                grid.tech().is_tpl_layer(grid.loc(v).layer) ? m : grid::kNoMask);
  stats_.relaxations += relax_count_;
  relax_count_ = 0;
  route.routed = true;
  return route;
}

grid::Solution Dac12Router::run(grid::RoutingGrid& grid) {
  util::Timer timer;
  stats_ = Dac12Stats{};
  grid::Solution solution;
  solution.routes.resize(static_cast<size_t>(design_.num_nets()));

  std::vector<db::NetId> order(static_cast<size_t>(design_.num_nets()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](db::NetId a, db::NetId b) {
    const auto ba = design_.net(a).bbox();
    const auto bb = design_.net(b).bbox();
    const int ha = ba.width() + ba.height() + 4 * design_.net(a).degree();
    const int hb = bb.width() + bb.height() + 4 * design_.net(b).degree();
    return ha < hb;
  });

  for (const db::NetId id : order)
    solution.routes[static_cast<size_t>(id)] = route_net(grid, id);

  for (int iter = 0; iter < config_.max_rrr_iterations; ++iter) {
    const auto conflicts = core::detect_conflicts(grid);
    stats_.conflicts_per_iter.push_back(static_cast<int>(conflicts.size()));
    std::vector<db::NetId> failed;
    for (const auto& r : solution.routes)
      if (!r.routed && r.net != db::kNoNet) failed.push_back(r.net);
    const bool rip_conflicts = config_.rrr_on_color_conflicts;
    if ((conflicts.empty() || !rip_conflicts) && failed.empty()) break;
    stats_.rrr_iterations = iter + 1;
    std::vector<char> rip(static_cast<size_t>(design_.num_nets()), 0);
    const double hist = grid.tech().rules().history_increment;
    if (rip_conflicts) {
      for (const auto& c : conflicts) {
        rip[static_cast<size_t>(c.net_a)] = 1;
        rip[static_cast<size_t>(c.net_b)] = 1;
        for (const auto& [v, u] : c.pairs) {
          grid.add_history(v, hist);
          grid.add_history(u, hist);
        }
      }
    }
    for (const db::NetId id : failed) {
      rip[static_cast<size_t>(id)] = 1;
      for (const db::NetId b :
           core::blockers_of(grid, design_, id, config_.search_margin))
        rip[static_cast<size_t>(b)] = 1;
    }
    std::vector<db::NetId> ripped;
    for (const db::NetId id : failed) {
      ripped.push_back(id);
      rip[static_cast<size_t>(id)] = 2;
    }
    for (const db::NetId id : order)
      if (rip[static_cast<size_t>(id)] == 1) ripped.push_back(id);
    if (ripped.empty()) break;
    for (const db::NetId id : ripped)
      grid::release_route(grid, solution.routes[static_cast<size_t>(id)]);
    for (const db::NetId id : ripped)
      solution.routes[static_cast<size_t>(id)] = route_net(grid, id);
  }
  if (static_cast<int>(stats_.conflicts_per_iter.size()) == config_.max_rrr_iterations)
    stats_.conflicts_per_iter.push_back(static_cast<int>(core::detect_conflicts(grid).size()));

  for (const auto& r : solution.routes)
    if (!r.routed) ++stats_.failed_nets;
  stats_.runtime_s = timer.elapsed_s();
  return solution;
}

}  // namespace mrtpl::baseline
