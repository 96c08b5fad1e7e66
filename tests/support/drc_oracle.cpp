#include "support/drc_oracle.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.hpp"

namespace mrtpl::test {

namespace {

using drc::DrcOptions;
using drc::DrcReport;
using drc::ViolationKind;

/// True when `a` and `b` are neighbors in the 6-direction grid topology.
bool adjacent(const grid::RoutingGrid& grid, grid::VertexId a, grid::VertexId b) {
  for (int d = 0; d < grid::kNumDirs; ++d)
    if (grid.neighbor(a, static_cast<grid::Dir>(d)) == b) return true;
  return false;
}

class Verifier {
 public:
  Verifier(const grid::RoutingGrid& grid, const db::Design& design,
           const grid::Solution& solution, const DrcOptions& options)
      : grid_(grid), design_(design), solution_(solution), options_(options) {}

  DrcReport run() {
    for (const auto& route : solution_.routes) {
      if (full()) break;
      if (route.empty()) continue;
      check_route(route);
    }
    if (options_.check_overlap) check_overlaps();
    if (options_.check_ownership) check_phantom_metal();
    return std::move(report_);
  }

 private:
  [[nodiscard]] bool full() const {
    return options_.max_violations > 0 &&
           static_cast<int>(report_.violations.size()) >= options_.max_violations;
  }

  void add(ViolationKind kind, db::NetId net, grid::VertexId v, std::string detail,
           db::NetId other = db::kNoNet) {
    if (full()) return;
    report_.violations.push_back({kind, net, other, v, std::move(detail)});
  }

  void check_route(const grid::NetRoute& route) {
    // Solutions are untrusted input (they may come off disk): a vertex id
    // outside the grid would index out of bounds in every check below, so
    // gate on id validity first and stop checking a corrupt route.
    bool ids_in_grid = true;
    for (const auto& path : route.paths)
      for (const grid::VertexId v : path)
        if (v >= grid_.num_vertices()) {
          add(ViolationKind::kOutOfGrid, route.net, v,
              util::format("vertex id %u outside grid", v));
          ids_in_grid = false;
        }
    if (!ids_in_grid) return;

    const auto verts = route.vertices();

    for (const auto& path : route.paths) {
      for (size_t i = 0; i < path.size(); ++i) {
        const grid::VertexId v = path[i];
        if (options_.check_adjacency && i > 0 && path[i - 1] != v &&
            !adjacent(grid_, path[i - 1], v))
          add(ViolationKind::kNonAdjacentStep, route.net, v,
              util::format("path step %zu not a grid move", i));
        if (options_.check_blockage && grid_.blocked(v))
          add(ViolationKind::kBlockedVertex, route.net, v, "path on obstacle");
        if (options_.check_ownership && grid_.owner(v) != route.net)
          add(ViolationKind::kOwnershipMismatch, route.net, v,
              util::format("grid owner is %d", grid_.owner(v)));
      }
    }

    if (options_.check_coloring) {
      for (const grid::VertexId v : verts) {
        const bool tpl = grid_.tech().is_tpl_layer(grid_.loc(v).layer);
        const grid::Mask m = grid_.mask(v);
        if (tpl && route.routed && m == grid::kNoMask)
          add(ViolationKind::kMissingMask, route.net, v, "uncolored TPL metal");
        if (!tpl && m != grid::kNoMask)
          add(ViolationKind::kSpuriousMask, route.net, v,
              "mask on single-patterned layer");
      }
    }

    if (options_.check_connectivity && route.routed)
      check_connectivity(route, verts);
  }

  void check_connectivity(const grid::NetRoute& route,
                          const std::vector<grid::VertexId>& verts) {
    // The one guard added to the original: a net id outside the design
    // has no pins to check, so it is reported instead of indexed.
    if (route.net < 0 || route.net >= design_.num_nets()) {
      add(ViolationKind::kOpenNet, route.net, grid::kInvalidVertex,
          util::format("net id %d not in design", route.net));
      return;
    }
    if (verts.empty()) {
      add(ViolationKind::kOpenNet, route.net, grid::kInvalidVertex,
          "routed net with no vertices");
      return;
    }
    // BFS over the route's edge set *plus* grid adjacency between route
    // vertices: pin metal enters solutions as singleton paths, and
    // same-net metal that abuts on the grid is electrically connected
    // without an explicit path edge.
    std::unordered_map<grid::VertexId, std::vector<grid::VertexId>> adj;
    for (const auto& [a, b] : route.edges()) {
      adj[a].push_back(b);
      adj[b].push_back(a);
    }
    const std::unordered_set<grid::VertexId> vset(verts.begin(), verts.end());
    std::unordered_set<grid::VertexId> seen{verts.front()};
    std::queue<grid::VertexId> frontier;
    frontier.push(verts.front());
    while (!frontier.empty()) {
      const grid::VertexId v = frontier.front();
      frontier.pop();
      if (const auto it = adj.find(v); it != adj.end())
        for (const grid::VertexId u : it->second)
          if (seen.insert(u).second) frontier.push(u);
      for (int d = 0; d < grid::kNumDirs; ++d) {
        const grid::VertexId u = grid_.neighbor(v, static_cast<grid::Dir>(d));
        if (u != grid::kInvalidVertex && vset.contains(u) && seen.insert(u).second)
          frontier.push(u);
      }
    }
    if (seen.size() != verts.size()) {
      add(ViolationKind::kOpenNet, route.net, grid::kInvalidVertex,
          util::format("tree has %zu of %zu vertices connected", seen.size(),
                       verts.size()));
      return;
    }
    // Every pin must contribute at least one tree vertex.
    const db::Net& net = design_.net(route.net);
    for (size_t p = 0; p < net.pins.size(); ++p) {
      const auto pin_verts = grid_.pin_vertices(net.pins[p]);
      const bool covered = std::any_of(
          pin_verts.begin(), pin_verts.end(),
          [&](grid::VertexId v) { return seen.contains(v); });
      if (!covered && !pin_verts.empty())
        add(ViolationKind::kOpenNet, route.net,
            pin_verts.empty() ? grid::kInvalidVertex : pin_verts.front(),
            util::format("pin %zu not reached", p));
    }
  }

  /// The reverse of the per-path ownership check: every *wire* vertex the
  /// grid says is committed must be claimed by its owner's solution. Stale
  /// commits left behind by buggy rip-up ("phantom metal") radiate color
  /// conflicts while being invisible in the solution object.
  void check_phantom_metal() {
    std::unordered_set<grid::VertexId> claimed;
    for (const auto& route : solution_.routes)
      for (const grid::VertexId v : route.vertices()) claimed.insert(v);
    const auto n = grid_.num_vertices();
    for (grid::VertexId v = 0; v < n; ++v) {
      if (full()) return;
      if (grid_.owner(v) == db::kNoNet || grid_.is_pin_vertex(v)) continue;
      if (!claimed.contains(v))
        add(ViolationKind::kOwnershipMismatch, grid_.owner(v), v,
            "phantom metal: committed but unclaimed by any route");
    }
  }

  void check_overlaps() {
    // Vertex -> first net seen; any second net is an overlap (shorts are
    // impossible in the grid's committed state, so this validates the
    // *solution object* against double-booking).
    std::unordered_map<grid::VertexId, db::NetId> used;
    for (const auto& route : solution_.routes) {
      if (route.empty()) continue;
      for (const grid::VertexId v : route.vertices()) {
        const auto [it, inserted] = used.emplace(v, route.net);
        if (!inserted && it->second != route.net) {
          if (full()) return;
          add(ViolationKind::kOverlap, it->second, v, "vertex used by two nets",
              route.net);
        }
      }
    }
  }

  const grid::RoutingGrid& grid_;
  const db::Design& design_;
  const grid::Solution& solution_;
  DrcOptions options_;
  DrcReport report_;
};

}  // namespace

drc::DrcReport drc_oracle_verify(const grid::RoutingGrid& grid,
                                 const db::Design& design,
                                 const grid::Solution& solution,
                                 const drc::DrcOptions& options) {
  return Verifier(grid, design, solution, options).run();
}

}  // namespace mrtpl::test
