#include "drc/checker.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <utility>

#include "util/strings.hpp"

namespace mrtpl::drc {

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kOutOfGrid: return "out-of-grid";
    case ViolationKind::kOpenNet: return "open-net";
    case ViolationKind::kNonAdjacentStep: return "non-adjacent-step";
    case ViolationKind::kOwnershipMismatch: return "ownership-mismatch";
    case ViolationKind::kBlockedVertex: return "blocked-vertex";
    case ViolationKind::kMissingMask: return "missing-mask";
    case ViolationKind::kSpuriousMask: return "spurious-mask";
    case ViolationKind::kOverlap: return "overlap";
  }
  return "unknown";
}

int DrcReport::count(ViolationKind kind) const {
  int n = 0;
  for (const auto& v : violations) n += v.kind == kind ? 1 : 0;
  return n;
}

std::string DrcReport::summary() const {
  std::map<std::string, int> by_kind;
  for (const auto& v : violations) ++by_kind[to_string(v.kind)];
  std::string out;
  for (const auto& [name, n] : by_kind)
    out += util::format("%s: %d\n", name.c_str(), n);
  return out;
}

namespace {

/// True when `a` and `b` are neighbors in the 6-direction grid topology.
bool adjacent(const grid::RoutingGrid& grid, grid::VertexId a, grid::VertexId b) {
  const auto nbrs = grid.neighbors(a);
  return std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end();
}

/// A (vertex, route index) claim packed so that sorting orders by vertex,
/// then route index.
std::uint64_t pack_claim(grid::VertexId v, std::size_t route) {
  return (static_cast<std::uint64_t>(v) << 32) | static_cast<std::uint32_t>(route);
}
grid::VertexId claim_vertex(std::uint64_t c) {
  return static_cast<grid::VertexId>(c >> 32);
}
std::size_t claim_route(std::uint64_t c) { return static_cast<std::uint32_t>(c); }

class Verifier {
 public:
  Verifier(const grid::RoutingGrid& grid, const db::Design& design,
           const grid::Solution& solution, const DrcOptions& options)
      : grid_(grid), design_(design), solution_(solution), options_(options) {}

  DrcReport run() {
    collect_vertices();
    const auto& routes = solution_.routes;
    for (std::size_t r = 0; r < routes.size(); ++r) {
      if (full()) break;
      if (routes[r].empty()) continue;
      check_route(routes[r], vertices_of(r));
    }
    if (options_.check_overlap || options_.check_ownership) collect_claims();
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

  /// Every route's vertices() — sorted, unique — computed once, back to
  /// back in one array: route r owns [offsets_[r], offsets_[r + 1]).
  void collect_vertices() {
    offsets_.reserve(solution_.routes.size() + 1);
    offsets_.push_back(0);
    for (const auto& route : solution_.routes) {
      const auto begin = static_cast<std::ptrdiff_t>(verts_.size());
      for (const auto& path : route.paths)
        verts_.insert(verts_.end(), path.begin(), path.end());
      std::sort(verts_.begin() + begin, verts_.end());
      verts_.erase(std::unique(verts_.begin() + begin, verts_.end()), verts_.end());
      offsets_.push_back(verts_.size());
    }
  }

  [[nodiscard]] std::span<const grid::VertexId> vertices_of(std::size_t r) const {
    return {verts_.data() + offsets_[r], offsets_[r + 1] - offsets_[r]};
  }

  /// Every (vertex, route) claim, sorted by vertex then route. Out-of-grid
  /// ids sort past every grid vertex and need no special case.
  void collect_claims() {
    claims_.reserve(verts_.size());
    for (std::size_t r = 0; r + 1 < offsets_.size(); ++r)
      for (const grid::VertexId v : vertices_of(r)) claims_.push_back(pack_claim(v, r));
    std::sort(claims_.begin(), claims_.end());
  }

  void check_route(const grid::NetRoute& route, std::span<const grid::VertexId> verts) {
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
                          std::span<const grid::VertexId> verts) {
    // The net id is as untrusted as the vertex ids: one outside the
    // design has no pins to check against.
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
    const std::uint32_t connected = first_component_size(route, verts);
    if (connected != verts.size()) {
      add(ViolationKind::kOpenNet, route.net, grid::kInvalidVertex,
          util::format("tree has %zu of %zu vertices connected",
                       static_cast<std::size_t>(connected), verts.size()));
      return;
    }
    // Every pin must contribute at least one tree vertex (all of `verts`
    // is connected by now).
    const db::Net& net = design_.net(route.net);
    for (size_t p = 0; p < net.pins.size(); ++p) {
      const auto pin_verts = grid_.pin_vertices(net.pins[p]);
      const bool covered =
          std::any_of(pin_verts.begin(), pin_verts.end(), [&](grid::VertexId v) {
            return std::binary_search(verts.begin(), verts.end(), v);
          });
      if (!covered && !pin_verts.empty())
        add(ViolationKind::kOpenNet, route.net, pin_verts.front(),
            util::format("pin %zu not reached", p));
    }
  }

  /// Number of route vertices connected to verts[0] through the route's
  /// path steps *plus* grid adjacency between route vertices: pin metal
  /// enters solutions as singleton paths, and same-net metal that abuts on
  /// the grid is electrically connected without an explicit path edge.
  /// Union-find over local indices into the sorted `verts`; grid-adjacent
  /// pairs are found by merging `verts` against itself shifted by the
  /// East, North and Up id strides.
  std::uint32_t first_component_size(const grid::NetRoute& route,
                                     std::span<const grid::VertexId> verts) {
    const auto m = static_cast<std::uint32_t>(verts.size());
    parent_.resize(m);
    std::iota(parent_.begin(), parent_.end(), 0u);
    size_.assign(m, 1);
    for (const auto& path : route.paths) {
      std::uint32_t prev = m;
      for (const grid::VertexId v : path) {
        const auto it = std::lower_bound(verts.begin(), verts.end(), v);
        const auto local = static_cast<std::uint32_t>(it - verts.begin());
        if (prev != m) unite(prev, local);
        prev = local;
      }
    }
    const grid::VertexId plane = static_cast<grid::VertexId>(grid_.size_x()) *
                                 static_cast<grid::VertexId>(grid_.size_y());
    const std::array<std::pair<grid::Dir, grid::VertexId>, 3> strides = {
        {{grid::Dir::East, 1},
         {grid::Dir::North, static_cast<grid::VertexId>(grid_.size_x())},
         {grid::Dir::Up, plane}}};
    for (const auto& [dir, stride] : strides) {
      std::uint32_t j = 0;
      for (std::uint32_t i = 0; i < m; ++i) {
        const grid::VertexId u = verts[i] + stride;
        if (u < verts[i]) break;  // id overflow: no neighbour this way
        while (j < m && verts[j] < u) ++j;
        if (j == m) break;
        if (verts[j] == u && grid_.neighbor(verts[i], dir) == u) unite(i, j);
      }
    }
    return size_[find(0)];
  }

  std::uint32_t find(std::uint32_t i) {
    while (parent_[i] != i) i = parent_[i] = parent_[parent_[i]];
    return i;
  }

  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

  /// The reverse of the per-path ownership check: every *wire* vertex the
  /// grid says is committed must be claimed by its owner's solution. Stale
  /// commits left behind by buggy rip-up ("phantom metal") radiate color
  /// conflicts while being invisible in the solution object. The owner
  /// scan walks the die in vertex order, merged against the sorted claims.
  void check_phantom_metal() {
    const auto n = grid_.num_vertices();
    std::size_t c = 0;
    for (grid::VertexId v = 0; v < n; ++v) {
      if (full()) return;
      if (grid_.owner(v) == db::kNoNet || grid_.is_pin_vertex(v)) continue;
      while (c < claims_.size() && claim_vertex(claims_[c]) < v) ++c;
      if (c == claims_.size() || claim_vertex(claims_[c]) != v)
        add(ViolationKind::kOwnershipMismatch, grid_.owner(v), v,
            "phantom metal: committed but unclaimed by any route");
    }
  }

  void check_overlaps() {
    // A vertex's first net is that of its lowest-index claiming route; any
    // later claim by a different net is an overlap (shorts are impossible
    // in the grid's committed state, so this validates the *solution
    // object* against double-booking). Violations are reported in route,
    // then vertex order.
    struct Hit {
      std::uint64_t key;  ///< (route, vertex), packed to sort in that order
      db::NetId first;
    };
    std::vector<Hit> hits;
    const auto& routes = solution_.routes;
    for (std::size_t i = 0; i < claims_.size();) {
      const grid::VertexId v = claim_vertex(claims_[i]);
      const db::NetId first = routes[claim_route(claims_[i])].net;
      for (++i; i < claims_.size() && claim_vertex(claims_[i]) == v; ++i) {
        const std::size_t r = claim_route(claims_[i]);
        if (routes[r].net != first)
          hits.push_back({(static_cast<std::uint64_t>(r) << 32) | v, first});
      }
    }
    std::sort(hits.begin(), hits.end(),
              [](const Hit& a, const Hit& b) { return a.key < b.key; });
    for (const Hit& h : hits) {
      if (full()) return;
      const auto v = static_cast<grid::VertexId>(h.key);
      add(ViolationKind::kOverlap, h.first, v, "vertex used by two nets",
          routes[h.key >> 32].net);
    }
  }

  const grid::RoutingGrid& grid_;
  const db::Design& design_;
  const grid::Solution& solution_;
  DrcOptions options_;
  DrcReport report_;

  std::vector<grid::VertexId> verts_;    ///< all routes' vertices()
  std::vector<std::size_t> offsets_;     ///< route r's slice of verts_
  std::vector<std::uint64_t> claims_;    ///< sorted (vertex, route) claims
  // Connectivity union-find, reused across routes (sized to one route).
  std::vector<std::uint32_t> parent_, size_;
};

}  // namespace

DrcReport verify(const grid::RoutingGrid& grid, const db::Design& design,
                 const grid::Solution& solution, const DrcOptions& options) {
  return Verifier(grid, design, solution, options).run();
}

}  // namespace mrtpl::drc
