#include "core/conflict.hpp"

#include <algorithm>
#include <unordered_map>

namespace mrtpl::core {

std::vector<std::pair<grid::VertexId, grid::VertexId>> violation_pairs(
    const grid::RoutingGrid& grid) {
  std::vector<std::pair<grid::VertexId, grid::VertexId>> pairs;
  const auto n = grid.num_vertices();
  for (grid::VertexId v = 0; v < n; ++v) {
    const db::NetId a = grid.owner(v);
    if (a == db::kNoNet) continue;
    const grid::Mask m = grid.mask(v);
    if (m == grid::kNoMask) continue;
    grid.for_each_colored_neighbor(
        v, a, [&](grid::VertexId u, db::NetId, grid::Mask other) {
          // Visit each unordered pair once.
          if (u > v && other == m) pairs.emplace_back(v, u);
        });
  }
  return pairs;
}

namespace {

/// Union-find over a compacted vertex-id domain, with union by size so a
/// pathological conflict cluster (every violating vertex linked to every
/// other) stays near-linear instead of degrading to long find chains.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }
  int find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[static_cast<size_t>(a)] < size_[static_cast<size_t>(b)]) std::swap(a, b);
    parent_[static_cast<size_t>(b)] = a;
    size_[static_cast<size_t>(a)] += size_[static_cast<size_t>(b)];
  }

 private:
  std::vector<int> parent_;
  std::vector<int> size_;
};

/// One net-pair-normalized violating pair: (net_a < net_b, va on the a
/// side, vb on the b side). The flat-vector record the sweep sorts.
struct PairRec {
  db::NetId net_a;
  db::NetId net_b;
  grid::VertexId va;
  grid::VertexId vb;

  friend bool operator<(const PairRec& l, const PairRec& r) {
    if (l.net_a != r.net_a) return l.net_a < r.net_a;
    if (l.net_b != r.net_b) return l.net_b < r.net_b;
    if (l.va != r.va) return l.va < r.va;
    return l.vb < r.vb;
  }
};

/// Cluster one net pair's violating pairs (recs[lo, hi)) into connected
/// violating regions and append one Conflict per region.
void cluster_group(const grid::RoutingGrid& grid, const std::vector<PairRec>& recs,
                   size_t lo, size_t hi, std::vector<Conflict>& out) {
  // Compact the vertices touched by this net pair.
  std::unordered_map<grid::VertexId, int> index;
  auto id_of = [&](grid::VertexId v) {
    const auto [it, inserted] = index.emplace(v, static_cast<int>(index.size()));
    (void)inserted;
    return it->second;
  };
  for (size_t i = lo; i < hi; ++i) {
    id_of(recs[i].va);
    id_of(recs[i].vb);
  }
  UnionFind uf(index.size());
  // A violating pair links its two sides; additionally, violating
  // vertices that are mutually within the window belong to the same
  // physical region, so long parallel runs collapse to one conflict.
  std::vector<grid::VertexId> verts;
  verts.reserve(index.size());
  for (const auto& [v, _] : index) verts.push_back(v);
  std::sort(verts.begin(), verts.end());
  for (size_t i = lo; i < hi; ++i) uf.unite(id_of(recs[i].va), id_of(recs[i].vb));
  const int window = grid.dcolor();
  for (size_t i = 0; i < verts.size(); ++i) {
    const grid::VertexLoc li = grid.loc(verts[i]);
    for (size_t j = i + 1; j < verts.size(); ++j) {
      const grid::VertexLoc lj = grid.loc(verts[j]);
      if (lj.layer != li.layer) continue;
      if (geom::chebyshev({li.x, li.y}, {lj.x, lj.y}) <= window)
        uf.unite(id_of(verts[i]), id_of(verts[j]));
    }
  }
  // Emit one Conflict per component, in order of first appearance.
  std::unordered_map<int, size_t> comp_to_idx;
  for (size_t i = lo; i < hi; ++i) {
    const int root = uf.find(id_of(recs[i].va));
    auto it = comp_to_idx.find(root);
    if (it == comp_to_idx.end()) {
      it = comp_to_idx.emplace(root, out.size()).first;
      out.push_back({recs[lo].net_a, recs[lo].net_b, {}});
    }
    out[it->second].pairs.emplace_back(recs[i].va, recs[i].vb);
  }
}

}  // namespace

std::vector<Conflict> cluster_conflicts(
    const grid::RoutingGrid& grid,
    const std::vector<std::pair<grid::VertexId, grid::VertexId>>& pairs) {
  // Sort-then-sweep over a flat record vector: grouping by net pair used
  // to be a std::map of vectors — a hot-path allocation sink when
  // ConflictIndex::conflicts runs every RRR iteration.
  std::vector<PairRec> recs;
  recs.reserve(pairs.size());
  for (const auto& [v, u] : pairs) {
    db::NetId a = grid.owner(v), b = grid.owner(u);
    auto pv = v, pu = u;
    if (a > b) {
      std::swap(a, b);
      std::swap(pv, pu);
    }
    recs.push_back({a, b, pv, pu});
  }
  std::sort(recs.begin(), recs.end());

  std::vector<Conflict> conflicts;
  size_t lo = 0;
  while (lo < recs.size()) {
    size_t hi = lo + 1;
    while (hi < recs.size() && recs[hi].net_a == recs[lo].net_a &&
           recs[hi].net_b == recs[lo].net_b)
      ++hi;
    cluster_group(grid, recs, lo, hi, conflicts);
    lo = hi;
  }
  return conflicts;
}

std::vector<Conflict> detect_conflicts(const grid::RoutingGrid& grid) {
  return cluster_conflicts(grid, violation_pairs(grid));
}

std::vector<db::NetId> blockers_of(const grid::RoutingGrid& grid,
                                   const db::Design& design, db::NetId net,
                                   int margin) {
  const geom::Rect window =
      design.net(net).bbox().inflated(margin).intersected(design.die());
  std::vector<char> seen(static_cast<size_t>(design.num_nets()), 0);
  std::vector<db::NetId> out;
  for (int layer = 0; layer < grid.num_layers(); ++layer) {
    for (int y = window.lo.y; y <= window.hi.y; ++y) {
      for (int x = window.lo.x; x <= window.hi.x; ++x) {
        const db::NetId owner = grid.owner(grid.vertex(layer, x, y));
        if (owner == db::kNoNet || owner == net) continue;
        if (!seen[static_cast<size_t>(owner)]) {
          seen[static_cast<size_t>(owner)] = 1;
          out.push_back(owner);
        }
      }
    }
  }
  return out;
}

}  // namespace mrtpl::core
