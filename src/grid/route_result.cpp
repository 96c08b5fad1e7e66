#include "grid/route_result.hpp"

#include <algorithm>
#include <cassert>

namespace mrtpl::grid {

std::vector<VertexId> NetRoute::vertices() const {
  std::vector<VertexId> out;
  for (const auto& path : paths) out.insert(out.end(), path.begin(), path.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::pair<VertexId, VertexId>> NetRoute::edges() const {
  std::vector<std::pair<VertexId, VertexId>> out;
  for (const auto& path : paths) {
    for (size_t i = 1; i < path.size(); ++i) {
      const VertexId a = std::min(path[i - 1], path[i]);
      const VertexId b = std::max(path[i - 1], path[i]);
      out.emplace_back(a, b);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int Solution::num_routed() const {
  int n = 0;
  for (const auto& r : routes) n += r.routed ? 1 : 0;
  return n;
}

int Solution::num_failed() const {
  return static_cast<int>(routes.size()) - num_routed();
}

int Solution::num_partial() const {
  int n = 0;
  for (const auto& r : routes)
    if (r.disposition == NetDisposition::kPartial) ++n;
  return n;
}

int Solution::num_skipped() const {
  int n = 0;
  for (const auto& r : routes)
    if (r.disposition == NetDisposition::kSkipped) ++n;
  return n;
}

const char* to_string(NetDisposition d) {
  switch (d) {
    case NetDisposition::kRouted: return "routed";
    case NetDisposition::kFailed: return "failed";
    case NetDisposition::kPartial: return "partial";
    case NetDisposition::kSkipped: return "skipped";
  }
  return "unknown";
}

void commit_route(RoutingGrid& grid, const NetRoute& route,
                  const std::vector<Mask>& masks) {
  const auto verts = route.vertices();
  assert(masks.empty() || masks.size() == verts.size());
  for (size_t i = 0; i < verts.size(); ++i)
    grid.commit(verts[i], route.net, masks.empty() ? kNoMask : masks[i]);
}

void release_route(RoutingGrid& grid, const NetRoute& route) {
  for (const VertexId v : route.vertices()) grid.release(v);
}

int count_route_stitches(const RoutingGrid& grid,
                         std::span<const std::pair<VertexId, VertexId>> edges) {
  int stitches = 0;
  for (const auto& [a, b] : edges) {
    const VertexLoc la = grid.loc(a);
    const VertexLoc lb = grid.loc(b);
    if (la.layer != lb.layer) continue;  // via: mask change is free
    if (!grid.tech().is_tpl_layer(la.layer)) continue;  // single-patterned
    const Mask ma = grid.mask(a);
    const Mask mb = grid.mask(b);
    if (ma != kNoMask && mb != kNoMask && ma != mb) ++stitches;
  }
  return stitches;
}

int count_stitches(const RoutingGrid& grid, const Solution& solution) {
  int stitches = 0;
  for (const auto& route : solution.routes)
    stitches += count_route_stitches(grid, route.edges());
  return stitches;
}

}  // namespace mrtpl::grid
