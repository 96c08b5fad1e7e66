#include "session/invariant_audit.hpp"

#include <algorithm>
#include <utility>

#include "core/conflict.hpp"
#include "util/strings.hpp"

namespace mrtpl::session {

namespace {

constexpr std::size_t kMaxProblems = 16;

void note(AuditReport* rep, std::string msg) {
  rep->ok = false;
  if (rep->problems.size() < kMaxProblems)
    rep->problems.push_back(std::move(msg));
  else if (rep->problems.size() == kMaxProblems)
    rep->problems.push_back("... further problems suppressed");
}

std::vector<std::pair<grid::VertexId, grid::VertexId>> normalized(
    std::vector<std::pair<grid::VertexId, grid::VertexId>> pairs) {
  for (auto& p : pairs)
    if (p.second < p.first) std::swap(p.first, p.second);
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

}  // namespace

AuditReport audit_session(RouterSession& session) {
  AuditReport rep;
  const db::Design& design = session.design();
  const grid::RoutingGrid& live = session.grid();
  const grid::Solution& solution = session.solution();

  // ---- solution sanity ------------------------------------------------
  if (static_cast<int>(solution.routes.size()) != design.num_nets()) {
    note(&rep, util::format("solution holds %d routes for %d nets",
                            static_cast<int>(solution.routes.size()),
                            design.num_nets()));
    return rep;  // nothing below can be trusted to index safely
  }
  for (db::NetId id = 0; id < design.num_nets(); ++id) {
    const grid::NetRoute& route = solution.routes[static_cast<std::size_t>(id)];
    if (design.net(id).degree() == 0) {
      if (!route.empty() || !route.routed)
        note(&rep, util::format("dead net %d lacks its empty tombstone", id));
      continue;
    }
    if (route.net != id) {
      note(&rep, util::format("route entry %d names net %d", id, route.net));
      continue;
    }
    for (const grid::VertexId v : route.vertices()) {
      if (live.owner(v) != id) {
        note(&rep, util::format("net %d route vertex %u owned by %d", id,
                                static_cast<unsigned>(v), live.owner(v)));
        break;
      }
    }
  }

  // ---- design ↔ grid ↔ solution ---------------------------------------
  // A fresh rasterization of the design plus a recommit of every route
  // must reproduce the resident grid arrays exactly; any residue (stale
  // blockage, leaked wire, mask drift) shows up as a vertex mismatch.
  grid::RoutingGrid fresh(design);
  for (const grid::NetRoute& route : solution.routes) {
    if (route.net == db::kNoNet || route.empty()) continue;
    const auto verts = route.vertices();
    std::vector<grid::Mask> masks;
    masks.reserve(verts.size());
    bool committable = true;
    for (const grid::VertexId v : verts) {
      masks.push_back(live.mask(v));
      if (fresh.blocked(v) ||
          (fresh.owner(v) != db::kNoNet && fresh.owner(v) != route.net)) {
        note(&rep, util::format("net %d route crosses vertex %u it cannot own",
                                route.net, static_cast<unsigned>(v)));
        committable = false;
        break;
      }
    }
    if (committable) grid::commit_route(fresh, route, masks);
  }
  int mismatches = 0;
  for (grid::VertexId v = 0; v < live.num_vertices(); ++v) {
    const bool same = fresh.blocked(v) == live.blocked(v) &&
                      fresh.is_pin_vertex(v) == live.is_pin_vertex(v) &&
                      fresh.owner(v) == live.owner(v) &&
                      fresh.mask(v) == live.mask(v);
    if (same) continue;
    if (mismatches < 4) {
      const grid::VertexLoc l = live.loc(v);
      note(&rep,
           util::format("vertex (%d,%d,%d): resident owner=%d mask=%d "
                        "blocked=%d pin=%d vs rebuilt owner=%d mask=%d "
                        "blocked=%d pin=%d",
                        l.layer, l.x, l.y, live.owner(v),
                        static_cast<int>(live.mask(v)),
                        live.blocked(v) ? 1 : 0, live.is_pin_vertex(v) ? 1 : 0,
                        fresh.owner(v), static_cast<int>(fresh.mask(v)),
                        fresh.blocked(v) ? 1 : 0,
                        fresh.is_pin_vertex(v) ? 1 : 0));
    }
    ++mismatches;
  }
  if (mismatches >= 4)
    note(&rep, util::format("%d grid vertices diverge in total", mismatches));

  // ---- grid ↔ conflict index ------------------------------------------
  const auto incremental = normalized(session.conflict_index().pairs());
  const auto oracle = normalized(core::violation_pairs(live));
  if (incremental != oracle)
    note(&rep, util::format("conflict index holds %d pairs, oracle %d",
                            static_cast<int>(incremental.size()),
                            static_cast<int>(oracle.size())));
  return rep;
}

}  // namespace mrtpl::session
