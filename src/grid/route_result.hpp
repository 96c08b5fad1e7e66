#pragma once
/// \file route_result.hpp
/// Routed-net representation shared by Mr.TPL and the baselines: a tree of
/// grid-vertex paths plus the committed mask per vertex. The evaluation
/// module consumes this to count wirelength, vias, stitches and conflicts.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "grid/routing_grid.hpp"

namespace mrtpl::grid {

/// Why a net's route looks the way it does. Dispositions are in-memory
/// markers for degraded-run reporting; they are deliberately NOT
/// serialized by solution_io, so budgeted and unbudgeted runs that route
/// identically also serialize identically.
enum class NetDisposition : std::uint8_t {
  kRouted = 0,   ///< all pins connected
  kFailed,       ///< search exhausted the window: pins unreachable
  kPartial,      ///< budget interrupted the search mid-net; tree incomplete
  kSkipped,      ///< budget expired before this net's turn; nothing committed
};

[[nodiscard]] const char* to_string(NetDisposition d);

/// One net's routing result. `paths` holds the vertex sequences produced
/// by successive pin-to-tree connections (Algorithm 1's resPaths); their
/// union forms the net's routed tree.
struct NetRoute {
  db::NetId net = db::kNoNet;
  bool routed = false;           ///< all pins connected
  NetDisposition disposition = NetDisposition::kFailed;
  std::vector<std::vector<VertexId>> paths;

  /// Unique vertices of the tree, sorted ascending.
  [[nodiscard]] std::vector<VertexId> vertices() const;

  /// Unique undirected tree edges as normalized (min,max) vertex pairs.
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> edges() const;

  [[nodiscard]] bool empty() const { return paths.empty(); }
};

/// Run-level outcome. kDegraded means a RouteBudget bound tripped and the
/// router stopped ripping early — the returned routes are the best
/// iterate it reached (possibly even conflict-free), with per-net
/// dispositions recording what was skipped or left partial. Like
/// dispositions, the status is not serialized.
enum class SolutionStatus : std::uint8_t { kComplete = 0, kDegraded };

/// Whole-design solution, indexed by net id.
struct Solution {
  std::vector<NetRoute> routes;
  SolutionStatus status = SolutionStatus::kComplete;

  [[nodiscard]] bool degraded() const { return status == SolutionStatus::kDegraded; }
  [[nodiscard]] int num_routed() const;
  [[nodiscard]] int num_failed() const;
  /// Nets a budget stopped mid-search / never reached (kPartial/kSkipped).
  [[nodiscard]] int num_partial() const;
  [[nodiscard]] int num_skipped() const;
};

/// Write a net's tree and masks into the grid's committed state.
/// `masks` must be parallel to `route.vertices()` or empty (uncolored).
void commit_route(RoutingGrid& grid, const NetRoute& route,
                  const std::vector<Mask>& masks);

/// Undo commit_route for the given net (pin metal survives).
void release_route(RoutingGrid& grid, const NetRoute& route);

/// Number of stitches in the committed layout: same-layer tree edges on a
/// TPL layer whose two endpoint masks differ. Vias never stitch (masks
/// are per-layer), and uncolored endpoints don't count.
[[nodiscard]] int count_stitches(const RoutingGrid& grid, const Solution& solution);

/// The same count over one route, given its NetRoute::edges() — for
/// callers that already hold the edge list. The stitch rule lives here.
[[nodiscard]] int count_route_stitches(
    const RoutingGrid& grid, std::span<const std::pair<VertexId, VertexId>> edges);

}  // namespace mrtpl::grid
