#pragma once
/// \file checker.hpp
/// Independent design-rule and connectivity verification of a routed,
/// colored layout.
///
/// The routers are engineered to be correct by construction (the host
/// framework the paper embeds into, Dr.CU 2.0, advertises exactly that),
/// but "engineered to" is not "verified to": this module re-derives every
/// structural property from the committed grid state and the solution
/// object alone, without trusting any router bookkeeping. The test suite
/// and the `mrtpl_cli verify` subcommand run it after every flow; the
/// failure-injection tests corrupt solutions and check that each
/// corruption class is caught.
///
/// Checked properties:
///  - **Connectivity**: every routed net's tree is a single connected
///    component covering at least one vertex of every pin.
///  - **Adjacency**: consecutive path vertices are grid neighbors.
///  - **Ownership**: every path vertex is committed to the net in the
///    grid; no vertex is owned by a net whose solution doesn't use it.
///  - **Blockage**: no path vertex sits on an obstacle.
///  - **Coloring**: TPL-layer wire vertices of routed nets carry a real
///    mask; non-TPL-layer vertices carry none.
///  - **Overlap**: no vertex is used by two different nets' paths.
///
/// Contract:
///  - **Independence.** The checker reads only the grid, the design's pins
///    and the solution — never router bookkeeping.
///  - **Scratch is O(routed vertices), not O(die).** Each route's
///    vertices() is computed once per call into one flat array;
///    connectivity is a union-find over local indices into that sorted
///    list; overlaps and phantom metal use one sorted (vertex, route)
///    claim array. Only the phantom-metal owner scan walks the die, and
///    it allocates nothing per vertex.
///  - **Violation order is part of the contract.** Per route, in route
///    order: out-of-grid ids, then per-path-vertex adjacency / blockage /
///    ownership, then coloring in vertex order, then connectivity; then
///    overlaps in (route, vertex) order; then phantom metal in vertex
///    order. `max_violations` truncates that sequence. The hash-container
///    reference checker in tests/support (DrcOracle tests) pins it.

#include <string>
#include <vector>

#include "db/design.hpp"
#include "grid/route_result.hpp"
#include "grid/routing_grid.hpp"

namespace mrtpl::drc {

enum class ViolationKind {
  kOutOfGrid,        ///< path vertex id is not a vertex of the grid at all
  kOpenNet,          ///< routed net's tree is disconnected or misses a pin
  kNonAdjacentStep,  ///< consecutive path vertices are not grid neighbors
  kOwnershipMismatch,///< path vertex not committed to the net in the grid
  kBlockedVertex,    ///< path crosses an obstacle
  kMissingMask,      ///< TPL-layer vertex of a routed net left uncolored
  kSpuriousMask,     ///< mask on a non-TPL layer
  kOverlap,          ///< vertex used by two nets
};

/// Human-readable name of a violation kind ("open-net", "overlap", ...).
[[nodiscard]] const char* to_string(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  db::NetId net = db::kNoNet;      ///< offending net (first of the pair for overlaps)
  db::NetId other = db::kNoNet;    ///< second net for overlaps
  grid::VertexId vertex = grid::kInvalidVertex;
  std::string detail;              ///< free-form context for the report
};

/// Aggregated verification result.
struct DrcReport {
  std::vector<Violation> violations;

  [[nodiscard]] bool clean() const { return violations.empty(); }
  [[nodiscard]] int count(ViolationKind kind) const;
  /// Multi-line summary ("open-net: 2\noverlap: 1\n..."), empty when clean.
  [[nodiscard]] std::string summary() const;
};

/// Options for verify(): individual checks can be disabled when a flow
/// legitimately skips a stage (e.g. the colorless plain-router flow of
/// Table III runs with `check_coloring = false` before decomposition).
struct DrcOptions {
  bool check_connectivity = true;
  bool check_adjacency = true;
  bool check_ownership = true;
  bool check_blockage = true;
  bool check_coloring = true;
  bool check_overlap = true;
  /// Stop after this many violations (0 = unlimited). Keeps pathological
  /// corrupt solutions from producing gigabyte reports.
  int max_violations = 0;
};

/// Verify `solution` against the committed `grid` state. Nets whose
/// NetRoute has `routed == false` are skipped by the connectivity check
/// (they are already counted as failures by the metrics) but still
/// participate in overlap/blockage checks. A routed net whose id is not
/// a net of `design` is reported as open, naming the id.
[[nodiscard]] DrcReport verify(const grid::RoutingGrid& grid,
                               const db::Design& design,
                               const grid::Solution& solution,
                               const DrcOptions& options = {});

}  // namespace mrtpl::drc
