#pragma once
/// \file invariant_audit.hpp
/// Coherence auditor for resident session state. After a recovery (or at
/// any checkpoint a test likes), the auditor revalidates that the three
/// resident structures still describe ONE layout:
///
///   design ↔ grid      re-rasterizing the design from scratch yields the
///                      same blocked / pin-vertex / pin-ownership state;
///   solution ↔ grid    recommitting every route onto that fresh grid
///                      reproduces the resident owner/mask arrays exactly;
///   grid ↔ index       the incremental ConflictIndex's pair set equals
///                      the full-rescan violation_pairs oracle;
///   solution sanity    live nets own their routes' vertices, dead nets
///                      carry empty tombstone routes.
///
/// Any divergence is a corruption bug, not a degradation — the kill-point
/// sweep runs this after every recovery.

#include <string>
#include <vector>

#include "session/router_session.hpp"

namespace mrtpl::session {

struct AuditReport {
  bool ok = true;
  /// Human-readable descriptions of every divergence found (capped; the
  /// first few are what you debug with anyway).
  std::vector<std::string> problems;
};

/// Cross-check design ↔ grid ↔ solution ↔ conflict index. Read-only;
/// cost is one fresh rasterization plus a full conflict rescan.
[[nodiscard]] AuditReport audit_session(RouterSession& session);

}  // namespace mrtpl::session
