#pragma once
/// \file router_session.hpp
/// Sans-IO resident routing session (README "Resident sessions & crash
/// recovery"). A RouterSession keeps one design, its routing grid, the
/// committed solution, and the incremental conflict engine resident in
/// memory and applies ECO edits (session/edit.hpp) against them,
/// rerouting only the dirty delta instead of the whole design.
///
/// Request/response discipline:
///
///  * Every edit is a transaction: it either commits — the design, grid,
///    solution, and conflict index all advance together and `seq()`
///    increments — or it rolls back to the exact pre-edit state
///    (rejected input, tripped deadline). Degradation is graceful, never
///    corrupting.
///  * Admission control (drain): when the queue exceeds
///    `max_queue_depth`, excess edits are SHED unapplied; when the EWMA
///    apply latency exceeds `latency_watermark_s`, subsequent edits run
///    DEGRADED under the deterministic `degrade_relax_cap` relaxation
///    budget instead of unbounded.
///  * Replay determinism: applies are strictly serial and each one
///    clears the negotiation history first, making every committed edit
///    a pure function of (design, committed layout, edit, relax cap).
///    A journal replay of the committed sequence is therefore
///    byte-identical to the live session — the property the kill-point
///    sweep test pins. Wall-clock deadlines are the one
///    non-deterministic bound, which is why a tripped deadline rolls
///    back and is never journaled, while an UNtripped deadline run is
///    identical to an unlimited run (route_budget.hpp) and replays as
///    one.
///
/// The class is sans-IO: persistence (journal + snapshot) lives in
/// SessionStore, wired in through the commit hook.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/conflict_index.hpp"
#include "core/mrtpl_router.hpp"
#include "db/design.hpp"
#include "global/guide.hpp"
#include "grid/route_result.hpp"
#include "grid/routing_grid.hpp"
#include "io/json_report.hpp"
#include "session/edit.hpp"
#include "util/monotonic.hpp"

namespace mrtpl::session {

struct SessionConfig {
  core::RouterConfig router;

  /// Time source for the apply-latency EWMA feeding the degrade-mode
  /// watermark. MUST be monotonic: a wall-clock step (NTP, suspend)
  /// would spuriously trip or mask degrade mode. Empty = the process
  /// monotonic clock; tests inject util::ManualClock to drive the
  /// watermark deterministically.
  util::ClockFn clock;

  /// Per-edit wall-clock deadline; <= 0 disables. A tripped deadline
  /// rolls the edit back (status kDeadline) — nothing is journaled.
  double deadline_s = 0.0;

  /// Wall-clock deadline for the fresh-session initial route; <= 0
  /// disables. A tripped deadline leaves the session holding the
  /// router's best degraded iterate (solution().degraded() reports it).
  double initial_deadline_s = 0.0;

  /// Deterministic relaxation cap used for DEGRADED applies; 0 disables
  /// degrade mode entirely. A capped apply that trips commits with
  /// status kDegraded and the cap recorded in the journal.
  std::uint64_t degrade_relax_cap = 0;

  /// EWMA apply latency (seconds) beyond which drain() switches to
  /// degraded applies; <= 0 never degrades on latency.
  double latency_watermark_s = 0.0;

  /// Queue-depth watermark: drain() sheds the newest edits beyond this
  /// many pending; 0 = unlimited.
  int max_queue_depth = 0;

  /// SessionStore: write a snapshot every N committed edits (<= 0
  /// snapshots only at create/recover time).
  int snapshot_every = 16;
};

enum class EditStatus : std::uint8_t {
  kApplied = 0,  ///< committed, full-quality reroute
  kDegraded,     ///< committed under the relax cap; best-effort layout
  kShed,         ///< dropped by admission control; state untouched
  kRejected,     ///< invalid edit; state untouched
  kDeadline,     ///< wall deadline tripped; rolled back, state untouched
};

[[nodiscard]] const char* to_string(EditStatus status);

/// Outcome of one edit request.
struct EditResponse {
  std::uint64_t seq = 0;  ///< committed sequence number; 0 when not committed
  EditStatus status = EditStatus::kRejected;
  std::string note;       ///< rejection/shed reason, empty otherwise
  int dirty_nets = 0;     ///< nets released and rerouted by the delta
  int conflicts = 0;      ///< clustered color conflicts after the apply
  int failed = 0;         ///< live nets without a complete route
  double apply_s = 0.0;   ///< wall time of the apply (0 for shed/rejected)
  /// Non-routed nets after the apply, so a degraded response can NAME
  /// what was skipped or left partial (empty when all nets routed).
  std::vector<io::DispositionEntry> dispositions;
};

/// A committed edit as seen by the persistence hook: the sequence number
/// it committed at and the relaxation cap it ran under (0 = unlimited) —
/// exactly what a replay needs to reproduce it.
struct CommittedEdit {
  std::uint64_t seq = 0;
  const Edit& edit;
  std::uint64_t max_relaxations = 0;
};

using CommitHook = std::function<void(const CommittedEdit&)>;

class RouterSession {
 public:
  /// Fresh session: copies the design, routes it from scratch.
  RouterSession(const db::Design& design, SessionConfig config,
                const global::GuideSet* guides = nullptr);

  /// Recovery/adoption: take over a previously committed layout
  /// (solution_io text) at sequence `seq` without rerouting anything.
  RouterSession(const db::Design& design, SessionConfig config,
                const global::GuideSet* guides, const std::string& solution_text,
                std::uint64_t seq);

  RouterSession(const RouterSession&) = delete;
  RouterSession& operator=(const RouterSession&) = delete;

  /// Persistence hook, fired synchronously after every commit (the
  /// store journals + fsyncs there — the durability point).
  void set_commit_hook(CommitHook hook) { hook_ = std::move(hook); }

  /// Queue an edit; returns the new queue depth. Nothing applies until
  /// drain().
  std::size_t enqueue(Edit edit);

  /// Apply the queued edits in order under admission control; one
  /// response per queued edit, in queue order.
  std::vector<EditResponse> drain();

  /// enqueue + drain of a single edit.
  EditResponse submit(const Edit& edit);

  /// Recovery path: apply a journaled edit under its recorded relax cap
  /// (0 = unlimited), bypassing admission control and deadlines.
  EditResponse replay(const Edit& edit, std::uint64_t max_relaxations);

  [[nodiscard]] const db::Design& design() const { return design_; }
  [[nodiscard]] const grid::RoutingGrid& grid() const { return *grid_; }
  [[nodiscard]] const grid::Solution& solution() const { return solution_; }
  [[nodiscard]] const global::GuideSet* guides() const {
    return has_guides_ ? &guides_ : nullptr;
  }
  [[nodiscard]] core::ConflictIndex& conflict_index() { return *index_; }

  /// Committed edits so far (0 right after a fresh construction).
  [[nodiscard]] std::uint64_t seq() const { return seq_; }
  [[nodiscard]] std::size_t queue_depth() const { return pending_.size(); }
  [[nodiscard]] double latency_ewma() const { return latency_ewma_; }
  /// Whether the next drained edit would run degraded.
  [[nodiscard]] bool degrade_mode() const;

  /// Canonical serializations of the resident state — the byte-identity
  /// currency of the recovery contract.
  [[nodiscard]] std::string design_text() const;
  [[nodiscard]] std::string solution_text() const;

  /// Stats of the initial from-scratch route (empty for adoption).
  [[nodiscard]] const core::RouterStats& initial_stats() const {
    return initial_stats_;
  }

 private:
  struct Region {
    int layer = 0;
    geom::Rect rect;
  };

  /// Transactionally apply one edit. Exactly one of `max_relaxations`
  /// (deterministic cap) and `deadline_s` (wall bound) may be nonzero.
  EditResponse apply_edit(const Edit& edit, std::uint64_t max_relaxations,
                          double deadline_s);

  /// Semantic validation against the current design; empty string = ok.
  [[nodiscard]] std::string validate_edit(const Edit& edit) const;

  /// Mutate the design per `edit` and report what it dirtied: net ids to
  /// release + reroute and grid regions to re-rasterize. Must only be
  /// called with a validated edit.
  void apply_to_design(const Edit& edit, std::vector<db::NetId>* dirty,
                       std::vector<Region>* regions);

  /// Net ids owning committed vertices inside `region` (wire or pin).
  void collect_owners(const Region& region, std::vector<db::NetId>* out) const;
  /// Live nets with a pin shape intersecting `region`.
  void collect_pinned(const Region& region, std::vector<db::NetId>* out) const;

  void rebuild_from(db::Design&& design, const std::string& solution_text);
  void normalize_dispositions();

  db::Design design_;
  SessionConfig config_;
  util::ClockFn clock_;
  global::GuideSet guides_;
  bool has_guides_ = false;
  std::unique_ptr<grid::RoutingGrid> grid_;
  std::unique_ptr<core::ConflictIndex> index_;
  grid::Solution solution_;
  std::uint64_t seq_ = 0;
  std::deque<Edit> pending_;
  CommitHook hook_;
  double latency_ewma_ = 0.0;
  bool have_latency_ = false;
  core::RouterStats initial_stats_;
};

}  // namespace mrtpl::session
