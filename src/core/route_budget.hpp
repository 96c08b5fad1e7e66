#pragma once
/// \file route_budget.hpp
/// Cooperative cancellation of a routing run (README "Robustness &
/// failure model"). A RouteBudget bounds a `MrTplRouter::run` three ways,
/// any combination active at once:
///
///  * max_relaxations — a ledger budget on *applied* search relaxations.
///    Checked only at per-net commit points on the main thread against
///    RouterStats::relaxations, which the tile walk keeps invariant
///    across (shard_tiles, rrr_threads) — so a relaxation budget yields
///    the SAME degraded solution for every configuration (pinned by
///    test_route_budget).
///  * deadline_s — wall-clock deadline from the moment run() starts.
///    Checked at commit points and every ~4096 relaxations inside
///    ColorSearch::search. Best-effort: where the deadline lands depends
///    on machine speed, so wall-deadline runs are excluded from the
///    determinism sweeps.
///  * cancel — an external flag (daemon shutdown, Ctrl-C handler).
///    Polled at the same sites as the deadline.
///
/// Expiry is *sticky*: once any bound trips, every later check of the
/// same run reports expired, the router stops ripping, keeps the best
/// iterate it has, and returns a Solution with status kDegraded plus
/// accurate per-net dispositions (route_result.hpp). A default
/// RouteBudget{} bounds nothing and leaves the run byte-identical to the
/// unbudgeted path.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace mrtpl::core {

struct RouteBudget {
  /// Wall-clock deadline in seconds from run() start; <= 0 disables.
  double deadline_s = 0.0;
  /// Ceiling on applied search relaxations; 0 disables. The granularity
  /// is one net: the net being routed when the ledger crosses the bound
  /// still commits, then the run stops ripping.
  std::uint64_t max_relaxations = 0;
  /// External cancel flag; null disables. Set it from any thread.
  std::shared_ptr<std::atomic<bool>> cancel;

  [[nodiscard]] bool unlimited() const {
    return deadline_s <= 0.0 && max_relaxations == 0 && cancel == nullptr;
  }
};

/// Armed budget state owned by the router for one run. Split from
/// RouteBudget so the caller's budget stays a plain value while the
/// tracker holds the resolved deadline timepoint and the sticky trip
/// flag. interrupted() is safe from pool workers.
class BudgetTracker {
 public:
  void arm(const RouteBudget& budget) {
    max_relaxations_ = budget.max_relaxations;
    cancel_ = budget.cancel;
    has_deadline_ = budget.deadline_s > 0.0;
    if (has_deadline_)
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(budget.deadline_s));
    active_ = !budget.unlimited();
    tripped_.store(false, std::memory_order_relaxed);
  }
  void disarm() {
    active_ = false;
    has_deadline_ = false;
    max_relaxations_ = 0;
    cancel_.reset();
    tripped_.store(false, std::memory_order_relaxed);
  }

  [[nodiscard]] bool active() const { return active_; }

  /// Deterministic bound: has the applied-relaxation ledger crossed the
  /// budget? Main-thread only (the ledger is main-thread state). Sticky.
  [[nodiscard]] bool relaxations_exhausted(std::uint64_t applied) const {
    if (!active_ || max_relaxations_ == 0) return false;
    if (applied >= max_relaxations_) {
      tripped_.store(true, std::memory_order_relaxed);
      return true;
    }
    return tripped_.load(std::memory_order_relaxed);
  }

  /// Best-effort bounds: deadline passed or cancel flag raised (or a
  /// previous check already tripped). Any thread.
  [[nodiscard]] bool interrupted() const {
    if (!active_) return false;
    if (tripped_.load(std::memory_order_relaxed)) return true;
    if ((cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) ||
        (has_deadline_ && std::chrono::steady_clock::now() >= deadline_)) {
      tripped_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Union of both bound kinds — the per-net commit-point check.
  [[nodiscard]] bool expired(std::uint64_t applied) const {
    return relaxations_exhausted(applied) || interrupted();
  }

  /// Whether any bound has tripped this run.
  [[nodiscard]] bool tripped() const {
    return tripped_.load(std::memory_order_relaxed);
  }

 private:
  bool active_ = false;
  bool has_deadline_ = false;
  std::uint64_t max_relaxations_ = 0;
  std::shared_ptr<std::atomic<bool>> cancel_;
  std::chrono::steady_clock::time_point deadline_{};
  mutable std::atomic<bool> tripped_{false};  ///< sticky trip latch
};

}  // namespace mrtpl::core
