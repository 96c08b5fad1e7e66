#pragma once
/// \file fault_injector.hpp
/// Deterministic fault-injection registry for the robustness harness.
///
/// A process-wide injector holds one rule per *site* — a named place in
/// the code that can be forced to fail — configured either
/// programmatically (tests) or from the MRTPL_FAULT_SPEC environment
/// variable (CI fault-matrix). Sites:
///
///   arena_grow       SearchArena::ensure throws std::bad_alloc, as if
///                    label-array growth ran out of memory. It is checked
///                    once per ColorSearch::begin_net (the arena is sized
///                    to each net's window there), so every hit is one
///                    net's search: the router marks the net failed and
///                    retries it on a later RRR iteration.
///   spec_invalidate  The tile walk's reconciliation treats a speculation
///                    as stale and recomputes it serially. Output is
///                    unchanged by construction (the redo IS the serial
///                    result); the site exercises the redo path. Only a
///                    parallel run reaches it: `--threads N` alone routes
///                    serially, so it needs `--tiles K` (K >= 4) too.
///   search_fail      compute_route reports the net unroutable without
///                    searching, once per keyed net. RRR rips and
///                    retries it, exercising the failed-net recovery.
///   io_truncate      load_design/load_solution drop the tail of the
///                    file content before parsing (ParseError path).
///   io_bitflip       load_design/load_solution flip one byte of the
///                    content before parsing.
///   io_write_abort   io::atomic_write_file throws mid-write, before the
///                    rename — simulating a crash during save. Contract:
///                    the destination file is untouched (old content or
///                    absent), never a truncated hybrid.
///   journal_torn_tail  io::EditJournal::open drops trailing bytes of the
///                    journal before the validity scan — simulating a
///                    crash mid-append. Contract: the scan truncates to
///                    the last whole record; recovery replays that
///                    committed prefix and exits cleanly.
///   journal_bitflip  io::EditJournal::open flips one bit of the journal
///                    bytes before the scan. Contract: the CRC gate stops
///                    the scan at the corrupt record; everything before it
///                    replays, nothing after it is parsed.
///   snapshot_stale   session::SessionStore skips writing a periodic
///                    snapshot — simulating a crash between the journal
///                    fsync and the snapshot rename. Contract: recovery
///                    replays the longer journal suffix onto the older
///                    snapshot and reproduces the same state.
///   dir_fsync        io::fsync_parent_dir fails — simulating a crash
///                    after a rename()/create() but before the directory
///                    entry is durable (the window where a power loss can
///                    undo the rename itself). Contract: the caller
///                    surfaces the failure instead of claiming
///                    durability; the destination is a complete old or
///                    new file, never a hybrid.
///   conn_drop        server::Daemon closes a client connection right
///                    after decoding a request, before responding —
///                    simulating a flaky network peer. Contract: the
///                    client sees a clean EOF and can reconnect; the
///                    store is never corrupted (admitted edits either
///                    commit fully or were never applied).
///   partial_write    server::Daemon's response flush writes at most one
///                    byte per event-loop round — stressing the
///                    partial-write resume path. Contract: responses
///                    arrive intact, just slower.
///   slow_client      server::Daemon's request read takes at most one
///                    byte per event-loop round — a pathologically slow
///                    sender. Contract: frames reassemble byte-exactly;
///                    one slow client never stalls the others' edits.
///
/// Spec syntax (MRTPL_FAULT_SPEC or configure()):
///
///   spec    := entry (';' entry)* | ''
///   entry   := 'seed=' N | site ':' every [':' offset]
///   site    := arena_grow | spec_invalidate | search_fail
///            | io_truncate | io_bitflip | io_write_abort
///            | journal_torn_tail | journal_bitflip | snapshot_stale
///            | dir_fsync | conn_drop | partial_write | slow_client
///
/// A site entry fires when `index % every == offset` (default offset 0),
/// where `index` is the site's hit counter for counter sites
/// (should_fail(site)) or the caller-supplied key for keyed sites
/// (should_fail(site, key) — used with net ids so decisions are
/// independent of thread scheduling; each key fires at most once). A
/// nonzero seed replaces the raw index with a SplitMix64 hash of
/// (index ^ seed), scattering the firing pattern while staying fully
/// deterministic.
///
/// Thread safety: counters are atomic and the keyed-firing memory is
/// mutex-guarded; should_fail may be called from pool workers. The
/// configuration itself must only change while no router is running
/// (tests reconfigure between runs).

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>

namespace mrtpl::util {

enum class FaultSite : int {
  kArenaGrow = 0,
  kSpecInvalidate,
  kSearchFail,
  kIoTruncate,
  kIoBitFlip,
  kIoWriteAbort,
  kJournalTornTail,
  kJournalBitFlip,
  kSnapshotStale,
  kDirFsync,
  kConnDrop,
  kPartialWrite,
  kSlowClient,
};
inline constexpr int kNumFaultSites = 13;

/// Canonical spec name of a site ("arena_grow", ...).
[[nodiscard]] const char* to_string(FaultSite site);

class FaultInjector {
 public:
  /// The process-wide injector. First call reads MRTPL_FAULT_SPEC (a bad
  /// env spec logs a warning and leaves the injector disarmed).
  static FaultInjector& instance();

  /// Cheapest possible hot-path guard: false whenever no site is armed.
  [[nodiscard]] static bool enabled() { return armed_.load(std::memory_order_relaxed); }

  /// Replace the configuration from a spec string (see file comment).
  /// Returns false and leaves the injector disarmed on a malformed spec,
  /// with the reason in *error when given. An empty spec disarms.
  bool configure(const std::string& spec, std::string* error = nullptr);

  /// Re-read MRTPL_FAULT_SPEC (tests set the env var then call this).
  bool configure_from_env(std::string* error = nullptr);

  /// Disarm all sites and forget counters/keys.
  void disarm();

  /// Counter-based decision: fires on matching hit indices of `site`.
  [[nodiscard]] bool should_fail(FaultSite site);

  /// Key-based decision: deterministic in `key` alone (thread-schedule
  /// independent) and fires at most once per distinct key.
  [[nodiscard]] bool should_fail(FaultSite site, std::uint64_t key);

  /// Corrupt `text` in place per the armed IO sites (no-op when neither
  /// io_truncate nor io_bitflip is armed). Truncation keeps a prefix;
  /// bit-flip XORs one bit; positions derive from the seed and length.
  static void maybe_corrupt_io(std::string& text);

  /// Corrupt raw journal bytes in place per the armed journal sites
  /// (journal_torn_tail chops 1+ tail bytes; journal_bitflip XORs one bit
  /// past the `header`-byte magic prefix, which stays intact). Called by
  /// io::EditJournal::open between read and scan.
  static void maybe_corrupt_journal(std::string& bytes, size_t header);

  [[nodiscard]] std::uint64_t fired(FaultSite site) const {
    return sites_[static_cast<size_t>(site)].fired.load();
  }
  [[nodiscard]] std::uint64_t hits(FaultSite site) const {
    return sites_[static_cast<size_t>(site)].hits.load();
  }
  /// Zero hit/fired counters and the keyed-firing memory, keeping the
  /// armed rules — call between router runs that share one spec.
  void reset_counters();

 private:
  struct SiteRule {
    bool armed = false;
    std::uint64_t every = 0;   ///< fire when index % every == offset
    std::uint64_t offset = 0;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fired{0};
  };

  [[nodiscard]] bool matches(const SiteRule& rule, std::uint64_t index) const;

  static std::atomic<bool> armed_;

  std::array<SiteRule, kNumFaultSites> sites_;
  std::uint64_t seed_ = 0;
  std::mutex keyed_mutex_;
  std::array<std::unordered_set<std::uint64_t>, kNumFaultSites> keyed_fired_;
};

}  // namespace mrtpl::util
