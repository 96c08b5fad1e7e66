#pragma once
/// \file differential.hpp
/// Differential fuzzing oracle (ROADMAP "Differential fuzzing +
/// adversarial scenario generation"). One fuzz case runs the full routing
/// flow several ways and cross-checks the results; any disagreement is a
/// Finding. The checks:
///
///  * determinism — MrTplRouter at every configured thread count must
///    serialize byte-identically (the executor's core contract). Thread
///    counts > 1 run the tile walk on a 2x2 tiling (shard_tiles = 4).
///  * A* vs Dijkstra — the default A* search and Algorithm 2's plain
///    Dijkstra (serial) must both be DRC-clean with equal failed nets,
///    and A* may have at most 2 more conflicts (equal-cost ties can break
///    differently). Findings are labelled "astar-vs-dijkstra".
///  * structural validity — every produced solution (Mr.TPL and the
///    DAC'12 baseline) must pass the independent DRC checker, which
///    re-derives connectivity/ownership/coloring from the grid without
///    trusting router bookkeeping. The checker is the *shared oracle*:
///    two independently implemented routers are unlikely to share the
///    same structural bug.
///  * no escapes — router/generator exceptions are findings; malformed
///    serialized text must be rejected with io::ParseError and nothing
///    else (parse robustness).
///
/// Oversized inputs are skipped (not failed): the fuzzer bounds grid
/// size so a mutated die dimension cannot turn one case into a
/// memory-hungry marathon.

#include <string>
#include <vector>

#include "benchgen/case_spec.hpp"
#include "db/design.hpp"

namespace mrtpl::fuzz {

struct OracleOptions {
  /// RRR iteration cap per routed case — fuzz cases prize coverage per
  /// second over routing quality.
  int max_rrr = 3;
  /// Thread counts the determinism check sweeps (> 1 also sets
  /// shard_tiles = 4). The first entry is the reference serialization.
  std::vector<int> thread_counts = {1, 2};
  /// Also route with the DAC'12 baseline and DRC-check it.
  bool run_dac12 = true;
  /// Skip designs whose grid would exceed this many vertices.
  long max_vertices = 250000;
};

struct Finding {
  std::string check;   ///< "determinism", "drc", "router-exception", ...
  std::string detail;
};

struct OracleReport {
  std::vector<Finding> findings;
  bool skipped = false;      ///< input rejected/oversized; no flow ran
  std::string skip_reason;

  [[nodiscard]] bool clean() const { return findings.empty(); }
};

/// Route `design` through every configured flow and cross-check.
[[nodiscard]] OracleReport check_design(const db::Design& design,
                                        const OracleOptions& options);

/// Spec-domain case: invalid specs must be rejected by validation_error()
/// (generator exceptions on *valid* specs are findings); valid specs
/// generate and run check_design.
[[nodiscard]] OracleReport check_spec(const benchgen::CaseSpec& spec,
                                      const OracleOptions& options);

/// Text-domain case: `text` must parse (then route via check_design) or
/// throw io::ParseError. Any other exception type is a finding.
[[nodiscard]] OracleReport check_text(const std::string& text,
                                      const OracleOptions& options);

}  // namespace mrtpl::fuzz
