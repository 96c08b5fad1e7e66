#include "fuzz/differential.hpp"

#include <exception>
#include <optional>

#include "baseline/dac12_router.hpp"
#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "drc/checker.hpp"
#include "eval/metrics.hpp"
#include "global/global_router.hpp"
#include "grid/routing_grid.hpp"
#include "io/design_io.hpp"
#include "io/parse_error.hpp"
#include "io/solution_io.hpp"
#include "util/strings.hpp"

namespace mrtpl::fuzz {
namespace {

/// Grid size a design would build, without building it.
long grid_vertices(const db::Design& design) {
  const geom::Rect die = design.die();
  return static_cast<long>(die.width()) * die.height() *
         design.tech().num_layers();
}

}  // namespace

OracleReport check_design(const db::Design& design, const OracleOptions& options) {
  OracleReport report;
  if (grid_vertices(design) > options.max_vertices) {
    report.skipped = true;
    report.skip_reason = util::format("grid too large (%ld vertices)",
                                      grid_vertices(design));
    return report;
  }

  global::GuideSet guides;
  try {
    global::GlobalRouter gr(design);
    guides = gr.route_all();
  } catch (const std::exception& e) {
    report.findings.push_back(
        {"global-exception", std::string("global router threw: ") + e.what()});
    return report;
  }

  core::RouterConfig config;
  config.max_rrr_iterations = options.max_rrr;

  auto drc_check = [&](const char* flow, const grid::RoutingGrid& grid,
                       const grid::Solution& solution) {
    const drc::DrcReport drc_report = drc::verify(grid, design, solution);
    if (!drc_report.clean())
      report.findings.push_back(
          {"drc", util::format("%s: %zu violation(s): ", flow,
                               drc_report.violations.size()) +
                      drc_report.summary()});
  };

  // Any thread count > 1 runs the tile walk on a 2x2 tiling; one thread
  // routes serially. The label names both knobs.
  auto config_label = [](int threads) {
    return util::format("threads=%d tiles=%d", threads, threads > 1 ? 4 : 1);
  };
  std::string reference;  // serialized solution of thread_counts[0]
  std::optional<eval::Metrics> reference_metrics;
  for (size_t t = 0; t < options.thread_counts.size(); ++t) {
    const int threads = options.thread_counts[t];
    config.rrr_threads = threads;
    config.shard_tiles = threads > 1 ? 4 : 1;
    try {
      grid::RoutingGrid grid(design);
      core::MrTplRouter router(design, &guides, config);
      const grid::Solution solution = router.run(grid);
      const std::string serialized = io::solution_to_string(grid, solution);
      if (t == 0) {
        reference = serialized;
        reference_metrics = eval::evaluate(grid, solution, &guides);
      } else if (serialized != reference) {
        report.findings.push_back(
            {"determinism", "mrtpl " + config_label(threads) + " diverges from " +
                                config_label(options.thread_counts[0])});
      }
      drc_check(("mrtpl " + config_label(threads)).c_str(), grid, solution);
    } catch (const std::exception& e) {
      report.findings.push_back(
          {"router-exception",
           "mrtpl " + config_label(threads) + " threw: " + e.what()});
    }
  }

  // The default A* search (the reference run above) against Algorithm 2's
  // plain Dijkstra on the same design. Equal-cost ties may break
  // differently, so conflicts get a +2 band; failed nets must match.
  if (reference_metrics) {
    core::RouterConfig dijkstra = config;
    dijkstra.use_astar = false;
    dijkstra.rrr_threads = 1;
    dijkstra.shard_tiles = 1;
    try {
      grid::RoutingGrid grid(design);
      core::MrTplRouter router(design, &guides, dijkstra);
      const grid::Solution solution = router.run(grid);
      drc_check("mrtpl dijkstra", grid, solution);
      const eval::Metrics m = eval::evaluate(grid, solution, &guides);
      if (reference_metrics->failed_nets != m.failed_nets ||
          reference_metrics->conflicts > m.conflicts + 2)
        report.findings.push_back(
            {"astar-vs-dijkstra",
             util::format("mrtpl A* vs mrtpl Dijkstra: failed nets %d vs %d, "
                          "conflicts %d vs %d",
                          reference_metrics->failed_nets, m.failed_nets,
                          reference_metrics->conflicts, m.conflicts)});
    } catch (const std::exception& e) {
      report.findings.push_back(
          {"router-exception", std::string("mrtpl dijkstra threw: ") + e.what()});
    }
  }

  if (options.run_dac12) {
    try {
      grid::RoutingGrid grid(design);
      baseline::Dac12Router router(design, &guides, config);
      const grid::Solution solution = router.run(grid);
      drc_check("dac12", grid, solution);
    } catch (const std::exception& e) {
      report.findings.push_back(
          {"router-exception", std::string("dac12 threw: ") + e.what()});
    }
  }
  return report;
}

OracleReport check_spec(const benchgen::CaseSpec& spec, const OracleOptions& options) {
  OracleReport report;
  const std::string invalid = spec.validation_error();
  if (!invalid.empty()) {
    // Correct rejection of an out-of-envelope spec: the generator must
    // not even be asked. (generate() throwing on a spec that *claims* to
    // be valid is the bug class this branch separates out.)
    report.skipped = true;
    report.skip_reason = "spec rejected: " + invalid;
    return report;
  }
  try {
    const db::Design design = benchgen::generate(spec);
    return check_design(design, options);
  } catch (const std::exception& e) {
    report.findings.push_back(
        {"generator-exception",
         std::string("generate() threw on a spec that passed validation: ") +
             e.what()});
    return report;
  }
}

OracleReport check_text(const std::string& text, const OracleOptions& options) {
  OracleReport report;
  try {
    const db::Design design = io::design_from_string(text);
    return check_design(design, options);
  } catch (const io::ParseError&) {
    // The contract: malformed input is rejected with ParseError. Fine.
    report.skipped = true;
    report.skip_reason = "rejected with ParseError";
    return report;
  } catch (const std::exception& e) {
    report.findings.push_back(
        {"parse-robustness",
         std::string("read_design threw non-ParseError: ") + e.what()});
    return report;
  }
}

}  // namespace mrtpl::fuzz
