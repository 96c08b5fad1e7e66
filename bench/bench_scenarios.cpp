/// \file bench_scenarios.cpp
/// Runs the built-in stress-scenario registry end to end (generate ->
/// global -> Mr.TPL route -> evaluate -> DRC-verify) and emits ONE JSON
/// OBJECT PER LINE on stdout, so runs can be recorded as
/// BENCH_scenarios.json and diffed across commits. Human-oriented notes
/// go to stderr.
///
///   {"scenario":"hotspot_twin_peaks","family":"congestion","status":"pass",
///    "nets":48,"conflicts":0,"stitches":..,"wirelength":..,"vias":..,
///    "failed_nets":0,"drc_clean":true,"detect_s":..,"route_s":..,
///    "total_s":..,"note":"","nproc":4,"build":"Release"}
///
/// Usage: bench_scenarios [--quick] [--filter <substr>] [--threads N]
///   --quick    run each scenario's scaled-down CI variant
///   --filter   only scenarios whose name/family contains <substr>
///   --threads  RRR worker threads (output is thread-count-invariant)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "io/json_report.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mrtpl;

  scenario::RunnerOptions options;
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      filter = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      options.config.rrr_threads = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_scenarios [--quick] [--filter <substr>] "
                   "[--threads N]\n");
      return 2;
    }
  }

  const auto& registry = scenario::ScenarioRegistry::builtin();
  const auto selection = registry.filter(filter);
  if (selection.empty()) {
    std::fprintf(stderr, "bench_scenarios: no scenario matches '%s'\n",
                 filter.c_str());
    return 2;
  }

  const scenario::ScenarioRunner runner(options);
  const auto results = runner.run_all(selection, [](const auto& result) {
    // The report line plus host provenance: a 1-core or Debug figure must
    // not pass for a result.
    std::string line =
        io::scenario_line_to_string(scenario::ScenarioRunner::report_of(result));
    line.insert(line.rfind('}'),
                util::format(",\"nproc\":%u,\"build\":\"%s\"",
                             std::thread::hardware_concurrency(), MRTPL_BUILD_TYPE));
    std::cout << line;
    std::cout.flush();
    std::fprintf(stderr, "[scenarios] %-24s %-10s %s\n", result.name.c_str(),
                 scenario::to_string(result.status), result.note.c_str());
  });
  return scenario::ScenarioRunner::all_passed(results) ? 0 : 1;
}
