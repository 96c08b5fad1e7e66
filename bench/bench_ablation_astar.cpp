/// \file bench_ablation_astar.cpp
/// Ablation **A5**: plain Dijkstra (the paper's Algorithm 2) vs the A*
/// variant with an admissible nearest-target Manhattan bound. Quality
/// must be flat; relaxations and runtime should drop.

#include <cstdio>

#include "eval/report.hpp"
#include "flow.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mrtpl;
  bench::parse_quick(argc, argv, /*allow_quick=*/false);
  std::printf("== Ablation A5: Dijkstra vs A* color-state search ==\n\n");

  eval::Table table({"case", "mode", "conflict", "stitch", "cost", "relax(M)",
                     "time(s)"});

  auto suite = benchgen::ispd2018_suite();
  suite.resize(5);  // the sweep is about search work, not congestion tails
  for (const auto& spec : suite) {
    const bench::CaseContext ctx = bench::prepare_case(spec);
    for (const bool astar : {false, true}) {
      core::RouterConfig cfg;
      cfg.use_astar = astar;
      const bench::FlowResult r = bench::run_mrtpl(ctx, cfg);
      table.add_row({spec.name, astar ? "A*" : "Dijkstra",
                     std::to_string(r.metrics.conflicts),
                     std::to_string(r.metrics.stitches), util::sci(r.metrics.cost),
                     util::fixed(static_cast<double>(r.relaxations) / 1e6, 2),
                     util::fixed(r.runtime_s, 2)});
    }
  }
  table.print();
  std::printf("\nexpected shape: identical conflict/stitch/cost bands, fewer "
              "relaxations and lower runtime for A*.\n");
  return 0;
}
