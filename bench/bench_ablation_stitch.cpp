/// \file bench_ablation_stitch.cpp
/// Ablation **A2**: sweep the stitch weight beta of Eq. 1 and trace the
/// conflict/stitch trade-off. Low beta: the router stitches freely and
/// avoids conflicts; high beta: stitches are suppressed and conflicts
/// (or detours) rise. This exposes the Pareto knob the paper's cost
/// function provides.

#include <cstdio>

#include "eval/report.hpp"
#include "flow.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mrtpl;
  const bool quick = bench::parse_quick(argc, argv);

  std::printf("== Ablation A2: stitch-cost weight (beta) sweep, Eq. 1 ==\n\n");

  benchgen::CaseSpec spec = benchgen::ablation_case();
  if (quick) {
    spec.width = spec.height = 72;
    spec.num_nets = 160;
  }
  const bench::CaseContext ctx = bench::prepare_case(spec);

  eval::Table table({"beta", "conflict", "stitch", "wirelength", "cost", "time(s)"});
  for (const double beta : {0.0, 12.5, 50.0, 200.0, 800.0, 3200.0}) {
    core::RouterConfig cfg;
    cfg.beta_override = beta;
    const bench::FlowResult r = bench::run_mrtpl(ctx, cfg);
    table.add_row({util::fixed(beta, 1), std::to_string(r.metrics.conflicts),
                   std::to_string(r.metrics.stitches),
                   std::to_string(r.metrics.wirelength), util::sci(r.metrics.cost),
                   util::fixed(r.runtime_s, 2)});
  }
  table.print();
  std::printf("\nexpectation: stitches fall as beta rises\n");
  return 0;
}
