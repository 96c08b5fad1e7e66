/// \file bench_ablation_rrr.cpp
/// Ablation **A3**: rip-up & reroute budget. The Fig. 2 outer loop
/// resolves residual conflicts by ripping the nets involved, charging
/// history cost on the violating vertices and rerouting. This bench
/// sweeps the iteration cap on a congested case and reports the conflict
/// trajectory — the value of negotiated congestion for TPL.

#include <cstdio>

#include "eval/report.hpp"
#include "flow.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mrtpl;
  const bool quick = bench::parse_quick(argc, argv);

  std::printf("== Ablation A3: RRR iteration budget on a congested case ==\n\n");

  benchgen::CaseSpec spec = benchgen::ablation_case();
  spec.num_nets = quick ? 200 : spec.num_nets * 3 / 2;  // congest it
  spec.local_span = 10;
  const bench::CaseContext ctx = bench::prepare_case(spec);

  eval::Table table({"max_iters", "conflict", "stitch", "cost", "time(s)"});
  for (const int iters : {0, 1, 2, 4, 8}) {
    core::RouterConfig cfg;
    cfg.max_rrr_iterations = iters;
    const bench::FlowResult r = bench::run_mrtpl(ctx, cfg);
    table.add_row({std::to_string(iters), std::to_string(r.metrics.conflicts),
                   std::to_string(r.metrics.stitches), util::sci(r.metrics.cost),
                   util::fixed(r.runtime_s, 2)});
  }
  table.print();
  std::printf("\nexpectation: conflicts fall (monotonically in the limit) with budget\n");
  return 0;
}
