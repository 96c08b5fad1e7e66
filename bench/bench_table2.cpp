/// \file bench_table2.cpp
/// Regenerates **Table II** of the paper: Mr.TPL vs the replicated
/// DAC-2012 TPL-aware router [5] on the ISPD-2018-like suite — conflicts,
/// stitches, ISPD cost and runtime per case, with improvement columns and
/// averages. Absolute values depend on the synthetic substrate; the
/// quantities of interest are the improvement percentages and the speedup
/// (paper: −81.17% conflicts, −76.89% stitches, −0.51% cost, 5.41×).
///
/// Run with --quick to use only the first 4 cases (CI smoke).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "eval/report.hpp"
#include "flow.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mrtpl;
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  auto suite = benchgen::ispd2018_suite();
  if (quick) suite.resize(4);

  std::printf("== Table II: Mr.TPL vs DAC-2012 TPL-aware router [5] "
              "(ISPD-2018-like synthetic suite) ==\n\n");

  eval::Table table({"case", "conflict[5]", "conflict", "imp.", "stitch[5]",
                     "stitch", "imp.", "cost[5]", "cost", "imp.", "time[5](s)",
                     "time(s)", "speedup"});

  double sum_c5 = 0, sum_co = 0, sum_s5 = 0, sum_so = 0;
  double sum_k5 = 0, sum_ko = 0, sum_t5 = 0, sum_to = 0;
  int counted = 0;
  util::ImprovementAvg imp_conflict, imp_stitch, imp_cost;
  util::SpeedupAvg speedup;

  for (const auto& spec : suite) {
    std::fprintf(stderr, "[table2] %s ...\n", spec.name.c_str());
    const bench::CaseContext ctx = bench::prepare_case(spec);
    const bench::FlowResult base = bench::run_dac12(ctx);
    const bench::FlowResult ours = bench::run_mrtpl(ctx, bench::paper_config());

    table.add_row({spec.name,
                   std::to_string(base.metrics.conflicts),
                   std::to_string(ours.metrics.conflicts),
                   util::improvement(base.metrics.conflicts, ours.metrics.conflicts),
                   std::to_string(base.metrics.stitches),
                   std::to_string(ours.metrics.stitches),
                   util::improvement(base.metrics.stitches, ours.metrics.stitches),
                   util::sci(base.metrics.cost), util::sci(ours.metrics.cost),
                   util::improvement(base.metrics.cost, ours.metrics.cost),
                   util::fixed(base.runtime_s, 2), util::fixed(ours.runtime_s, 2),
                   ours.runtime_s > 0
                       ? util::fixed(base.runtime_s / ours.runtime_s, 2) + "x"
                       : "-"});

    sum_c5 += base.metrics.conflicts;
    sum_co += ours.metrics.conflicts;
    sum_s5 += base.metrics.stitches;
    sum_so += ours.metrics.stitches;
    sum_k5 += base.metrics.cost;
    sum_ko += ours.metrics.cost;
    sum_t5 += base.runtime_s;
    sum_to += ours.runtime_s;
    ++counted;
    imp_conflict.add(base.metrics.conflicts, ours.metrics.conflicts);
    imp_stitch.add(base.metrics.stitches, ours.metrics.stitches);
    imp_cost.add(base.metrics.cost, ours.metrics.cost);
    speedup.add(base.runtime_s, ours.runtime_s);
  }

  // The paper's avg. row averages the *per-case* improvement percentages
  // (cases footnoted "zero"/"-" excluded) and the per-case speedups, not
  // the ratios of the column sums.
  const double n = counted > 0 ? counted : 1;
  table.add_row({"avg.", util::fixed(sum_c5 / n, 2), util::fixed(sum_co / n, 2),
                 imp_conflict.str(), util::fixed(sum_s5 / n, 2),
                 util::fixed(sum_so / n, 2), imp_stitch.str(),
                 util::sci(sum_k5 / n), util::sci(sum_ko / n), imp_cost.str(),
                 util::fixed(sum_t5 / n, 2), util::fixed(sum_to / n, 2),
                 speedup.str()});
  table.print();

  std::printf("\npaper reference (avg.): conflicts -81.17%%, stitches -76.89%%, "
              "cost -0.51%%, speedup 5.41x\n");
  return 0;
}
