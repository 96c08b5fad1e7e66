/// \file bench_table3.cpp
/// Regenerates **Table III** of the paper: Mr.TPL vs OpenMPL-style
/// post-routing layout decomposition [2] on the ISPD-2019-like suite —
/// conflicts and stitches per case with improvement columns and averages.
/// Paper reference: −98.66% conflicts, −70.88% stitches on average.
///
/// Run with --quick to use only the first 4 cases.

#include <cstdio>
#include <cstring>
#include <string>

#include "eval/report.hpp"
#include "flow.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mrtpl;
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  auto suite = benchgen::ispd2019_suite();
  if (quick) suite.resize(4);

  std::printf("== Table III: Mr.TPL vs layout decomposition (OpenMPL-like) [2] "
              "(ISPD-2019-like synthetic suite) ==\n\n");

  eval::Table table({"case", "conflict[2]", "conflict", "imp.", "stitch[2]",
                     "stitch", "imp."});

  double sum_c2 = 0, sum_co = 0, sum_s2 = 0, sum_so = 0;
  int counted = 0;
  util::ImprovementAvg imp_conflict, imp_stitch;
  for (const auto& spec : suite) {
    std::fprintf(stderr, "[table3] %s ...\n", spec.name.c_str());
    const bench::CaseContext ctx = bench::prepare_case(spec);
    const bench::FlowResult dec = bench::run_decompose(ctx);
    const bench::FlowResult ours = bench::run_mrtpl(ctx, bench::paper_config());

    table.add_row({spec.name,
                   std::to_string(dec.metrics.conflicts),
                   std::to_string(ours.metrics.conflicts),
                   util::improvement(dec.metrics.conflicts, ours.metrics.conflicts),
                   std::to_string(dec.metrics.stitches),
                   std::to_string(ours.metrics.stitches),
                   util::improvement(dec.metrics.stitches, ours.metrics.stitches)});
    sum_c2 += dec.metrics.conflicts;
    sum_co += ours.metrics.conflicts;
    sum_s2 += dec.metrics.stitches;
    sum_so += ours.metrics.stitches;
    ++counted;
    imp_conflict.add(dec.metrics.conflicts, ours.metrics.conflicts);
    imp_stitch.add(dec.metrics.stitches, ours.metrics.stitches);
  }
  // Paper-style avg.: mean of per-case improvement percentages.
  const double n = counted > 0 ? counted : 1;
  table.add_row({"avg.", util::fixed(sum_c2 / n, 2), util::fixed(sum_co / n, 2),
                 imp_conflict.str(), util::fixed(sum_s2 / n, 2),
                 util::fixed(sum_so / n, 2), imp_stitch.str()});
  table.print();

  std::printf("\npaper reference (avg.): conflicts -98.66%%, stitches -70.88%%\n");
  return 0;
}
