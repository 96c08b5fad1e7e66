/// \file bench_ablation_refine.cpp
/// Ablation **A6**: how much does a post-hoc recoloring repair pass
/// (layout/recolor.hpp) recover on each flow's output? The paper's thesis
/// is that coloring *during* routing beats coloring/repairing *after*
/// routing; if that is right, the repair pass should find substantial
/// headroom on the one-pass DAC-2012 output and on the decomposed layout,
/// but almost none on Mr.TPL's.

#include <cstdio>

#include "eval/report.hpp"
#include "flow.hpp"
#include "layout/recolor.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mrtpl;
  bench::parse_quick(argc, argv, /*allow_quick=*/false);
  std::printf("== Ablation A6: post-hoc recolor repair headroom per flow ==\n\n");

  eval::Table table({"case", "flow", "conflict", "  +refine", "stitch",
                     "  +refine", "moves"});

  auto run_one = [&](const benchgen::CaseSpec& spec, const char* flow_name,
                     auto&& flow_fn) {
    const bench::CaseContext ctx = bench::prepare_case(spec);
    grid::RoutingGrid grid(ctx.design);
    const grid::Solution sol = flow_fn(ctx, grid);
    const eval::Metrics before = eval::evaluate(grid, sol, &ctx.guides);
    const layout::RecolorStats stats = layout::recolor_refine(grid, sol);
    const eval::Metrics after = eval::evaluate(grid, sol, &ctx.guides);
    table.add_row({spec.name, flow_name, std::to_string(before.conflicts),
                   std::to_string(after.conflicts),
                   std::to_string(before.stitches),
                   std::to_string(after.stitches), std::to_string(stats.moves)});
  };

  auto suite = benchgen::ispd2018_suite();
  for (size_t i : {size_t{4}, size_t{7}}) {  // a mid and a dense case
    const auto& spec = suite[i];
    std::fprintf(stderr, "[refine] %s ...\n", spec.name.c_str());
    run_one(spec, "mrtpl", [](const bench::CaseContext& ctx, grid::RoutingGrid& g) {
      core::MrTplRouter router(ctx.design, &ctx.guides, core::RouterConfig{});
      return router.run(g);
    });
    run_one(spec, "dac12", [](const bench::CaseContext& ctx, grid::RoutingGrid& g) {
      baseline::Dac12Router router(ctx.design, &ctx.guides, bench::dac12_config());
      return router.run(g);
    });
    run_one(spec, "decompose",
            [](const bench::CaseContext& ctx, grid::RoutingGrid& g) {
              const grid::Solution sol =
                  baseline::route_plain(ctx.design, &ctx.guides, g);
              baseline::decompose(g, sol);
              return sol;
            });
  }
  table.print();
  std::printf("\nexpected shape: refine moves ~0 on mrtpl output, many on "
              "dac12/decompose — in-routing coloring leaves no repair "
              "headroom (the paper's thesis).\n");
  return 0;
}
