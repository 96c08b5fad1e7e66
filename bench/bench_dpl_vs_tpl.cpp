/// \file bench_dpl_vs_tpl.cpp
/// Extension experiment **A4**: double vs triple patterning. The DAC-2012
/// baseline paper's own framing ("Triple patterning aware routing and its
/// comparison with double patterning aware routing in 14nm technology")
/// is reproduced on our substrate: the same cases routed with num_masks=2
/// (DPL) and num_masks=3 (TPL). With one mask fewer, locally dense
/// regions saturate earlier, so DPL must pay in conflicts and stitches —
/// quantifying why the industry moved to TPL for these pitches.

#include <cstdio>

#include "eval/report.hpp"
#include "flow.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mrtpl;
  const bool quick = bench::parse_quick(argc, argv);

  std::printf("== Extension A4: double vs triple patterning (Mr.TPL router) ==\n\n");

  auto suite = benchgen::ispd2018_suite();
  suite.resize(quick ? 2 : 5);

  eval::Table table({"case", "masks", "conflict", "stitch", "cost", "time(s)"});
  for (auto spec : suite) {
    for (const int masks : {3, 2}) {
      benchgen::CaseSpec variant = spec;
      const bench::CaseContext ctx = [&] {
        bench::CaseContext c{benchgen::generate(variant), {}};
        global::GlobalRouter gr(c.design);
        c.guides = gr.route_all();
        return c;
      }();
      // Rewrite the rule on a copy of the design via a fresh tech: easier
      // to regenerate with the spec-level knob.
      db::TechRules rules = ctx.design.tech().rules();
      rules.num_masks = masks;
      db::Design design(ctx.design.name(),
                        db::Tech::make_default(variant.num_layers,
                                               variant.tpl_layers, rules),
                        ctx.design.die());
      for (const auto& net : ctx.design.nets()) {
        const db::NetId id = design.add_net(net.name);
        for (const auto& pin : net.pins) design.add_pin(id, pin);
      }
      for (const auto& obs : ctx.design.obstacles()) design.add_obstacle(obs);
      design.validate();

      grid::RoutingGrid grid(design);
      util::Timer timer;
      core::MrTplRouter router(design, &ctx.guides, core::RouterConfig{});
      const grid::Solution sol = router.run(grid);
      const double seconds = timer.elapsed_s();
      const eval::Metrics m = eval::evaluate(grid, sol, &ctx.guides);
      table.add_row({masks == 3 ? spec.name : "",
                     masks == 3 ? "TPL (3)" : "DPL (2)",
                     std::to_string(m.conflicts), std::to_string(m.stitches),
                     util::sci(m.cost), util::fixed(seconds, 2)});
    }
  }
  table.print();
  std::printf("\nexpectation: DPL >= TPL on conflicts; gap widens with density\n");
  return 0;
}
