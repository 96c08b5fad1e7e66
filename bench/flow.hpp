#pragma once
/// \file flow.hpp
/// Shared experiment flows for the bench harness: run a CaseSpec through
/// (global route -> detailed route -> evaluate) for each router under
/// comparison. Used by every table/figure regeneration binary.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "baseline/dac12_router.hpp"
#include "baseline/decomposer.hpp"
#include "baseline/plain_router.hpp"
#include "benchgen/case_spec.hpp"
#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "eval/metrics.hpp"
#include "global/global_router.hpp"
#include "util/timer.hpp"

namespace mrtpl::bench {

/// Command line of the table and ablation drivers: returns whether
/// `--quick` was given. Any other word prints the usage and exits 2, so a
/// typo such as `--quik` cannot silently run the full sweep. Drivers
/// without a quick variant pass `allow_quick = false` and take no
/// argument at all.
inline bool parse_quick(int argc, char** argv, bool allow_quick = true) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (allow_quick && std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      continue;
    }
    std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s%s\n", argv[0],
                 argv[i], argv[0], allow_quick ? " [--quick]" : "");
    std::exit(2);
  }
  return quick;
}

struct FlowResult {
  eval::Metrics metrics;
  double runtime_s = 0.0;
  std::uint64_t relaxations = 0;
};

struct CaseContext {
  db::Design design;
  global::GuideSet guides;
};

inline CaseContext prepare_case(const benchgen::CaseSpec& spec) {
  CaseContext ctx{benchgen::generate(spec), {}};
  global::GlobalRouter gr(ctx.design);
  ctx.guides = gr.route_all();
  return ctx;
}

/// Configuration of the paper-table harnesses (bench_table2/table3): the
/// color-state search runs as Algorithm 2 is published — plain Dijkstra,
/// not the default A* — so the reproduced tables do not move with it.
inline core::RouterConfig paper_config() {
  core::RouterConfig config;
  config.use_astar = false;
  return config;
}

/// Mr.TPL flow (Table II "ours", Table III "ours").
inline FlowResult run_mrtpl(const CaseContext& ctx,
                            core::RouterConfig config = {}) {
  grid::RoutingGrid grid(ctx.design);
  util::Timer timer;
  core::MrTplRouter router(ctx.design, &ctx.guides, config);
  const grid::Solution sol = router.run(grid);
  FlowResult r;
  r.runtime_s = timer.elapsed_s();
  r.relaxations = router.stats().relaxations;
  r.metrics = eval::evaluate(grid, sol, &ctx.guides);
  return r;
}

/// Default configuration of the DAC-2012 baseline: the published 2012
/// flow commits colors in one routing pass; its rip-up handles only
/// unroutable nets. Negotiated color-conflict RRR with history cost is
/// part of Mr.TPL's Fig. 2 flow, not the baseline's (see
/// baseline/dac12_router.hpp for the two properties the replica keeps).
inline core::RouterConfig dac12_config() {
  core::RouterConfig config;
  config.rrr_on_color_conflicts = false;
  return config;
}

/// DAC-2012 baseline flow (Table II "[5]").
inline FlowResult run_dac12(const CaseContext& ctx,
                            core::RouterConfig config = dac12_config()) {
  grid::RoutingGrid grid(ctx.design);
  util::Timer timer;
  baseline::Dac12Router router(ctx.design, &ctx.guides, config);
  const grid::Solution sol = router.run(grid);
  FlowResult r;
  r.runtime_s = timer.elapsed_s();
  r.relaxations = router.stats().relaxations;
  r.metrics = eval::evaluate(grid, sol, &ctx.guides);
  return r;
}

/// Route-then-decompose flow (Table III "[2]"): colorless routing (the
/// Dr.CU stand-in, on the paper_config() search) followed by
/// OpenMPL-style decomposition.
inline FlowResult run_decompose(const CaseContext& ctx,
                                baseline::DecomposerConfig dconfig = {}) {
  grid::RoutingGrid grid(ctx.design);
  util::Timer timer;
  const grid::Solution sol =
      baseline::route_plain(ctx.design, &ctx.guides, grid, paper_config());
  baseline::decompose(grid, sol, dconfig);
  FlowResult r;
  r.runtime_s = timer.elapsed_s();
  r.metrics = eval::evaluate(grid, sol, &ctx.guides);
  return r;
}

}  // namespace mrtpl::bench
