/// \file bench_scaling.cpp
/// Runtime scaling: the paper attributes the 5.4x speedup to the
/// baseline's mask-expanded graph ("splits each vertice into 12 vertices")
/// — a constant-factor blowup of the search frontier that compounds with
/// instance size. This bench sweeps die edge length at fixed density and
/// prints runtime and relaxation counts for both routers, plus the
/// baseline/Mr.TPL ratio per size. The ratio should be large and roughly
/// flat-to-growing (both are near-linear in routed area; the expanded
/// graph pays ~3x nodes x 4 arrival arcs per relaxation).
///
/// Two columns ride along: `shard(s)` routes the same case through the
/// tile walk (shard_tiles=4, rrr_threads=2) — its solution must byte-match
/// the serial Mr.TPL run, making every sweep a scaling regression — and
/// `rss(MB)` samples getrusage peak RSS after each row so the "K tile
/// views cost O(die), not K x O(die)" claim is measured, not asserted.
/// ru_maxrss is a process high-water mark: the column may only grow down
/// the table, and per-config deltas live in bench_sharded's
/// one-process-per-config mode.

#include <cstdio>
#include <cstdlib>

#include "core/mrtpl_router.hpp"
#include "eval/report.hpp"
#include "flow.hpp"
#include "io/solution_io.hpp"
#include "util/resource.hpp"
#include "util/strings.hpp"

namespace {

/// Sharded Mr.TPL flow (tiles=4, threads=2) with the byte-identity check
/// against the serial solution built in.
mrtpl::bench::FlowResult run_sharded(const mrtpl::bench::CaseContext& ctx,
                                     const std::string& serial_solution) {
  using namespace mrtpl;
  core::RouterConfig config;
  config.shard_tiles = 4;
  config.rrr_threads = 2;
  grid::RoutingGrid grid(ctx.design);
  util::Timer timer;
  core::MrTplRouter router(ctx.design, &ctx.guides, config);
  const grid::Solution sol = router.run(grid);
  bench::FlowResult r;
  r.runtime_s = timer.elapsed_s();
  r.relaxations = router.stats().relaxations;
  r.metrics = eval::evaluate(grid, sol, &ctx.guides);
  if (io::solution_to_string(grid, sol) != serial_solution) {
    std::fprintf(stderr,
                 "[scaling] FATAL: sharded solution diverged from serial — "
                 "the sharded executor broke byte-identity\n");
    std::abort();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrtpl;
  bench::parse_quick(argc, argv, /*allow_quick=*/false);
  std::printf("== Scaling sweep: runtime vs die size (fixed density) ==\n\n");

  eval::Table table({"die", "nets", "time[5](s)", "time(s)", "shard(s)",
                     "speedup", "relax[5](M)", "relax(M)", "ratio",
                     "rss(MB)"});

  for (const int edge : {48, 64, 80, 96, 112}) {
    benchgen::CaseSpec spec;
    spec.name = "scale" + std::to_string(edge);
    spec.width = spec.height = edge;
    // Fixed density: nets scale with area (~1 net per 38 tracks^2).
    spec.num_nets = edge * edge / 38;
    spec.num_macros = edge / 24;
    spec.seed = 9000u + static_cast<std::uint64_t>(edge);

    std::fprintf(stderr, "[scaling] die %dx%d ...\n", edge, edge);
    const bench::CaseContext ctx = bench::prepare_case(spec);
    const bench::FlowResult base = bench::run_dac12(ctx);
    const bench::FlowResult ours = bench::run_mrtpl(ctx);

    // Serialize the serial solution once for the sharded identity check.
    std::string serial_solution;
    {
      grid::RoutingGrid grid(ctx.design);
      core::MrTplRouter router(ctx.design, &ctx.guides, core::RouterConfig{});
      serial_solution = io::solution_to_string(grid, router.run(grid));
    }
    const bench::FlowResult shard = run_sharded(ctx, serial_solution);

    table.add_row(
        {std::to_string(edge) + "x" + std::to_string(edge),
         std::to_string(spec.num_nets), util::fixed(base.runtime_s, 2),
         util::fixed(ours.runtime_s, 2), util::fixed(shard.runtime_s, 2),
         ours.runtime_s > 0
             ? util::fixed(base.runtime_s / ours.runtime_s, 2) + "x"
             : "-",
         util::fixed(static_cast<double>(base.relaxations) / 1e6, 2),
         util::fixed(static_cast<double>(ours.relaxations) / 1e6, 2),
         ours.relaxations > 0
             ? util::fixed(static_cast<double>(base.relaxations) /
                               static_cast<double>(ours.relaxations),
                           2) + "x"
             : "-",
         util::fixed(util::peak_rss_mb(), 1)});
  }
  table.print();
  std::printf("\nexpected shape: speedup > 1 at every size, driven by the "
              "relaxation ratio of the expanded graph; shard(s) tracks "
              "time(s) (identical output, tile-parallel schedule).\n");
  return 0;
}
