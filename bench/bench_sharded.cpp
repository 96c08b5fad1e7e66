/// \file bench_sharded.cpp
/// Production-scale sharded-routing bench: routes a registered production
/// scenario through MrTplRouter's tile walk (RouterConfig::shard_tiles,
/// rrr_threads) and emits ONE JSON OBJECT PER LINE on stdout (append to
/// BENCH_sharded.json), recording wall time, peak RSS, the host (nproc,
/// build type — a 1-core figure is not a parallel result), and an FNV-1a
/// hash of the serialized solution. The hash is the determinism contract
/// in portable form — every (tiles, threads) configuration of the same
/// scenario must print the same hash. tiles=1 or threads=1 routes
/// serially (speculated 0). The sign-off after routing is timed per
/// stage: eval_s (metrics), drc_s (independent DRC), serialize_s.
///
///   {"bench":"sharded","scenario":"production_grid_10k","die":960,
///    "nets":10000,"tiles":16,"grid_dim":4,"threads":8,"nproc":4,
///    "build":"Release","gen_s":..,"gr_s":..,"route_s":..,"eval_s":..,
///    "drc_s":..,"serialize_s":..,"total_s":..,"peak_rss_mb":..,
///    "speculated":..,"respeculated":..,"relaxations":..,"conflicts":0,
///    "failed":0,"wirelength":..,"hash":"f00..."}
///
/// Every config also checks the applied-work ledger — the per-pass
/// relaxation counts must sum to stats.relaxations — and the DRC report,
/// which must be clean; either failure aborts the driver (the executor
/// lost or double-counted search work, or committed an illegal layout).
///
/// Two modes:
///   * Matrix mode (default / --quick): sweeps tiles {1,4,16} x threads
///     {1,2,8} in-process and ABORTS if any config's hash differs from
///     the serial reference. peak_rss_mb is a process-wide high-water
///     mark, so in this mode it is only an upper bound per config.
///   * Single-config mode (--tiles K --threads T): one configuration per
///     process, which is the only way ru_maxrss is honest per config.
///     The driver script runs one process per matrix point and compares
///     hashes across the emitted lines.
///
/// Usage: bench_sharded [--quick] [--scenario NAME] [--tiles K]
///                      [--threads T] [--dump FILE]
///   --quick          use the scenario's CI-scale quick variant
///   --scenario NAME  registry name (default production_grid_10k)
///   --dump FILE      write the serialized solution (CI `cmp` fodder)

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "drc/checker.hpp"
#include "eval/metrics.hpp"
#include "global/global_router.hpp"
#include "grid/routing_grid.hpp"
#include "io/solution_io.hpp"
#include "scenario/scenario.hpp"
#include "shard/tile_plan.hpp"
#include "util/resource.hpp"
#include "util/timer.hpp"

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct BenchRun {
  double gr_s = 0.0;
  double route_s = 0.0;
  double eval_s = 0.0;
  double drc_s = 0.0;
  double serialize_s = 0.0;
  double total_s = 0.0;
  mrtpl::core::RouterStats stats;
  mrtpl::eval::Metrics metrics;
  int grid_dim = 0;
  std::uint64_t hash = 0;
  std::string serialized;
};

BenchRun run_config(const mrtpl::db::Design& design,
                    const mrtpl::global::GuideSet& guides, int tiles,
                    int threads) {
  using namespace mrtpl;
  BenchRun r;
  util::Timer total;
  core::RouterConfig config;
  config.shard_tiles = tiles;
  config.rrr_threads = threads;
  grid::RoutingGrid grid(design);
  util::Timer route;
  core::MrTplRouter router(design, &guides, config);
  const grid::Solution sol = router.run(grid);
  r.route_s = route.elapsed_s();
  r.grid_dim = shard::TilePlan(design.die(), tiles).grid_dim();
  r.stats = router.stats();
  const auto ledger =
      std::accumulate(r.stats.relaxations_per_pass.begin(),
                      r.stats.relaxations_per_pass.end(), std::uint64_t{0});
  if (ledger != r.stats.relaxations) {
    std::fprintf(stderr,
                 "[sharded] FATAL: tiles=%d threads=%d relaxations_per_pass "
                 "sums to %llu but stats.relaxations is %llu\n",
                 tiles, threads, static_cast<unsigned long long>(ledger),
                 static_cast<unsigned long long>(r.stats.relaxations));
    std::abort();
  }
  util::Timer eval_timer;
  r.metrics = eval::evaluate(grid, sol, &guides);
  r.eval_s = eval_timer.elapsed_s();
  util::Timer drc_timer;
  const drc::DrcReport drc = drc::verify(grid, design, sol);
  r.drc_s = drc_timer.elapsed_s();
  if (!drc.clean()) {
    std::fprintf(stderr, "[sharded] FATAL: tiles=%d threads=%d: DRC violations\n%s",
                 tiles, threads, drc.summary().c_str());
    std::abort();
  }
  util::Timer serialize_timer;
  r.serialized = io::solution_to_string(grid, sol);
  r.serialize_s = serialize_timer.elapsed_s();
  r.hash = fnv1a(r.serialized);
  r.total_s = total.elapsed_s();
  return r;
}

void emit_json(const std::string& scenario, const mrtpl::db::Design& design,
               int tiles, int threads, double gen_s, double gr_s,
               const BenchRun& r) {
  std::printf(
      "{\"bench\":\"sharded\",\"scenario\":\"%s\",\"die\":%d,\"nets\":%d,"
      "\"tiles\":%d,\"grid_dim\":%d,\"threads\":%d,\"nproc\":%u,"
      "\"build\":\"%s\",\"gen_s\":%.3f,\"gr_s\":%.3f,\"route_s\":%.3f,"
      "\"eval_s\":%.3f,\"drc_s\":%.3f,\"serialize_s\":%.3f,\"total_s\":%.3f,"
      "\"peak_rss_mb\":%.1f,\"speculated\":%d,"
      "\"respeculated\":%d,\"relaxations\":%llu,\"conflicts\":%d,"
      "\"failed\":%d,\"wirelength\":%lld,\"hash\":\"%016" PRIx64 "\"}\n",
      scenario.c_str(), design.die().width(), design.num_nets(), tiles,
      r.grid_dim, threads, std::thread::hardware_concurrency(), MRTPL_BUILD_TYPE,
      gen_s, gr_s, r.route_s, r.eval_s, r.drc_s, r.serialize_s,
      gen_s + gr_s + r.total_s,
      mrtpl::util::peak_rss_mb(), r.stats.speculated, r.stats.respeculated,
      static_cast<unsigned long long>(r.stats.relaxations),
      r.metrics.conflicts, r.metrics.failed_nets,
      static_cast<long long>(r.metrics.wirelength), r.hash);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrtpl;
  bool quick = false;
  std::string scenario_name = "production_grid_10k";
  std::string dump_path;
  int one_tiles = 0, one_threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario_name = argv[++i];
    } else if (std::strcmp(argv[i], "--dump") == 0 && i + 1 < argc) {
      dump_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tiles") == 0 && i + 1 < argc) {
      one_tiles = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      one_threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "bench_sharded: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }

  const scenario::ScenarioSpec* sc =
      scenario::ScenarioRegistry::builtin().find(scenario_name);
  if (sc == nullptr) {
    std::fprintf(stderr, "bench_sharded: no scenario named '%s'\n",
                 scenario_name.c_str());
    return 2;
  }
  const benchgen::CaseSpec& spec = sc->spec(quick);

  std::fprintf(stderr, "[sharded] %s: %dx%d die, %d nets ...\n",
               spec.name.c_str(), spec.width, spec.height, spec.num_nets);
  util::Timer gen_timer;
  const db::Design design = benchgen::generate(spec);
  const double gen_s = gen_timer.elapsed_s();

  // Same global-route configuration the scenario runner uses, so bench
  // numbers describe the exact suite flow.
  util::Timer gr_timer;
  global::GlobalConfig gconfig;
  gconfig.hard_spanning_blockages = true;
  global::GlobalRouter gr(design, gconfig);
  const global::GuideSet guides = gr.route_all();
  const double gr_s = gr_timer.elapsed_s();
  std::fprintf(stderr, "[sharded] gen %.2fs, global route %.2fs\n", gen_s,
               gr_s);

  if (one_tiles > 0 || one_threads > 0) {
    // Single-config mode: one process = one honest ru_maxrss sample.
    const int tiles = one_tiles > 0 ? one_tiles : 1;
    const int threads = one_threads > 0 ? one_threads : 1;
    const BenchRun r = run_config(design, guides, tiles, threads);
    emit_json(spec.name, design, tiles, threads, gen_s, gr_s, r);
    if (!dump_path.empty()) {
      std::FILE* f = std::fopen(dump_path.c_str(), "wb");
      if (f == nullptr) {
        std::fprintf(stderr, "bench_sharded: cannot write '%s'\n",
                     dump_path.c_str());
        return 1;
      }
      std::fwrite(r.serialized.data(), 1, r.serialized.size(), f);
      std::fclose(f);
    }
    return 0;
  }

  // Matrix mode: every config must hash-match the serial reference.
  std::uint64_t reference_hash = 0;
  bool have_reference = false;
  for (const int tiles : {1, 4, 16}) {
    for (const int threads : {1, 2, 8}) {
      const BenchRun r = run_config(design, guides, tiles, threads);
      emit_json(spec.name, design, tiles, threads, gen_s, gr_s, r);
      if (!have_reference) {
        reference_hash = r.hash;
        have_reference = true;
        if (!dump_path.empty()) {
          std::FILE* f = std::fopen(dump_path.c_str(), "wb");
          if (f == nullptr) {
            std::fprintf(stderr, "bench_sharded: cannot write '%s'\n",
                         dump_path.c_str());
            return 1;
          }
          std::fwrite(r.serialized.data(), 1, r.serialized.size(), f);
          std::fclose(f);
        }
      } else if (r.hash != reference_hash) {
        std::fprintf(stderr,
                     "[sharded] FATAL: tiles=%d threads=%d diverged from the "
                     "serial reference (hash %016" PRIx64 " vs %016" PRIx64
                     ") — the sharded executor broke byte-identity\n",
                     tiles, threads, r.hash, reference_hash);
        return 1;
      }
    }
  }
  std::fprintf(stderr, "[sharded] all 9 configs hash-identical\n");
  return 0;
}
