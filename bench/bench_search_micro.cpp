/// \file bench_search_micro.cpp
/// Micro-benchmark **M1**: search-kernel throughput.
///
/// Two modes:
///
///  * default (google-benchmark): Mr.TPL's single-label color-state
///    search vs the DAC-2012 12-node expanded graph on identical
///    single-net instances — the mechanical source of Table II's runtime
///    column (label-space size). All google-benchmark flags pass through.
///
///  * `--compare [--thresholds FILE]`: old-vs-new hot path on the die-112
///    scaling recipe. "Old" runs the legacy engines (binary heap queue +
///    per-relaxation Dcolor window scans), "new" the defaults (bucket
///    queue + precomputed congestion field). Both orders are pinned to
///    the same (quantized key, push sequence) contract, so the run ABORTS
///    unless the two serialized solutions are byte-identical; it then
///    reports the reroute-phase speedup and, when a thresholds file is
///    given, FAILS (exit 1) if the speedup or the relaxation count
///    regresses past the recorded bounds. CI's perf-smoke job runs this
///    against bench/perf_thresholds.json.
///
///    Thresholds file (flat JSON, hand-parsed):
///      {"min_speedup": <min old/new reroute-time ratio>,
///       "max_relaxations": <ceiling on the new engine's relaxations>}
///    min_speedup gates wall time as a same-process RATIO (machine-speed
///    independent); max_relaxations is an exact deterministic count
///    recorded at 1.1x the measured value, so any >10% search-effort
///    regression fails even when the timing ratio is too noisy to.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "baseline/dac12_router.hpp"
#include "core/mrtpl_router.hpp"
#include "db/design.hpp"
#include "flow.hpp"
#include "io/solution_io.hpp"

#ifdef MRTPL_HAVE_GOOGLE_BENCHMARK
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace mrtpl;

db::Design span_design(int span) {
  db::Design d("micro", db::Tech::make_default(4, 2), {0, 0, 127, 127});
  const db::NetId n = d.add_net("n");
  db::Pin p;
  p.layer = 0;
  p.shapes = {{4, 64, 4, 64}};
  d.add_pin(n, p);
  p.shapes = {{4 + span, 64, 4 + span, 64}};
  d.add_pin(n, p);
  p.shapes = {{4 + span / 2, 64 - span / 3, 4 + span / 2, 64 - span / 3}};
  d.add_pin(n, p);
  d.validate();
  return d;
}

#ifdef MRTPL_HAVE_GOOGLE_BENCHMARK
void BM_MrTplSearch(benchmark::State& state) {
  const db::Design d = span_design(static_cast<int>(state.range(0)));
  core::RouterConfig cfg;
  for (auto _ : state) {
    grid::RoutingGrid g(d);
    core::MrTplRouter router(d, nullptr, cfg);
    core::ColorSearch search(g, cfg);
    benchmark::DoNotOptimize(router.route_net(g, search, 0));
  }
  state.SetLabel("3-pin net, single-label color-state search");
}
BENCHMARK(BM_MrTplSearch)->Arg(16)->Arg(48)->Arg(96)->Unit(benchmark::kMillisecond);

void BM_Dac12Search(benchmark::State& state) {
  const db::Design d = span_design(static_cast<int>(state.range(0)));
  core::RouterConfig cfg;
  for (auto _ : state) {
    grid::RoutingGrid g(d);
    baseline::Dac12Router router(d, nullptr, cfg);
    benchmark::DoNotOptimize(router.route_net(g, 0));
  }
  state.SetLabel("3-pin net, 12-node expanded graph");
}
BENCHMARK(BM_Dac12Search)->Arg(16)->Arg(48)->Arg(96)->Unit(benchmark::kMillisecond);
#endif  // MRTPL_HAVE_GOOGLE_BENCHMARK

/// Pull one numeric value out of the flat thresholds JSON. Returns NaN
/// when the key is absent.
double parse_threshold(const std::string& text, const char* key) {
  const auto pos = text.find(std::string{"\""} + key + "\"");
  if (pos == std::string::npos) return std::nan("");
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

struct CompareRun {
  core::RouterStats stats;
  std::string serialized;
};

int run_compare(const char* thresholds_path) {
  // The bench_scaling die-112 recipe: the largest standard case.
  benchgen::CaseSpec spec;
  spec.name = "rrr112";
  spec.width = spec.height = 112;
  spec.num_nets = 112 * 112 / 38;
  spec.num_macros = 112 / 24;
  spec.seed = 9000u + 112u;
  std::fprintf(stderr, "[search_micro] --compare: die 112x112, %d nets\n",
               spec.num_nets);
  const bench::CaseContext ctx = bench::prepare_case(spec);

  auto run_with = [&ctx](bool bucket, bool field) {
    grid::RoutingGrid grid(ctx.design);
    core::RouterConfig cfg;
    cfg.use_bucket_queue = bucket;
    cfg.precomputed_congestion = field;
    core::MrTplRouter router(ctx.design, &ctx.guides, cfg);
    const grid::Solution sol = router.run(grid);
    return CompareRun{router.stats(), io::solution_to_string(grid, sol)};
  };

  // Two timed rounds each, interleaved; keep the faster round per engine
  // so one scheduler hiccup can't decide the ratio.
  CompareRun old_run = run_with(false, false);
  CompareRun new_run = run_with(true, true);
  {
    const CompareRun old2 = run_with(false, false);
    const CompareRun new2 = run_with(true, true);
    if (old2.stats.reroute_s < old_run.stats.reroute_s) old_run = old2;
    if (new2.stats.reroute_s < new_run.stats.reroute_s) new_run = new2;
  }

  if (old_run.serialized != new_run.serialized) {
    std::fprintf(stderr,
                 "[search_micro] FATAL: legacy and new engines diverged — "
                 "the (qkey, seq) order contract is broken\n");
    return 2;
  }

  const double speedup = old_run.stats.reroute_s / new_run.stats.reroute_s;
  std::printf(
      "{\"bench\":\"search_micro_compare\",\"die\":112,\"nets\":%d,"
      "\"old_reroute_s\":%.6f,\"new_reroute_s\":%.6f,\"speedup\":%.3f,"
      "\"old_relaxations\":%llu,\"new_relaxations\":%llu,"
      "\"identical\":true}\n",
      spec.num_nets, old_run.stats.reroute_s, new_run.stats.reroute_s, speedup,
      static_cast<unsigned long long>(old_run.stats.relaxations),
      static_cast<unsigned long long>(new_run.stats.relaxations));
  std::fflush(stdout);

  if (thresholds_path == nullptr) return 0;
  std::ifstream in(thresholds_path);
  if (!in) {
    std::fprintf(stderr, "[search_micro] cannot read thresholds file %s\n",
                 thresholds_path);
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const double min_speedup = parse_threshold(buf.str(), "min_speedup");
  const double max_relax = parse_threshold(buf.str(), "max_relaxations");
  int rc = 0;
  if (min_speedup == min_speedup && speedup < min_speedup) {
    std::fprintf(stderr,
                 "[search_micro] FAIL: speedup %.3f below threshold %.3f\n",
                 speedup, min_speedup);
    rc = 1;
  }
  if (max_relax == max_relax &&
      static_cast<double>(new_run.stats.relaxations) > max_relax) {
    std::fprintf(stderr,
                 "[search_micro] FAIL: relaxations %llu above threshold %.0f\n",
                 static_cast<unsigned long long>(new_run.stats.relaxations),
                 max_relax);
    rc = 1;
  }
  if (rc == 0)
    std::fprintf(stderr, "[search_micro] thresholds OK (speedup %.2fx)\n",
                 speedup);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const char* thresholds = nullptr;
  bool compare = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare") == 0) compare = true;
    if (std::strcmp(argv[i], "--thresholds") == 0 && i + 1 < argc)
      thresholds = argv[i + 1];
  }
  if (compare) return run_compare(thresholds);
#ifdef MRTPL_HAVE_GOOGLE_BENCHMARK
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "bench_search_micro: built without google-benchmark; only "
               "--compare mode is available\n");
  return 1;
#endif
}
