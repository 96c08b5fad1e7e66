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
///  * `--gate [--thresholds FILE]`: one run of the default engine on the
///    die-112 scaling recipe. Prints the reroute-phase wall time and the
///    applied relaxation count and, when a thresholds file is given,
///    FAILS (exit 1) if the relaxations exceed the recorded ceiling. CI's
///    perf-smoke job runs this against bench/perf_thresholds.json.
///
///    Thresholds file (flat JSON, hand-parsed):
///      {"max_relaxations": <ceiling on the run's relaxations>}
///    max_relaxations is an exact deterministic count recorded at 1.1x
///    the measured value, so any >10% search-effort regression fails
///    whatever the machine's speed or load.

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

int run_gate(const char* thresholds_path) {
  // The bench_scaling die-112 recipe: the largest standard case.
  benchgen::CaseSpec spec;
  spec.name = "rrr112";
  spec.width = spec.height = 112;
  spec.num_nets = 112 * 112 / 38;
  spec.num_macros = 112 / 24;
  spec.seed = 9000u + 112u;
  std::fprintf(stderr, "[search_micro] --gate: die 112x112, %d nets\n",
               spec.num_nets);
  const bench::CaseContext ctx = bench::prepare_case(spec);

  grid::RoutingGrid grid(ctx.design);
  core::MrTplRouter router(ctx.design, &ctx.guides);
  (void)router.run(grid);
  const core::RouterStats& stats = router.stats();
  std::printf(
      "{\"bench\":\"search_micro_gate\",\"die\":112,\"nets\":%d,"
      "\"reroute_s\":%.6f,\"relaxations\":%llu}\n",
      spec.num_nets, stats.reroute_s,
      static_cast<unsigned long long>(stats.relaxations));
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
  const double max_relax = parse_threshold(buf.str(), "max_relaxations");
  if (max_relax == max_relax && static_cast<double>(stats.relaxations) > max_relax) {
    std::fprintf(stderr,
                 "[search_micro] FAIL: relaxations %llu above threshold %.0f\n",
                 static_cast<unsigned long long>(stats.relaxations), max_relax);
    return 1;
  }
  std::fprintf(stderr, "[search_micro] thresholds OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* thresholds = nullptr;
  bool gate = false;
  bool benchmark_flags = false;  // left for google-benchmark's own parser
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0)
      gate = true;
    else if (std::strcmp(argv[i], "--thresholds") == 0 && i + 1 < argc)
      thresholds = argv[++i];
    else if (std::strncmp(argv[i], "--benchmark_", 12) == 0)
      benchmark_flags = true;
    else
      usage_error = true;
  }
  if (usage_error || (gate && benchmark_flags) || (!gate && thresholds != nullptr)) {
    std::fprintf(stderr,
                 "usage: bench_search_micro [--benchmark_<flag>...]\n"
                 "       bench_search_micro --gate [--thresholds FILE]\n");
    return 2;
  }
  if (gate) return run_gate(thresholds);
#ifdef MRTPL_HAVE_GOOGLE_BENCHMARK
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "bench_search_micro: built without google-benchmark; only "
               "--gate mode is available\n");
  return 1;
#endif
}
