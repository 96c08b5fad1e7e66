/// \file perfbench.cpp
/// The repository benchmark (see README.md beside this file). One process
/// runs one workload on inputs generated from --seed, checks that every
/// output is correct, and prints as its last stdout line one JSON object:
///
///   {"correct":true,"attempted":N,"failed":0,"metrics":{"flow_s":
///    {"value":9.41,"unit":"s"},...}}
///
/// With --trace 0 the metrics are the end-to-end set, measured untraced;
/// with --trace 1 they are the per-layer set, taken from spans recorded
/// around every call the benchmark makes into a layer's public API (the
/// span tree is also written to --trace-out). A record line with host
/// provenance and the raw counts precedes the result line. The process
/// exits 1 when any correctness check fails, 2 on bad arguments.
///
/// Usage: mrtpl_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                        [--quick] [--trace-out FILE] [--hash-dir DIR]
///                        [--source-id ID] [--git-sha SHA]

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/case_spec.hpp"
#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "drc/checker.hpp"
#include "eval/metrics.hpp"
#include "global/global_router.hpp"
#include "grid/routing_grid.hpp"
#include "io/solution_io.hpp"
#include "scenario/scenario.hpp"
#include "session/invariant_audit.hpp"
#include "session/router_session.hpp"
#include "trace.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

using namespace mrtpl;
using perfbench::Tracer;

constexpr const char* kWorkloads[] = {"grid10k", "grid10k_sharded", "eco"};

/// Batch set-up repetitions per process; setup_s is their median. A batch
/// set-up takes well under 0.1 s, so it is repeated enough to steady the
/// median. (An eco set-up takes seconds: one per process.)
constexpr int kBatchSetupReps = 15;
/// Flow repetitions per batch process, at least. The traced run needs two,
/// one traced and one untraced; an untraced process may stop after one
/// (run.py samples several processes, and their solutions are compared
/// through the hash cache).
constexpr int kMinFlowRepsTraced = 2;
/// ECO edits per run, at least: 112 samples leave 11 above p90, and 112 is
/// a whole number of 4-edit cycles. These first edits are the run's fixed
/// edit script: eco's flow_s times them, and the solution after them
/// hashes the same on every run of a seed.
constexpr int kMinEdits = 112;
constexpr int kMinEditsQuick = 8;
/// The ECO stream stops at this multiple of --seconds even if it is short
/// of kMinEdits, so a pathological slowdown cannot hang the run.
constexpr double kEcoTimeCap = 4.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string trace_out;
  std::string hash_dir;
  std::string source_id = "unknown";
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured and checked.
struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;  ///< failed correctness checks
  std::string raw_json;               ///< raw counts for the record line

  void fail(std::string problem) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", problem.c_str());
    problems.push_back(std::move(problem));
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Host provenance stamped into the record line and the trace file, so a
/// figure from a 1-core box is never read as a parallel result.
std::string provenance_json(const Args& a) {
  return "{\"workload\":" + json_string(a.workload) + ",\"seed\":" + std::to_string(a.seed) +
         ",\"seconds\":" + num(a.seconds) + ",\"trace\":" + (a.trace ? "1" : "0") +
         ",\"quick\":" + (a.quick ? "true" : "false") +
         ",\"nproc\":" + std::to_string(hardware_threads()) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + json_string(kCompiler) +
         ",\"git_sha\":" + json_string(a.git_sha) +
         ",\"source_id\":" + json_string(a.source_id) + "}";
}

/// Cross-run determinism: the first run that reaches `key` in this
/// checkout stores `value`; every later run must reproduce it. Returns an
/// empty string on a match or a fresh entry, else the mismatch.
std::string check_cached(const std::string& dir, const std::string& key,
                         const std::string& value) {
  if (dir.empty()) return "";
  namespace fs = std::filesystem;
  const fs::path path = fs::path(dir) / key;
  if (std::ifstream in{path}; in) {
    std::string stored;
    std::getline(in, stored);
    if (stored == value) return "";
    return key + ": solution hash " + value + " differs from " + stored +
           " recorded by an earlier run of the same seed";
  }
  fs::create_directories(dir);
  std::ofstream out{path};
  out << value << '\n';
  if (!out) throw std::runtime_error("cannot write " + path.string());
  return "";
}

/// A registered scenario's CaseSpec with its seed offset, so one --seed
/// picks one netlist and every seed a different one.
benchgen::CaseSpec scenario_spec(const char* name, bool quick, std::uint64_t seed_offset) {
  const scenario::ScenarioSpec* sc = scenario::ScenarioRegistry::builtin().find(name);
  if (sc == nullptr) throw std::runtime_error(std::string("no scenario ") + name);
  benchgen::CaseSpec spec = sc->spec(quick);
  spec.seed += seed_offset;
  return spec;
}

// ---- quality ---------------------------------------------------------------

/// The quality half of the end-to-end metrics, from one evaluated layout.
/// Conflicts, stitches, failures and DRC violations are zero on some seeds,
/// so they are reported as the share of live nets they leave clean
/// (1 - count / nets); wirelength and vias are normalized by the nets'
/// half-perimeter sum and count. Both forms are never zero and do not
/// swing with the size of the seed's netlist. The raw counts go to the
/// record line and the eval.* per-layer metrics.
void emit_quality(const db::Design& design, const eval::Metrics& m,
                  const drc::DrcReport& drc, std::vector<Metric>& out, std::string* raw) {
  long nets = 0, hpwl = 0;
  for (const db::Net& net : design.nets()) {
    if (net.degree() == 0) continue;  // removed by an ECO edit
    ++nets;
    const geom::Rect box = net.bbox();
    hpwl += box.width() + box.height() - 2;
  }
  const double n = static_cast<double>(std::max(1L, nets));
  const auto clean = [&](long count) { return 1.0 - static_cast<double>(count) / n; };
  const long violations = static_cast<long>(drc.violations.size());
  out.push_back({"conflict_clean_frac", clean(m.conflicts), "frac"});
  out.push_back({"stitch_clean_frac", clean(m.stitches), "frac"});
  out.push_back({"routed_frac", clean(m.failed_nets), "frac"});
  out.push_back({"drc_clean_frac", clean(violations), "frac"});
  out.push_back({"wl_ratio", static_cast<double>(m.wirelength) / static_cast<double>(std::max(1L, hpwl)),
                 "ratio"});
  out.push_back({"vias_per_net", static_cast<double>(m.vias) / n, "count"});
  *raw = "{\"conflicts\":" + std::to_string(m.conflicts) +
         ",\"stitches\":" + std::to_string(m.stitches) +
         ",\"failed_nets\":" + std::to_string(m.failed_nets) +
         ",\"drc_violations\":" + std::to_string(violations) +
         ",\"wirelength\":" + std::to_string(m.wirelength) + ",\"hpwl\":" + std::to_string(hpwl) +
         ",\"vias\":" + std::to_string(m.vias) + ",\"live_nets\":" + std::to_string(nets) + "}";
}

/// Per-layer metrics of the routing layers, from the args of the spans
/// named `route_span` (median over them). Layers a workload bypasses
/// report 0 (grid10k never speculates, for one).
void emit_router_layers(const Tracer& tr, const char* route_span, std::vector<Metric>& out) {
  const auto med = [&](const char* key) { return median(tr.values(route_span, key)); };
  const double relax = med("relaxations");
  const double route_s = med("route_s");
  const double speculated = med("speculated");
  out.push_back({"core.route_s", route_s, "s"});
  out.push_back({"core.relaxations", relax, "count"});
  out.push_back({"core.relax_initial", med("relax_initial"), "count"});
  out.push_back({"core.relax_rrr", med("relax_rrr"), "count"});
  out.push_back({"core.ns_per_relax", relax > 0 ? route_s * 1e9 / relax : 0.0, "ns"});
  out.push_back({"core.rrr_iterations", med("rrr_iterations"), "count"});
  out.push_back({"core.conflicts_initial", med("conflicts_initial"), "count"});
  out.push_back({"core.detect_s", med("detect_s"), "s"});
  out.push_back({"shard.speculated", speculated, "count"});
  out.push_back({"shard.respeculated", med("respeculated"), "count"});
  out.push_back(
      {"shard.respec_rate", speculated > 0 ? med("respeculated") / speculated : 0.0, "ratio"});
  out.push_back({"shard.wasted_relax", med("wasted_relax"), "count"});
}

/// Per-layer metrics of the layers after routing (eval, drc, io).
void emit_signoff_layers(const Tracer& tr, std::vector<Metric>& out) {
  out.push_back({"eval.evaluate_s", median(tr.values("eval.evaluate")), "s"});
  out.push_back({"eval.conflicts", median(tr.values("eval.evaluate", "conflicts")), "count"});
  out.push_back({"eval.stitches", median(tr.values("eval.evaluate", "stitches")), "count"});
  out.push_back({"drc.verify_s", median(tr.values("drc.verify")), "s"});
  out.push_back({"io.serialize_s", median(tr.values("io.solution_to_string")), "s"});
  out.push_back(
      {"io.solution_bytes", median(tr.values("io.solution_to_string", "bytes")), "B"});
}

void record_router_stats(Tracer::Scope& span, const core::RouterStats& st, double route_s) {
  const double initial = st.relaxations_per_pass.empty()
                             ? 0.0
                             : static_cast<double>(st.relaxations_per_pass.front());
  span.arg("route_s", route_s);
  span.arg("relaxations", static_cast<double>(st.relaxations));
  span.arg("relax_initial", initial);
  span.arg("relax_rrr", static_cast<double>(st.relaxations) - initial);
  span.arg("rrr_iterations", st.rrr_iterations);
  span.arg("conflicts_initial", st.conflicts_per_iter.empty() ? 0 : st.conflicts_per_iter.front());
  span.arg("detect_s", st.detect_s);
  span.arg("speculated", st.speculated);
  span.arg("respeculated", st.respeculated);
  span.arg("wasted_relax", static_cast<double>(st.wasted_relaxations));
}

/// The sign-off tail shared by both flows: evaluate -> DRC -> serialize.
struct Signoff {
  eval::Metrics metrics;
  drc::DrcReport drc;
  std::string text;  ///< serialized solution
};

Signoff sign_off(const grid::RoutingGrid& grid, const db::Design& design,
                 const grid::Solution& solution, const global::GuideSet* guides, Tracer& tr) {
  Signoff out;
  {
    auto s = tr.span("eval.evaluate");
    out.metrics = eval::evaluate(grid, solution, guides);
    s.arg("conflicts", out.metrics.conflicts);
    s.arg("stitches", out.metrics.stitches);
  }
  {
    auto s = tr.span("drc.verify");
    out.drc = drc::verify(grid, design, solution);
  }
  {
    auto s = tr.span("io.solution_to_string");
    out.text = io::solution_to_string(grid, solution);
    s.arg("bytes", static_cast<double>(out.text.size()));
  }
  return out;
}

// ---- batch workloads: grid10k, grid10k_sharded -------------------------------

struct Flow {
  double seconds = 0.0;
  Signoff result;
  bool degraded = false;
};

/// One full flow: global route -> grid -> detailed route -> eval -> DRC ->
/// serialize, each call inside its layer span.
Flow run_flow(const db::Design& design, const global::GlobalConfig& gconfig,
              const core::RouterConfig& config, Tracer& tr) {
  auto flow_span = tr.span("flow");
  util::Timer timer;
  global::GuideSet guides;
  {
    auto s = tr.span("global.route_all");
    guides = global::GlobalRouter(design, gconfig).route_all();
  }
  std::unique_ptr<grid::RoutingGrid> grid;
  {
    auto s = tr.span("grid.build");
    grid = std::make_unique<grid::RoutingGrid>(design);
  }
  grid::Solution solution;
  {
    auto s = tr.span(config.shard_tiles > 1 ? "shard.run" : "core.run");
    util::Timer route_timer;
    core::MrTplRouter router(design, &guides, config);
    solution = router.run(*grid);
    record_router_stats(s, router.stats(), route_timer.elapsed_s());
  }
  Flow out;
  out.result = sign_off(*grid, design, solution, &guides, tr);
  out.seconds = timer.elapsed_s();
  out.degraded = solution.degraded();
  return out;
}

RunResult run_batch(const Args& a, Tracer& tr) {
  RunResult r;
  const db::Design design =
      benchgen::generate(scenario_spec("production_grid_10k", a.quick, a.seed));
  global::GlobalConfig gconfig;
  gconfig.hard_spanning_blockages = true;  // as the scenario runner routes it
  core::RouterConfig config;
  if (a.workload == "grid10k_sharded") {
    config.shard_tiles = 4;
    config.rrr_threads = std::min(4, hardware_threads());
  }

  // Set-up: the state a detailed route needs (guides + a fresh grid).
  std::vector<double> setup_s;
  for (int rep = 0; rep < kBatchSetupReps; ++rep) {
    util::Timer timer;
    const global::GuideSet guides = global::GlobalRouter(design, gconfig).route_all();
    const grid::RoutingGrid grid(design);
    setup_s.push_back(timer.elapsed_s());
  }

  // Measured flows. The traced run alternates traced and untraced flows
  // (first one traced); the difference of their medians is the tracing
  // overhead.
  std::string first_text;
  std::vector<double> flow_s, traced_s, untraced_s;
  std::string quality_raw;
  util::Timer measure;
  for (int rep = 0;; ++rep) {
    const bool traced = a.trace && rep % 2 == 0;
    tr.set_enabled(traced);
    const Flow flow = run_flow(design, gconfig, config, tr);
    tr.set_enabled(false);
    ++r.attempted;
    flow_s.push_back(flow.seconds);
    (traced ? traced_s : untraced_s).push_back(flow.seconds);
    const long before = static_cast<long>(r.problems.size());
    if (!flow.result.drc.clean()) r.fail("DRC violations:\n" + flow.result.drc.summary());
    if (flow.degraded) r.fail("degraded solution");
    if (rep == 0) {
      first_text = flow.result.text;
      emit_quality(design, flow.result.metrics, flow.result.drc, r.end_to_end, &quality_raw);
    } else if (flow.result.text != first_text) {
      r.fail("solution changed between flows of one process");
    }
    if (static_cast<long>(r.problems.size()) > before) ++r.failed;
    if (rep + 1 >= (a.trace ? kMinFlowRepsTraced : 1) &&
        measure.elapsed_s() + mean(flow_s) > a.seconds)
      break;
  }

  // Cross-run check. grid10k and grid10k_sharded share one key holding the
  // SERIAL route's hash, so the sharded executor must reproduce it byte for
  // byte (the ShardSweep contract). A sharded run that finds no serial hash
  // for its seed routes the serial reference itself, untimed.
  const std::string hash = hex(fnv1a(first_text));
  const std::string key = "production_grid_10k.seed" + std::to_string(a.seed) +
                          (a.quick ? ".quick" : "");
  if (config.shard_tiles > 1 && !a.hash_dir.empty() &&
      !std::filesystem::exists(std::filesystem::path(a.hash_dir) / key)) {
    std::fprintf(stderr, "perfbench: routing the serial reference for seed %" PRIu64 "\n",
                 a.seed);
    const Flow serial = run_flow(design, gconfig, core::RouterConfig{}, tr);
    (void)check_cached(a.hash_dir, key, hex(fnv1a(serial.result.text)));
  }
  if (const std::string p = check_cached(a.hash_dir, key, hash); !p.empty()) {
    r.fail(p);
    r.failed = r.attempted;  // every flow of this run produced that solution
  }

  std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      {"flow_s", median(flow_s), "s"},
      {"op_p50_ms", percentile(flow_s, 50) * 1e3, "ms"},
      {"op_p90_ms", percentile(flow_s, 90) * 1e3, "ms"},
      {"op_ok_frac", 1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted), "frac"},
      {"peak_rss_mb", util::peak_rss_mb(), "MB"},
  };
  r.end_to_end.insert(r.end_to_end.begin(), e2e.begin(), e2e.end());

  auto& pl = r.per_layer;
  pl.push_back({"global.route_s", median(tr.values("global.route_all")), "s"});
  pl.push_back({"grid.build_s", median(tr.values("grid.build")), "s"});
  emit_router_layers(tr, config.shard_tiles > 1 ? "shard.run" : "core.run", pl);
  emit_signoff_layers(tr, pl);
  pl.push_back({"session.apply_ms", 0.0, "ms"});
  pl.push_back({"session.dirty_nets_mean", 0.0, "count"});
  pl.push_back({"session.snapshot_ms", 0.0, "ms"});
  pl.push_back({"trace.overhead_flow_s", median(traced_s) - median(untraced_s), "s"});
  pl.push_back({"trace.overhead_op_ms", 0.0, "ms"});

  r.raw_json = "{\"quality\":" + quality_raw + ",\"flows\":" + std::to_string(flow_s.size()) +
               ",\"hash\":\"" + hash + "\"}";
  return r;
}

// ---- eco: closed-loop ECO edits into a resident session ----------------------

/// Deterministic ECO edit mix in 4-edit cycles: remove a live net,
/// re-add its pins as a new net, then drop and lift a small blockage.
/// Blockages never touch pin metal or existing obstacles: a buried pin
/// makes the router widen its search to the whole die, which is a known
/// slow path, not the traffic this workload models.
class EditStream {
 public:
  explicit EditStream(std::uint64_t seed) : rng_(seed) {}

  session::Edit next(const db::Design& design) {
    session::Edit e;
    switch (step_++ % 4) {
      case 0: {
        e.kind = session::EditKind::kRemoveNet;
        e.net = pick_live_net(design);
        removed_pins_ = design.net(e.net).pins;
        break;
      }
      case 1:
        e.kind = session::EditKind::kAddNet;
        e.name = "eco_" + std::to_string(step_ / 4);
        e.pins = removed_pins_;
        break;
      case 2:
        e.kind = session::EditKind::kAddBlockage;
        pick_blockage(design);
        e.layer = blockage_layer_;
        e.rect = blockage_;
        break;
      default:
        e.kind = session::EditKind::kRemoveBlockage;
        e.layer = blockage_layer_;
        e.rect = blockage_;
        break;
    }
    return e;
  }

 private:
  db::NetId pick_live_net(const db::Design& design) {
    for (int attempt = 0; attempt < 10000; ++attempt) {
      const auto id = static_cast<db::NetId>(
          rng_.next_below(static_cast<std::uint32_t>(design.num_nets())));
      if (design.net(id).degree() >= 2) return id;
    }
    throw std::runtime_error("eco: no live multi-pin net left");
  }

  void pick_blockage(const db::Design& design) {
    const geom::Rect& die = design.die();
    for (int attempt = 0; attempt < 1000; ++attempt) {
      const int layer = rng_.next_int(0, design.tech().num_layers() - 1);
      const int w = rng_.next_int(2, 4);
      const int h = rng_.next_int(2, 4);
      const int x = rng_.next_int(die.lo.x, die.hi.x - w + 1);
      const int y = rng_.next_int(die.lo.y, die.hi.y - h + 1);
      const geom::Rect rect(x, y, x + w - 1, y + h - 1);
      const geom::Rect keepout = rect.inflated(1);
      bool clear = true;
      for (const db::Obstacle& obs : design.obstacles())
        clear = clear && !(obs.layer == layer && obs.shape.overlaps(keepout));
      for (const db::Net& net : design.nets())
        for (const db::Pin& pin : net.pins)
          if (pin.layer == layer)
            for (const geom::Rect& s : pin.shapes) clear = clear && !s.overlaps(keepout);
      if (clear) {
        blockage_layer_ = layer;
        blockage_ = rect;
        return;
      }
    }
    throw std::runtime_error("eco: no pin-free spot for a blockage");
  }

  util::Rng rng_;
  int step_ = 0;
  std::vector<db::Pin> removed_pins_;
  int blockage_layer_ = 0;
  geom::Rect blockage_;
};

RunResult run_eco(const Args& a, Tracer& tr) {
  RunResult r;
  // The base design is the same for every seed; the seed draws the edit
  // stream. A seed-offset base design often keeps a few conflicts the
  // router cannot resolve, and every apply then re-runs the RRR loop on
  // them (p50 from 0.13 s to over 0.6 s across five offsets): the latency
  // would measure which design was drawn, not the session.
  const db::Design design = benchgen::generate(scenario_spec("production_clusters", a.quick, 0));
  global::GlobalConfig gconfig;
  gconfig.hard_spanning_blockages = true;
  global::GuideSet guides;
  tr.set_enabled(a.trace);
  {
    auto s = tr.span("global.route_all");
    guides = global::GlobalRouter(design, gconfig).route_all();
  }

  // Set-up: a resident session, built and initially routed from scratch.
  // One per process; run.py starts several processes and takes the median,
  // and their initial routes are compared through the hash cache.
  std::unique_ptr<session::RouterSession> sess;
  double setup_s = 0.0;
  {
    auto s = tr.span("session.construct");
    util::Timer timer;
    sess = std::make_unique<session::RouterSession>(design, session::SessionConfig{}, &guides);
    setup_s = timer.elapsed_s();
    record_router_stats(s, sess->initial_stats(), sess->initial_stats().runtime_s);
  }
  tr.set_enabled(false);
  const std::string initial_hash = hex(fnv1a(sess->solution_text()));

  // Closed loop, one client: the next edit is sent when the previous
  // response is back. Latency is timed around submit(). The traced run
  // traces every other edit; the p50 gap is the tracing overhead.
  EditStream stream(a.seed);
  const int min_edits = a.quick ? kMinEditsQuick : kMinEdits;
  std::vector<double> lat_ms, traced_ms, untraced_ms;
  std::string prefix_hash;
  util::Timer measure;
  while ((measure.elapsed_s() < a.seconds || static_cast<int>(lat_ms.size()) < min_edits) &&
         measure.elapsed_s() < kEcoTimeCap * a.seconds) {
    const session::Edit edit = stream.next(sess->design());
    const bool traced = a.trace && lat_ms.size() % 2 == 0;
    tr.set_enabled(traced);
    session::EditResponse resp;
    double ms = 0.0;
    {
      auto s = tr.span("session.submit");
      util::Timer timer;
      resp = sess->submit(edit);
      ms = timer.elapsed_ms();
      s.arg("apply_ms", resp.apply_s * 1e3);
      s.arg("dirty_nets", resp.dirty_nets);
    }
    tr.set_enabled(false);
    ++r.attempted;
    lat_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (resp.status != session::EditStatus::kApplied) {
      ++r.failed;
      r.fail(session::format_edit(edit) + " -> " + session::to_string(resp.status) + " " +
             resp.note);
    }
    if (static_cast<int>(lat_ms.size()) == min_edits)
      prefix_hash = hex(fnv1a(sess->solution_text()));
  }
  if (prefix_hash.empty())
    r.fail("edit stream stopped before " + std::to_string(min_edits) + " edits");
  // flow_s on eco: the closed-loop time of the fixed edit script (the first
  // min_edits edits, the same ones on every run of a seed).
  const double script_s =
      std::accumulate(lat_ms.begin(), lat_ms.begin() + std::min<std::size_t>(lat_ms.size(),
                                                                              min_edits),
                      0.0) * 1e-3;

  // Sign-off on the edited layout (evaluate -> DRC -> serialize): the
  // quality figures and the DRC check; repeated in the traced run for the
  // eval/drc/io per-layer medians.
  tr.set_enabled(a.trace);
  {
    auto s = tr.span("session.audit_session");
    const session::AuditReport audit = session::audit_session(*sess);
    if (!audit.ok)
      r.fail("session audit: " + (audit.problems.empty() ? std::string("incoherent")
                                                         : audit.problems.front()));
  }
  std::vector<double> snapshot_ms;
  std::string quality_raw;
  for (int rep = 0; rep < (a.trace ? 3 : 1); ++rep) {
    Signoff out;
    {
      auto s = tr.span("flow");
      out = sign_off(sess->grid(), sess->design(), sess->solution(), sess->guides(), tr);
    }
    if (rep == 0) {
      emit_quality(sess->design(), out.metrics, out.drc, r.end_to_end, &quality_raw);
      if (!out.drc.clean()) r.fail("DRC violations after the edit stream:\n" + out.drc.summary());
    }
    if (a.trace) {
      auto s = tr.span("session.solution_text");
      util::Timer snap;
      const std::string text = sess->solution_text();
      snapshot_ms.push_back(snap.elapsed_ms());
    }
  }
  tr.set_enabled(false);

  const std::string key = "production_clusters.eco.seed" + std::to_string(a.seed) +
                          (a.quick ? ".quick" : "");
  if (const std::string p = check_cached(a.hash_dir, key, initial_hash + " " + prefix_hash);
      !p.empty())
    r.fail(p);

  std::vector<Metric> e2e = {
      {"setup_s", setup_s, "s"},
      {"flow_s", script_s, "s"},
      {"op_p50_ms", percentile(lat_ms, 50), "ms"},
      {"op_p90_ms", percentile(lat_ms, 90), "ms"},
      {"op_ok_frac", 1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted), "frac"},
      {"peak_rss_mb", util::peak_rss_mb(), "MB"},
  };
  r.end_to_end.insert(r.end_to_end.begin(), e2e.begin(), e2e.end());

  auto& pl = r.per_layer;
  pl.push_back({"global.route_s", median(tr.values("global.route_all")), "s"});
  pl.push_back({"grid.build_s", 0.0, "s"});  // inside session construction
  emit_router_layers(tr, "session.construct", pl);
  emit_signoff_layers(tr, pl);
  pl.push_back({"session.apply_ms", median(tr.values("session.submit", "apply_ms")), "ms"});
  pl.push_back({"session.dirty_nets_mean", mean(tr.values("session.submit", "dirty_nets")), "count"});
  pl.push_back({"session.snapshot_ms", median(snapshot_ms), "ms"});
  pl.push_back({"trace.overhead_flow_s", 0.0, "s"});
  pl.push_back({"trace.overhead_op_ms", median(traced_ms) - median(untraced_ms), "ms"});

  const double p90 = percentile(lat_ms, 90);
  r.raw_json = "{\"quality\":" + quality_raw + ",\"edits\":" + std::to_string(lat_ms.size()) +
               ",\"edits_above_p90\":" +
               std::to_string(std::count_if(lat_ms.begin(), lat_ms.end(),
                                            [&](double v) { return v > p90; })) +
               ",\"hash\":\"" + initial_hash + " " + prefix_hash + "\"}";
  return r;
}

// ---- main ------------------------------------------------------------------

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "mrtpl_perfbench: %s\n"
               "usage: mrtpl_perfbench --workload {grid10k|grid10k_sharded|eco} "
               "--seed N --seconds S --trace 0|1 [--quick] [--trace-out FILE] "
               "[--hash-dir DIR] [--source-id ID] [--git-sha SHA]\n",
               problem);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") a.workload = value();
      else if (arg == "--seed") { a.seed = std::stoull(value()); have_seed = true; }
      else if (arg == "--seconds") a.seconds = std::stod(value());
      else if (arg == "--trace") a.trace = std::stoi(value()) != 0;
      else if (arg == "--quick") a.quick = true;
      else if (arg == "--trace-out") a.trace_out = value();
      else if (arg == "--hash-dir") a.hash_dir = value();
      else if (arg == "--source-id") a.source_id = value();
      else if (arg == "--git-sha") a.git_sha = value();
      else usage(("unknown argument " + arg).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) == std::end(kWorkloads))
    usage(("unknown workload '" + a.workload + "'").c_str());
  if (!have_seed) usage("--seed is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ",";
    out += json_string(m.name) + ":{\"value\":" + num(m.value) + ",\"unit\":" +
           json_string(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  Tracer tracer;
  RunResult r;
  try {
    r = a.workload == "eco" ? run_eco(a, tracer) : run_batch(a, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mrtpl_perfbench: %s\n", e.what());
    return 1;
  }
  const std::string prov = provenance_json(a);
  if (a.trace && !a.trace_out.empty() && !tracer.write_chrome_json(a.trace_out, prov)) {
    std::fprintf(stderr, "mrtpl_perfbench: cannot write trace %s\n", a.trace_out.c_str());
    return 1;
  }
  const bool correct = r.problems.empty();
  std::printf("{\"record\":\"perfbench\",\"provenance\":%s,\"raw\":%s,\"problems\":%zu}\n",
              prov.c_str(), r.raw_json.c_str(), r.problems.size());
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,\"metrics\":%s}\n",
              correct ? "true" : "false", r.attempted, r.failed,
              metrics_json(a.trace ? r.per_layer : r.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
