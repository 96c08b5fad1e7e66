/// \file cli.cpp
/// Implementation of the mrtpl CLI subcommands. See cli.hpp for the
/// entry points and mrtpl_cli.cpp for the binary wrapper. Subcommands:
///
///   list-cases
///       Print every named benchmark case of both suites plus the
///       registered stress scenarios.
///   suite [--filter s] [--quick] [--json file] [--threads N] [--tiles K]
///       [--timeout S] [--list]
///       Run the stress-scenario registry end to end (generate -> global
///       -> route -> evaluate -> DRC-verify), one human line per scenario
///       on stdout and, with --json, one JSON metrics line per scenario.
///       Exit 0 iff every selected scenario passes.
///   generate --case <name> [--out design.txt]
///       Generate a synthetic case and save it.
///   route --design <file> [--router mrtpl|dac12|decompose]
///       [--solution out.sol] [--svg out.svg] [--no-guides] [--rrr N]
///       [--threads N] [--tiles K] [--rescan-conflicts] [--deadline S]
///       [--max-relax N]
///       Route a saved design, print metrics, optionally dump artifacts.
///       --tiles K --threads N shards the die into ~sqrt(K)² tiles and
///       routes each pass on N workers via per-tile grid views (the tile
///       walk; parallel from K >= 4). --threads alone routes serially.
///       Output is byte-identical for every tiles/threads combination;
///       --rescan-conflicts swaps the incremental conflict engine for the
///       full-rescan debug oracle. --deadline / --max-relax bound the run
///       (route_budget.hpp); a degraded result exits 4.
///
/// Exit codes (pinned by test_cli_smoke): 0 success, 1 flow failure
/// (conflicts, DRC violations, unexpected errors), 2 usage, 3 malformed
/// input (io::ParseError), 4 budget-degraded result.
///   eval --design <file> --solution <file>
///       Re-verify a saved solution (conflicts/stitches/cost) offline.
///   verify --design <file> --solution <file> [--no-color-check]
///       Run the independent DRC/connectivity checker on a saved solution.
///   refine --design <file> --solution <file> [--out file]
///       Apply the post-hoc recoloring repair pass and report the delta.
///   report --design <file> --solution <file> [--flow name]
///       Emit the evaluation as JSON (metrics + per-layer/degree breakdowns).
///   session --design <file> [--store dir] [--script edits.txt] [--recover]
///       [--snapshot-every N] [--deadline S] [--degrade-relax N]
///       [--latency-watermark S] [--max-queue N] [--audit] [--out file]
///       Resident routing session: route the design once, then apply the
///       ECO edit script incrementally, one response line per edit. With
///       --store the session is crash-consistent (journal + snapshot in
///       the store directory); --recover resumes from that directory
///       instead of routing from scratch — a torn/corrupt journal tail is
///       truncated and reported, and still exits 0. --audit cross-checks
///       design/grid/solution coherence at the end. Exit 4 when any edit
///       was degraded/shed/deadlined, 1 when any was rejected (or the
///       audit failed).
///   serve --design <file> [--socket path] [--port N] [--store dir]
///       [--recover] [--idle-timeout S] [--per-client N] [--max-pending N]
///       [+ the session config flags]
///       Routing as a service: route once, then serve the resident
///       session over a Unix-domain socket and/or loopback TCP with the
///       MRTPLW01 wire protocol (server/protocol.hpp). Multi-client edits
///       serialize FIFO onto the one session, so the store stays
///       byte-identical to a --script run of the same sequence. SIGTERM /
///       a client `drain` request shut it down gracefully (exit 0).
///   send (--socket path | --port N) [--wait S] [--name s]
///       [--script edits.txt] [--edit "<line>"] [--ping token]
///       [--drain | --bye]
///       Drive a running daemon: hello, then the script/edit, then the
///       farewell (default bye). Same response lines and exit-code
///       discipline as `session --script`; a shed edit exits 4.

#include "cli.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "baseline/dac12_router.hpp"
#include "baseline/decomposer.hpp"
#include "baseline/plain_router.hpp"
#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "eval/metrics.hpp"
#include "global/global_router.hpp"
#include "drc/checker.hpp"
#include "eval/breakdown.hpp"
#include "io/design_io.hpp"
#include "io/json_report.hpp"
#include "io/parse_error.hpp"
#include "io/solution_io.hpp"
#include "layout/recolor.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "session/edit.hpp"
#include "session/invariant_audit.hpp"
#include "session/router_session.hpp"
#include "session/session_store.hpp"
#include "util/timer.hpp"
#include "viz/svg_render.hpp"

namespace mrtpl::cli {
namespace {

/// Minimal --flag/value option parser; positional[0] is the subcommand.
struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::map<std::string, bool> flags;

  static Args parse(const std::vector<std::string>& argv) {
    Args args;
    if (!argv.empty()) args.command = argv[0];
    for (size_t i = 1; i < argv.size(); ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) continue;
      a = a.substr(2);
      if (i + 1 < argv.size() && argv[i + 1].rfind("--", 0) != 0) {
        args.options[a] = argv[++i];
      } else {
        args.flags[a] = true;
      }
    }
    return args;
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = options.find(key);
    return it == options.end() ? std::nullopt : std::make_optional(it->second);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return flags.contains(key) || options.contains(key);
  }
};

/// Strict integer flag parser: the whole word must be a number that fits
/// an int, otherwise nullopt (std::stoi alone would throw out of main and
/// abort on e.g. `--threads x`).
std::optional<int> parse_int(const std::string& word) {
  try {
    size_t used = 0;
    const int value = std::stoi(word, &used);
    if (used != word.size()) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<benchgen::CaseSpec> find_case(const std::string& name) {
  for (const auto& s : benchgen::ispd2018_suite())
    if (s.name == name) return s;
  for (const auto& s : benchgen::ispd2019_suite())
    if (s.name == name) return s;
  if (name == "tiny") return benchgen::tiny_case();
  if (name == "ablation_mid") return benchgen::ablation_case();
  // Scenario names resolve to the full spec; "<name>_quick" to the CI
  // variant — so every registered stress case is generatable on its own.
  if (const auto* sc = scenario::ScenarioRegistry::builtin().find(name))
    return sc->full;
  constexpr const char* kQuickSuffix = "_quick";
  if (name.size() > std::strlen(kQuickSuffix) &&
      name.ends_with(kQuickSuffix)) {
    const std::string base = name.substr(0, name.size() - std::strlen(kQuickSuffix));
    if (const auto* sc = scenario::ScenarioRegistry::builtin().find(base))
      return sc->quick;
  }
  return std::nullopt;
}

int cmd_list_cases() {
  std::printf("%-16s %-9s %-6s %-6s %s\n", "case", "die", "nets", "dcolor", "seed");
  auto print_suite = [](const std::vector<benchgen::CaseSpec>& suite) {
    for (const auto& s : suite)
      std::printf("%-16s %dx%-5d %-6d %-6d %llu\n", s.name.c_str(), s.width,
                  s.height, s.num_nets, s.dcolor,
                  static_cast<unsigned long long>(s.seed));
  };
  print_suite(benchgen::ispd2018_suite());
  print_suite(benchgen::ispd2019_suite());
  std::printf("%-16s (unit-test scale)\n", "tiny");
  std::printf("%-16s (ablation benches)\n", "ablation_mid");
  std::printf("\nstress scenarios (run with `suite`, generate by name or "
              "<name>_quick):\n");
  for (const auto& sc : scenario::ScenarioRegistry::builtin().all())
    std::printf("%-24s %-12s %s\n", sc.name.c_str(),
                scenario::to_string(sc.family), sc.description.c_str());
  return 0;
}

int cmd_suite(const Args& args) {
  scenario::RunnerOptions options;
  options.quick = args.has("quick");
  if (const auto threads = args.get("threads")) {
    const auto n = parse_int(*threads);
    if (!n || *n < 1) {
      std::fprintf(stderr, "suite: --threads must be >= 1\n");
      return 2;
    }
    options.config.rrr_threads = *n;
  }
  if (const auto tiles = args.get("tiles")) {
    const auto n = parse_int(*tiles);
    if (!n || *n < 1) {
      std::fprintf(stderr, "suite: --tiles must be >= 1\n");
      return 2;
    }
    options.config.shard_tiles = *n;
  }
  if (const auto timeout = args.get("timeout")) {
    const auto n = parse_int(*timeout);
    if (!n || *n < 1) {
      std::fprintf(stderr, "suite: --timeout wants a positive integer (seconds)\n");
      return 2;
    }
    options.timeout_s = static_cast<double>(*n);
  }

  const std::string filter = args.get("filter").value_or("");
  const auto selection = scenario::ScenarioRegistry::builtin().filter(filter);
  if (selection.empty()) {
    std::fprintf(stderr, "suite: no scenario matches '%s' (see list-cases)\n",
                 filter.c_str());
    return 2;
  }

  if (args.has("list")) {
    for (const auto* sc : selection) {
      const auto& spec = sc->spec(options.quick);
      std::printf("%-24s %-12s %dx%-4d %4d nets  %s\n", sc->name.c_str(),
                  scenario::to_string(sc->family), spec.width, spec.height,
                  spec.num_nets, sc->description.c_str());
    }
    return 0;
  }

  std::ofstream json_os;
  if (const auto json_path = args.get("json")) {
    json_os.open(*json_path);
    if (!json_os) {
      std::fprintf(stderr, "suite: cannot open %s for writing\n",
                   json_path->c_str());
      return 2;
    }
  }

  const scenario::ScenarioRunner runner(options);
  const auto results = runner.run_all(selection, [&](const auto& result) {
    std::printf("%-24s %-8s conflicts=%d stitches=%d wirelength=%ld "
                "failed=%d drc=%s %.2fs%s%s\n",
                result.name.c_str(), scenario::to_string(result.status),
                result.metrics.conflicts, result.metrics.stitches,
                result.metrics.wirelength, result.metrics.failed_nets,
                result.drc_clean ? "clean" : "DIRTY", result.total_s,
                result.note.empty() ? "" : "  # ", result.note.c_str());
    std::fflush(stdout);
    if (json_os.is_open()) {
      io::write_scenario_line(json_os, scenario::ScenarioRunner::report_of(result));
      json_os.flush();
    }
  });

  int passed = 0;
  for (const auto& r : results)
    if (r.status == scenario::Status::kPass) ++passed;
  std::printf("suite: %d/%zu scenario(s) passed%s\n", passed, results.size(),
              options.quick ? " (quick)" : "");
  return scenario::ScenarioRunner::all_passed(results) ? 0 : 1;
}

int cmd_generate(const Args& args) {
  const auto name = args.get("case");
  if (!name) {
    std::fprintf(stderr, "generate: missing --case <name>\n");
    return 2;
  }
  const auto spec = find_case(*name);
  if (!spec) {
    std::fprintf(stderr, "generate: unknown case '%s' (see list-cases)\n",
                 name->c_str());
    return 2;
  }
  const db::Design design = benchgen::generate(*spec);
  const std::string out = args.get("out").value_or(*name + ".design");
  io::save_design(out, design);
  std::printf("wrote %s: %d nets, %d pins, %zu obstacles\n", out.c_str(),
              design.num_nets(), design.total_pins(), design.obstacles().size());
  return 0;
}

void print_metrics(const char* label, const eval::Metrics& m, double seconds) {
  std::printf("%s: conflicts=%d stitches=%d wirelength=%ld vias=%ld wrong_way=%ld "
              "out_of_guide=%ld failed=%d cost=%.4E time=%.2fs\n",
              label, m.conflicts, m.stitches, m.wirelength, m.vias, m.wrong_way,
              m.out_of_guide, m.failed_nets, m.cost, seconds);
}

int cmd_route(const Args& args) {
  const auto design_path = args.get("design");
  if (!design_path) {
    std::fprintf(stderr, "route: missing --design <file>\n");
    return 2;
  }
  const db::Design design = io::load_design(*design_path);
  const std::string router_name = args.get("router").value_or("mrtpl");

  global::GuideSet guides;
  const global::GuideSet* guides_ptr = nullptr;
  if (!args.has("no-guides")) {
    global::GlobalRouter gr(design);
    guides = gr.route_all();
    guides_ptr = &guides;
  }

  core::RouterConfig config;
  if (const auto rrr = args.get("rrr")) {
    const auto n = parse_int(*rrr);
    if (!n || *n < 0) {
      std::fprintf(stderr, "route: --rrr wants a non-negative integer\n");
      return 2;
    }
    config.max_rrr_iterations = *n;
  }
  if (const auto threads = args.get("threads")) {
    const auto n = parse_int(*threads);
    if (!n || *n < 1) {
      std::fprintf(stderr, "route: --threads must be >= 1\n");
      return 2;
    }
    config.rrr_threads = *n;
  }
  if (const auto tiles = args.get("tiles")) {
    const auto n = parse_int(*tiles);
    if (!n || *n < 1) {
      std::fprintf(stderr, "route: --tiles must be >= 1\n");
      return 2;
    }
    config.shard_tiles = *n;
  }
  if (args.has("rescan-conflicts")) config.incremental_conflicts = false;

  core::RouteBudget route_budget;
  if (const auto deadline = args.get("deadline")) {
    try {
      size_t used = 0;
      route_budget.deadline_s = std::stod(*deadline, &used);
      if (used != deadline->size() || route_budget.deadline_s <= 0.0)
        throw std::invalid_argument(*deadline);
    } catch (const std::exception&) {
      std::fprintf(stderr, "route: --deadline wants a positive number (seconds)\n");
      return 2;
    }
  }
  if (const auto max_relax = args.get("max-relax")) {
    const auto n = parse_int(*max_relax);
    if (!n || *n < 1) {
      std::fprintf(stderr, "route: --max-relax wants a positive integer\n");
      return 2;
    }
    route_budget.max_relaxations = static_cast<std::uint64_t>(*n);
  }
  if (!route_budget.unlimited() && router_name != "mrtpl") {
    std::fprintf(stderr, "route: --deadline/--max-relax need --router mrtpl\n");
    return 2;
  }

  grid::RoutingGrid grid(design);
  util::Timer timer;
  grid::Solution solution;
  if (router_name == "mrtpl") {
    core::MrTplRouter router(design, guides_ptr, config);
    solution = router.run(grid, route_budget);
  } else if (router_name == "dac12") {
    baseline::Dac12Router router(design, guides_ptr, config);
    solution = router.run(grid);
  } else if (router_name == "decompose") {
    solution = baseline::route_plain(design, guides_ptr, grid, config);
    baseline::decompose(grid, solution);
  } else {
    std::fprintf(stderr, "route: unknown --router '%s'\n", router_name.c_str());
    return 2;
  }
  const double seconds = timer.elapsed_s();
  const eval::Metrics m = eval::evaluate(grid, solution, guides_ptr);
  print_metrics(router_name.c_str(), m, seconds);

  if (const auto sol_path = args.get("solution")) {
    io::save_solution(*sol_path, grid, solution);
    std::printf("solution written to %s\n", sol_path->c_str());
  }
  if (const auto svg_path = args.get("svg")) {
    viz::save_svg(*svg_path, grid);
    std::printf("svg written to %s\n", svg_path->c_str());
  }
  if (solution.degraded()) {
    std::fprintf(stderr,
                 "route: budget expired, result is degraded "
                 "(%d partial, %d skipped net(s))\n",
                 solution.num_partial(), solution.num_skipped());
    return 4;
  }
  return 0;
}

int cmd_eval(const Args& args) {
  const auto design_path = args.get("design");
  const auto solution_path = args.get("solution");
  if (!design_path || !solution_path) {
    std::fprintf(stderr, "eval: need --design <file> and --solution <file>\n");
    return 2;
  }
  const db::Design design = io::load_design(*design_path);
  grid::RoutingGrid grid(design);
  std::ifstream is(*solution_path);
  if (!is) {
    std::fprintf(stderr, "eval: cannot open %s\n", solution_path->c_str());
    return 2;
  }
  const grid::Solution solution = io::read_solution(is, grid);
  const eval::Metrics m = eval::evaluate(grid, solution, nullptr);
  print_metrics("eval", m, 0.0);
  return m.conflicts == 0 ? 0 : 1;
}

/// Shared loader for the solution-consuming subcommands.
struct Loaded {
  db::Design design;
  grid::RoutingGrid grid;
  grid::Solution solution;

  explicit Loaded(const std::string& design_path, const std::string& solution_path)
      : design(io::load_design(design_path)), grid(design) {
    std::ifstream is(solution_path);
    if (!is) throw std::runtime_error("cannot open " + solution_path);
    solution = io::read_solution(is, grid);
  }
};

int cmd_verify(const Args& args) {
  const auto design_path = args.get("design");
  const auto solution_path = args.get("solution");
  if (!design_path || !solution_path) {
    std::fprintf(stderr, "verify: need --design <file> and --solution <file>\n");
    return 2;
  }
  Loaded l(*design_path, *solution_path);
  drc::DrcOptions options;
  if (args.has("no-color-check")) options.check_coloring = false;
  const drc::DrcReport report = drc::verify(l.grid, l.design, l.solution, options);
  if (report.clean()) {
    std::printf("verify: clean (%d nets)\n", l.design.num_nets());
    return 0;
  }
  std::printf("verify: %zu violation(s)\n%s", report.violations.size(),
              report.summary().c_str());
  return 1;
}

int cmd_refine(const Args& args) {
  const auto design_path = args.get("design");
  const auto solution_path = args.get("solution");
  if (!design_path || !solution_path) {
    std::fprintf(stderr, "refine: need --design <file> and --solution <file>\n");
    return 2;
  }
  Loaded l(*design_path, *solution_path);
  const eval::Metrics before = eval::evaluate(l.grid, l.solution, nullptr);
  const layout::RecolorStats stats = layout::recolor_refine(l.grid, l.solution);
  const eval::Metrics after = eval::evaluate(l.grid, l.solution, nullptr);
  std::printf("refine: %d move(s) in %d pass(es)\n", stats.moves, stats.passes);
  print_metrics("before", before, 0.0);
  print_metrics("after ", after, 0.0);
  if (const auto out = args.get("out")) {
    io::save_solution(*out, l.grid, l.solution);
    std::printf("refined solution written to %s\n", out->c_str());
  }
  return 0;
}

int cmd_report(const Args& args) {
  const auto design_path = args.get("design");
  const auto solution_path = args.get("solution");
  if (!design_path || !solution_path) {
    std::fprintf(stderr, "report: need --design <file> and --solution <file>\n");
    return 2;
  }
  Loaded l(*design_path, *solution_path);
  io::CaseReport report;
  report.case_name = l.design.name();
  report.flow = args.get("flow").value_or("saved");
  report.metrics = eval::evaluate(l.grid, l.solution, nullptr);
  report.layers = eval::per_layer(l.grid, l.solution);
  report.degrees = eval::per_degree(l.grid, l.design, l.solution);
  io::write_report_array(std::cout, {report});
  return 0;
}

/// Positive-double flag parser (deadline/watermark seconds).
std::optional<double> parse_seconds(const std::string& word) {
  try {
    size_t used = 0;
    const double value = std::stod(word, &used);
    if (used != word.size() || value <= 0.0) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Parse the SessionConfig flags shared by `session` and `serve` into
/// `config`; returns 0 or the usage exit code (2) after a message.
int parse_session_config(const Args& args, const char* cmd,
                         session::SessionConfig* config) {
  if (const auto every = args.get("snapshot-every")) {
    const auto n = parse_int(*every);
    if (!n || *n < 0) {
      std::fprintf(stderr, "%s: --snapshot-every wants an integer >= 0\n", cmd);
      return 2;
    }
    config->snapshot_every = *n;
  }
  if (const auto deadline = args.get("deadline")) {
    const auto s = parse_seconds(*deadline);
    if (!s) {
      std::fprintf(stderr, "%s: --deadline wants a positive number (seconds)\n",
                   cmd);
      return 2;
    }
    config->deadline_s = *s;
  }
  if (const auto relax = args.get("degrade-relax")) {
    const auto n = parse_int(*relax);
    if (!n || *n < 1) {
      std::fprintf(stderr, "%s: --degrade-relax wants a positive integer\n", cmd);
      return 2;
    }
    config->degrade_relax_cap = static_cast<std::uint64_t>(*n);
  }
  if (const auto watermark = args.get("latency-watermark")) {
    const auto s = parse_seconds(*watermark);
    if (!s) {
      std::fprintf(
          stderr, "%s: --latency-watermark wants a positive number (seconds)\n",
          cmd);
      return 2;
    }
    config->latency_watermark_s = *s;
  }
  if (const auto depth = args.get("max-queue")) {
    const auto n = parse_int(*depth);
    if (!n || *n < 1) {
      std::fprintf(stderr, "%s: --max-queue wants a positive integer\n", cmd);
      return 2;
    }
    config->max_queue_depth = *n;
  }
  return 0;
}

/// Open the session backend shared by `session` and `serve`: --recover
/// resumes a store, otherwise route --design from scratch (into --store
/// when given, else a bare volatile session). Returns 0 or an exit code.
int open_session_backend(const Args& args, const char* cmd,
                         const session::SessionConfig& config,
                         std::unique_ptr<session::SessionStore>* store,
                         std::unique_ptr<session::RouterSession>* bare) {
  if (args.has("recover")) {
    const auto dir = args.get("store");
    if (!dir) {
      std::fprintf(stderr, "%s: --recover needs --store <dir>\n", cmd);
      return 2;
    }
    session::RecoveryReport rep;
    *store = session::SessionStore::recover(*dir, config, &rep);
    std::printf("recovered: snapshot seq=%llu, %d replayed, %d skipped, "
                "session seq=%llu%s\n",
                static_cast<unsigned long long>(rep.snapshot_seq), rep.replayed,
                rep.skipped,
                static_cast<unsigned long long>((*store)->session().seq()),
                rep.truncated_tail ? ", torn journal tail truncated" : "");
    if (rep.dropped_bytes > 0)
      std::printf("recovered: %llu uncommitted byte(s) dropped from the journal\n",
                  static_cast<unsigned long long>(rep.dropped_bytes));
  } else {
    const auto design_path = args.get("design");
    if (!design_path) {
      std::fprintf(stderr, "%s: missing --design <file> (or --recover)\n", cmd);
      return 2;
    }
    const db::Design design = io::load_design(*design_path);
    global::GuideSet guides;
    const global::GuideSet* guides_ptr = nullptr;
    if (!args.has("no-guides")) {
      global::GlobalRouter gr(design);
      guides = gr.route_all();
      guides_ptr = &guides;
    }
    if (const auto dir = args.get("store")) {
      *store = session::SessionStore::create(*dir, design, config, guides_ptr);
    } else {
      *bare = std::make_unique<session::RouterSession>(design, config, guides_ptr);
    }
    session::RouterSession& s = *store ? (*store)->session() : **bare;
    std::printf("%s: %d nets routed, %d conflict(s) initially\n", cmd,
                s.design().num_nets(),
                s.conflict_index() != nullptr
                    ? static_cast<int>(s.conflict_index()->conflicts().size())
                    : static_cast<int>(core::detect_conflicts(s.grid()).size()));
  }
  return 0;
}

int cmd_session(const Args& args) {
  session::SessionConfig config;
  if (const int rc = parse_session_config(args, "session", &config); rc != 0)
    return rc;

  std::unique_ptr<session::SessionStore> store;
  std::unique_ptr<session::RouterSession> bare;
  if (const int rc = open_session_backend(args, "session", config, &store, &bare);
      rc != 0)
    return rc;
  session::RouterSession& sess = store ? store->session() : *bare;

  // Worst outcome wins the exit code; "rejected" (1) outranks
  // "degraded/shed/deadline" (4), matching 1 = flow failure elsewhere.
  int worst = 0;
  const auto fold = [&worst](session::EditStatus status) {
    int code = 0;
    if (status == session::EditStatus::kRejected) code = 1;
    else if (status != session::EditStatus::kApplied) code = 4;
    if (code == 1 || worst == 1) worst = 1;
    else if (code > worst) worst = code;
  };

  if (const auto script = args.get("script")) {
    const std::vector<session::Edit> edits = session::load_edit_script(*script);
    for (size_t i = 0; i < edits.size(); ++i) {
      const session::EditResponse resp =
          store ? store->submit(edits[i]) : bare->submit(edits[i]);
      std::printf("edit %zu %s: %s seq=%llu dirty=%d conflicts=%d failed=%d "
                  "%.3fs%s%s\n",
                  i + 1, session::to_string(edits[i].kind),
                  session::to_string(resp.status),
                  static_cast<unsigned long long>(resp.seq), resp.dirty_nets,
                  resp.conflicts, resp.failed, resp.apply_s,
                  resp.note.empty() ? "" : "  # ", resp.note.c_str());
      for (const auto& d : resp.dispositions)
        std::printf("  net %d (%s): %s\n", d.net, d.name.c_str(),
                    d.state.c_str());
      fold(resp.status);
    }
  }

  if (args.has("audit")) {
    const session::AuditReport audit = session::audit_session(sess);
    if (audit.ok) {
      std::printf("audit: coherent (design ↔ grid ↔ solution ↔ index)\n");
    } else {
      for (const auto& p : audit.problems)
        std::fprintf(stderr, "audit: %s\n", p.c_str());
      worst = 1;
    }
  }

  if (const auto out = args.get("out")) {
    io::save_solution(*out, sess.grid(), sess.solution());
    std::printf("solution written to %s\n", out->c_str());
  }
  std::printf("session: seq=%llu routed=%d failed=%d\n",
              static_cast<unsigned long long>(sess.seq()),
              sess.solution().num_routed(), sess.solution().num_failed());
  return worst;
}

int cmd_serve(const Args& args) {
  session::SessionConfig config;
  if (const int rc = parse_session_config(args, "serve", &config); rc != 0)
    return rc;

  server::DaemonConfig dconfig;
  if (const auto sock = args.get("socket")) dconfig.unix_path = *sock;
  if (const auto port = args.get("port")) {
    const auto n = parse_int(*port);
    if (!n || *n < 0 || *n > 65535) {
      std::fprintf(stderr, "serve: --port wants 0..65535 (0 = ephemeral)\n");
      return 2;
    }
    dconfig.tcp_port = *n;
  } else if (!dconfig.unix_path.empty()) {
    dconfig.tcp_port = -1;  // unix only unless a port was asked for
  }
  if (const auto idle = args.get("idle-timeout")) {
    const auto s = parse_seconds(*idle);
    if (!s) {
      std::fprintf(stderr,
                   "serve: --idle-timeout wants a positive number (seconds)\n");
      return 2;
    }
    dconfig.idle_timeout_s = *s;
  }
  if (const auto quota = args.get("per-client")) {
    const auto n = parse_int(*quota);
    if (!n || *n < 1) {
      std::fprintf(stderr, "serve: --per-client wants a positive integer\n");
      return 2;
    }
    dconfig.dispatch.per_client_pending = *n;
  }
  if (const auto depth = args.get("max-pending")) {
    const auto n = parse_int(*depth);
    if (!n || *n < 1) {
      std::fprintf(stderr, "serve: --max-pending wants a positive integer\n");
      return 2;
    }
    dconfig.dispatch.max_pending = *n;
  }

  std::unique_ptr<session::SessionStore> store;
  std::unique_ptr<session::RouterSession> bare;
  if (const int rc = open_session_backend(args, "serve", config, &store, &bare);
      rc != 0)
    return rc;

  std::unique_ptr<server::Daemon> daemon;
  if (store) {
    daemon = std::make_unique<server::Daemon>(*store, std::move(dconfig));
  } else {
    daemon = std::make_unique<server::Daemon>(*bare, std::move(dconfig));
  }
  daemon->install_signal_handlers();
  daemon->listen();
  if (const auto sock = args.get("socket"))
    std::printf("serve: listening on unix:%s\n", sock->c_str());
  if (daemon->port() > 0)
    std::printf("serve: listening on tcp:127.0.0.1:%d\n", daemon->port());
  // Scripts background this process and wait for the listening lines.
  std::fflush(stdout);

  const int rc = daemon->run();
  std::printf("serve: drained, seq=%llu, %llu edit(s) applied, %llu shed\n",
              static_cast<unsigned long long>(
                  store ? store->session().seq() : bare->seq()),
              static_cast<unsigned long long>(daemon->edits_applied()),
              static_cast<unsigned long long>(daemon->edits_shed()));
  return rc;
}

int cmd_send(const Args& args) {
  const auto sock = args.get("socket");
  const auto port_s = args.get("port");
  if (!sock && !port_s) {
    std::fprintf(stderr, "send: needs --socket <path> or --port <N>\n");
    return 2;
  }
  double wait_s = 0.0;
  if (const auto wait = args.get("wait")) {
    const auto s = parse_seconds(*wait);
    if (!s) {
      std::fprintf(stderr, "send: --wait wants a positive number (seconds)\n");
      return 2;
    }
    wait_s = *s;
  }
  int port = 0;
  if (port_s) {
    const auto n = parse_int(*port_s);
    if (!n || *n < 1 || *n > 65535) {
      std::fprintf(stderr, "send: --port wants 1..65535\n");
      return 2;
    }
    port = *n;
  }

  server::Client client = sock ? server::Client::connect_unix(*sock, wait_s)
                               : server::Client::connect_tcp(port, wait_s);

  const server::Response hello =
      client.hello(args.get("name").value_or(""));
  if (!hello.ok) {
    std::fprintf(stderr, "send: hello rejected (%s): %s\n", hello.code.c_str(),
                 hello.text.c_str());
    return 1;
  }
  std::printf("hello: daemon at seq=%llu\n",
              static_cast<unsigned long long>(hello.seq));

  // Same worst-outcome exit-code fold as `session --script`.
  int worst = 0;
  const auto fold = [&worst](session::EditStatus status) {
    int code = 0;
    if (status == session::EditStatus::kRejected) code = 1;
    else if (status != session::EditStatus::kApplied) code = 4;
    if (code == 1 || worst == 1) worst = 1;
    else if (code > worst) worst = code;
  };

  // --script takes the same mrtpl-edits file `session --script` does;
  // each edit crosses the wire re-serialized through format_edit (the
  // same text the journal records).
  std::vector<std::string> lines;
  if (const auto script = args.get("script")) {
    for (const session::Edit& edit : session::load_edit_script(*script))
      lines.push_back(session::format_edit(edit));
  }
  if (const auto one = args.get("edit")) lines.push_back(*one);

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const server::Response r = client.submit(lines[i]);
    if (!r.ok) {
      std::printf("edit %zu: %s (%s)\n", i + 1, r.code.c_str(), r.text.c_str());
      if (r.code == "shed") {
        if (worst != 1 && worst < 4) worst = 4;
      } else {
        worst = 1;
      }
      continue;
    }
    std::printf("edit %zu: %s seq=%llu dirty=%d conflicts=%d failed=%d%s%s\n",
                i + 1, session::to_string(r.edit.status),
                static_cast<unsigned long long>(r.edit.seq), r.edit.dirty_nets,
                r.edit.conflicts, r.edit.failed,
                r.edit.note.empty() ? "" : "  # ", r.edit.note.c_str());
    for (const auto& d : r.edit.dispositions)
      std::printf("  net %d (%s): %s\n", d.net, d.name.c_str(), d.state.c_str());
    fold(r.edit.status);
  }

  if (const auto token = args.get("ping")) {
    const server::Response r = client.ping(*token);
    std::printf("ping: %s\n", r.ok ? r.text.c_str() : "failed");
    if (!r.ok) worst = 1;
  }

  if (args.has("drain")) {
    const server::Response r = client.drain();
    std::printf("drain: %s\n", r.ok ? "ok" : r.text.c_str());
    if (!r.ok) worst = 1;
  } else {
    (void)client.bye();
  }
  return worst;
}

}  // namespace

int run(const std::vector<std::string>& argv) {
  const Args args = Args::parse(argv);
  try {
    if (args.command == "list-cases") return cmd_list_cases();
    if (args.command == "suite") return cmd_suite(args);
    if (args.command == "generate") return cmd_generate(args);
    if (args.command == "route") return cmd_route(args);
    if (args.command == "eval") return cmd_eval(args);
    if (args.command == "verify") return cmd_verify(args);
    if (args.command == "refine") return cmd_refine(args);
    if (args.command == "report") return cmd_report(args);
    if (args.command == "session") return cmd_session(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "send") return cmd_send(args);
  } catch (const io::ParseError& e) {
    // Malformed input gets its own exit code so scripts (and the fuzzer's
    // parse-robustness oracle) can tell "bad file" from "router broke".
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "error: unknown exception\n");
    return 1;
  }
  std::fprintf(stderr,
               "usage: mrtpl_cli "
               "<list-cases|suite|generate|route|eval|verify|refine|report"
               "|session|serve|send> [options]\n"
               "  suite    [--filter <substr>] [--quick] [--json file]\n"
               "           [--threads N] [--tiles K] [--timeout S] [--list]\n"
               "           Run the stress-scenario registry end to end; one\n"
               "           JSON metrics line per scenario with --json.\n"
               "  generate --case <name> [--out file]\n"
               "  route    --design <file> [--router mrtpl|dac12|decompose]\n"
               "           [--solution file] [--svg file] [--no-guides] [--rrr N]\n"
               "           [--threads N] [--tiles K] [--rescan-conflicts]\n"
               "           [--deadline S] [--max-relax N]  (degraded result: exit 4)\n"
               "           Parallel routing needs --tiles K (K >= 4) with\n"
               "           --threads N; --threads alone routes serially.\n"
               "  eval     --design <file> --solution <file>\n"
               "  verify   --design <file> --solution <file> [--no-color-check]\n"
               "  refine   --design <file> --solution <file> [--out file]\n"
               "  report   --design <file> --solution <file> [--flow name]\n"
               "  session  --design <file> [--store dir] [--script edits.txt]\n"
               "           [--recover] [--snapshot-every N] [--deadline S]\n"
               "           [--degrade-relax N] [--latency-watermark S]\n"
               "           [--max-queue N] [--no-guides] [--audit] [--out file]\n"
               "           Resident ECO session; --store makes it\n"
               "           crash-consistent, --recover resumes it.\n"
               "  serve    --design <file> [--socket path] [--port N]\n"
               "           [--store dir] [--recover] [--idle-timeout S]\n"
               "           [--per-client N] [--max-pending N]\n"
               "           [+ session config flags]\n"
               "           Serve the resident session over unix/TCP sockets\n"
               "           (routing as a service); SIGTERM or a client\n"
               "           `drain` shuts it down gracefully (exit 0).\n"
               "  send     (--socket path | --port N) [--wait S] [--name s]\n"
               "           [--script edits.txt] [--edit line] [--ping token]\n"
               "           [--drain | --bye]\n"
               "           Drive a running daemon; exit codes match\n"
               "           `session --script` (a shed edit exits 4).\n");
  return 2;
}

int run(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(argc > 1 ? static_cast<size_t>(argc - 1) : 0);
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run(args);
}

}  // namespace mrtpl::cli
