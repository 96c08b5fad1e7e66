#include "scenario/scenario.hpp"

#include <algorithm>
#include <stdexcept>

namespace mrtpl::scenario {

const char* to_string(Family family) {
  switch (family) {
    case Family::kCongestion: return "congestion";
    case Family::kMacroMaze: return "macro_maze";
    case Family::kHighFanout: return "high_fanout";
    case Family::kDegenerate: return "degenerate";
    case Family::kProduction: return "production";
  }
  return "unknown";
}

void ScenarioRegistry::add(ScenarioSpec spec) {
  if (spec.name.empty())
    throw std::invalid_argument("scenario: empty scenario name");
  if (find(spec.name) != nullptr)
    throw std::invalid_argument("scenario: duplicate scenario '" + spec.name + "'");
  scenarios_.push_back(std::move(spec));
}

const ScenarioSpec* ScenarioRegistry::find(const std::string& name) const {
  for (const auto& s : scenarios_)
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::filter(
    const std::string& pattern) const {
  std::vector<const ScenarioSpec*> out;
  for (const auto& s : scenarios_) {
    if (pattern.empty() || s.name.find(pattern) != std::string::npos ||
        std::string(to_string(s.family)).find(pattern) != std::string::npos)
      out.push_back(&s);
  }
  return out;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::in_family(Family family) const {
  std::vector<const ScenarioSpec*> out;
  for (const auto& s : scenarios_)
    if (s.family == family) out.push_back(&s);
  return out;
}

namespace {

/// Base for every scenario CaseSpec: macro-free so the family's own
/// stressor dominates, with the suite-wide seed offset keeping scenario
/// streams disjoint from the ISPD-style suites.
benchgen::CaseSpec scenario_base(const std::string& name, std::uint64_t seed) {
  benchgen::CaseSpec s;
  s.name = name;
  s.num_macros = 0;
  s.seed = 31000u + seed;
  return s;
}

ScenarioSpec make(std::string name, Family family, std::string description,
                  benchgen::CaseSpec full, benchgen::CaseSpec quick) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.family = family;
  spec.description = std::move(description);
  spec.full = std::move(full);
  spec.quick = std::move(quick);
  spec.quick.name += "_quick";
  return spec;
}

ScenarioRegistry build_builtin() {
  ScenarioRegistry reg;

  // ---- congestion hotspots ---------------------------------------------
  // Local nets draw their cluster boxes from a fixed handful of hotspot
  // windows, so pin demand piles up until the cluster's track supply is
  // exceeded and RRR must detour wires out of the hotspot.
  {
    benchgen::CaseSpec full = scenario_base("hotspot_twin_peaks", 2);
    full.width = full.height = 48;
    full.num_nets = 48;
    full.local_net_fraction = 0.85;
    full.local_span = 12;
    full.hotspot_count = 2;
    benchgen::CaseSpec quick = full;
    quick.width = quick.height = 32;
    quick.num_nets = 20;
    quick.local_span = 10;
    ScenarioSpec spec = make(
        "hotspot_twin_peaks", Family::kCongestion,
        "two pin clusters exceeding their local track supply", full, quick);
    // Route this one through a resident RouterSession so the suite keeps
    // the session/ECO path under the same conflict-free regression bar.
    spec.via_session = true;
    reg.add(std::move(spec));
  }
  {
    benchgen::CaseSpec full = scenario_base("hotspot_quad", 4);
    full.width = full.height = 72;
    full.num_nets = 96;
    full.local_net_fraction = 0.8;
    full.local_span = 12;
    full.hotspot_count = 4;
    full.num_macros = 2;
    benchgen::CaseSpec quick = full;
    quick.width = quick.height = 40;
    quick.num_nets = 32;
    quick.hotspot_count = 3;
    quick.num_macros = 0;
    reg.add(make("hotspot_quad", Family::kCongestion,
                 "four hotspots with macro interference between them",
                 full, quick));
  }

  // ---- macro mazes ------------------------------------------------------
  // Serpentine blockage walls with alternating gaps on every layer of a
  // two-layer (all-TPL) stack: nets crossing the die must snake through
  // the labyrinth, stretching wirelength and forcing shared corridors.
  // Each wall crossing permanently consumes one slot vertex per layer, so
  // gap width bounds the crossing capacity — the specs keep the demand
  // under it (that bound is exactly what the family stresses).
  {
    benchgen::CaseSpec full = scenario_base("maze_serpentine", 3);
    full.width = full.height = 48;
    full.num_layers = 2;
    full.tpl_layers = 2;
    full.maze_walls = 3;
    full.maze_gap = 10;
    full.num_nets = 16;
    full.local_net_fraction = 0.45;
    benchgen::CaseSpec quick = full;
    quick.width = quick.height = 32;
    quick.maze_walls = 2;
    quick.maze_gap = 8;
    quick.num_nets = 8;
    reg.add(make("maze_serpentine", Family::kMacroMaze,
                 "three serpentine walls force cross-die detours",
                 full, quick));
  }
  {
    benchgen::CaseSpec full = scenario_base("maze_labyrinth", 5);
    full.width = full.height = 64;
    full.num_layers = 2;
    full.tpl_layers = 2;
    full.maze_walls = 4;
    full.maze_gap = 14;
    full.num_nets = 14;
    full.local_net_fraction = 0.55;
    benchgen::CaseSpec quick = full;
    quick.width = quick.height = 40;
    quick.maze_walls = 3;
    quick.maze_gap = 8;
    quick.num_nets = 10;
    reg.add(make("maze_labyrinth", Family::kMacroMaze,
                 "four-wall labyrinth with alternating slots",
                 full, quick));
  }

  // ---- high-degree nets -------------------------------------------------
  // Few nets, huge fanout: Algorithm 1's pin-to-tree loop and the segSet
  // merging run 16-24 times per net instead of the usual 2-5.
  {
    benchgen::CaseSpec full = scenario_base("fanout_star16", 11);
    full.width = full.height = 64;
    full.num_nets = 8;
    full.min_pins = 16;
    full.max_pins = 16;
    full.local_net_fraction = 0.0;
    benchgen::CaseSpec quick = full;
    quick.width = quick.height = 48;
    quick.num_nets = 4;
    reg.add(make("fanout_star16", Family::kHighFanout,
                 "eight die-spanning 16-pin nets", full, quick));
  }
  {
    benchgen::CaseSpec full = scenario_base("fanout_bus24", 6);
    full.width = full.height = 80;
    full.num_nets = 6;
    full.min_pins = 20;
    full.max_pins = 24;
    full.local_net_fraction = 0.0;
    benchgen::CaseSpec quick = full;
    quick.width = quick.height = 56;
    quick.num_nets = 3;
    quick.min_pins = 16;
    quick.max_pins = 20;
    reg.add(make("fanout_bus24", Family::kHighFanout,
                 "bus-like 20-24-pin nets sharing the die", full, quick));
  }

  // ---- degenerate dies --------------------------------------------------
  // Pathological-but-legal parameterisations: every-other-track routing
  // channels, a two-mask (DPL) stack, and netlists that mostly evaporate.
  {
    benchgen::CaseSpec full = scenario_base("degenerate_thin_tracks", 7);
    full.width = full.height = 40;
    full.track_pitch = 2;
    full.num_nets = 10;
    full.local_net_fraction = 0.4;
    benchgen::CaseSpec quick = full;
    quick.width = quick.height = 24;
    quick.num_nets = 6;
    reg.add(make("degenerate_thin_tracks", Family::kDegenerate,
                 "pitch-2 die: 1-track channels between blocked strips",
                 full, quick));
  }
  {
    benchgen::CaseSpec full = scenario_base("degenerate_dpl", 8);
    full.width = full.height = 40;
    full.num_masks = 2;
    full.num_nets = 24;
    benchgen::CaseSpec quick = full;
    quick.width = quick.height = 28;
    quick.num_nets = 12;
    reg.add(make("degenerate_dpl", Family::kDegenerate,
                 "double-patterning stack: one spare color instead of two",
                 full, quick));
  }
  {
    benchgen::CaseSpec full = scenario_base("degenerate_sparse", 9);
    full.width = full.height = 32;
    full.num_nets = 40;
    full.min_pins = 1;
    full.max_pins = 2;
    benchgen::CaseSpec quick = full;
    quick.width = quick.height = 24;
    quick.num_nets = 20;
    reg.add(make("degenerate_sparse", Family::kDegenerate,
                 "single-pin nets dropped at generation: netlist mostly empty",
                 full, quick));
  }
  // ---- production scale -------------------------------------------------
  // Order-of-magnitude-larger dies and netlists than every family above —
  // the regime the tile walk (`suite --tiles K --threads T`) exists for. Nets are local with moderate spans, as production
  // netlists are: scale stress comes from volume (grid memory, benchgen
  // throughput, global-router scratch reuse, per-tile view construction),
  // not from per-net hardness, and the suite's conflict-free + DRC-clean
  // bar still applies end to end. The quick variants keep the same shape
  // at CI-smoke size.
  {
    benchgen::CaseSpec full = scenario_base("production_grid_10k", 22);
    full.width = full.height = 960;
    full.num_nets = 10000;
    full.max_pins = 4;
    full.local_net_fraction = 1.0;
    full.local_span = 30;
    full.num_macros = 12;
    full.macro_min = 6;
    full.macro_max = 12;
    benchgen::CaseSpec quick = full;
    quick.width = quick.height = 100;
    quick.num_nets = 140;
    quick.num_macros = 3;
    reg.add(make("production_grid_10k", Family::kProduction,
                 "10k local nets on a 960x960 die (sharding regime)",
                 full, quick));
  }
  {
    benchgen::CaseSpec full = scenario_base("production_clusters", 13);
    full.width = full.height = 512;
    full.num_nets = 4000;
    full.max_pins = 6;
    full.local_net_fraction = 1.0;
    full.local_span = 22;
    full.num_macros = 12;
    full.macro_min = 6;
    full.macro_max = 14;
    benchgen::CaseSpec quick = full;
    quick.width = quick.height = 80;
    quick.num_nets = 100;
    quick.num_macros = 2;
    reg.add(make("production_clusters", Family::kProduction,
                 "4k clustered nets on a 512x512 die with macro farms",
                 full, quick));
  }

  {
    benchgen::CaseSpec full = scenario_base("degenerate_empty", 10);
    full.width = full.height = 16;
    full.num_nets = 5;
    full.min_pins = 1;
    full.max_pins = 1;
    benchgen::CaseSpec quick = full;
    reg.add(make("degenerate_empty", Family::kDegenerate,
                 "every net degenerates to one pin: the empty-netlist flow",
                 full, quick));
  }

  return reg;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry registry = build_builtin();
  return registry;
}

}  // namespace mrtpl::scenario
