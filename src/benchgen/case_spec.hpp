#pragma once
/// \file case_spec.hpp
/// Parameterisation of a synthetic routing case. Two named suites mirror
/// the structural progression of the ISPD 2018 and ISPD 2019 contest
/// benchmarks (small/sparse "test1" up to large/congested "test10"); see
/// generator.hpp for the routing regimes the synthetic designs keep and
/// bench/bench_table2.cpp's header for why only relative numbers are
/// compared.

#include <cstdint>
#include <string>
#include <vector>

namespace mrtpl::benchgen {

/// Hard mask capacity of the routing stack (mirrors grid::kNumMasks;
/// benchgen layers below grid, so the bound is restated here).
constexpr int kMaxMasks = 3;

struct CaseSpec {
  std::string name;

  // Die and layer stack.
  int width = 64;          ///< tracks in x
  int height = 64;         ///< tracks in y
  int num_layers = 4;
  int tpl_layers = 2;      ///< lowest N layers carry TPL rules
  int dcolor = 2;          ///< same-mask spacing threshold (tracks)

  // Netlist shape.
  int num_nets = 100;
  int min_pins = 2;
  int max_pins = 6;        ///< multi-pin tail; mean degree ≈ 3
  double local_net_fraction = 0.7;  ///< nets whose pins cluster locally
  int local_span = 16;     ///< cluster box edge for local nets (tracks)

  /// Minimum clearance between pins of different nets, in tracks. Two
  /// pins must sit `pin_keepout + 1` apart; at least dcolor keeps pin
  /// metal of different nets colorable without forced conflicts.
  int pin_keepout = 2;

  // Obstacles.
  int num_macros = 4;
  int macro_min = 4;       ///< macro edge range (tracks)
  int macro_max = 10;

  // ---- Stress-family knobs (src/scenario suites). ----------------------
  /// >0: local nets draw their cluster box from this many fixed hotspot
  /// regions instead of a fresh random box per net, piling pin demand onto
  /// a handful of windows until it exceeds the local track supply.
  int hotspot_count = 0;

  /// >0: that many serpentine 1-track-thick blockage walls span the die on
  /// every TPL layer, each open only through a maze_gap-wide slot at
  /// alternating ends. Upper single-patterned layers can still fly over,
  /// so maze specs set num_layers == tpl_layers to force the detour.
  int maze_walls = 0;
  int maze_gap = 2;        ///< open-slot width of each maze wall (tracks)

  /// Routing pitch: with pitch p > 1 only every p-th row (horizontal
  /// layers) / column (vertical layers) is a usable track; the generator
  /// blocks the rest, leaving 1-track-wide routing channels. Pins snap
  /// onto usable tracks.
  int track_pitch = 1;

  /// Masks the TPL layers decompose into: 3 = triple patterning (the
  /// paper), 2 = double patterning. Bounded by the grid's mask capacity.
  int num_masks = 3;

  std::uint64_t seed = 1;

  /// Empty when the spec is generatable; otherwise a human-readable
  /// description of the first violated constraint — the message
  /// generate() throws with. Degenerate parameterisations (zero-area
  /// dies, non-positive track pitch, more colors than masks) are rejected
  /// here instead of silently producing broken grids.
  [[nodiscard]] std::string validation_error() const;

  [[nodiscard]] bool valid() const { return validation_error().empty(); }
};

/// The ten ISPD-2018-like cases used by Table II.
std::vector<CaseSpec> ispd2018_suite();

/// The ten ISPD-2019-like cases used by Table III (denser pins, tighter
/// color rules — the regime where post-routing decomposition struggles).
std::vector<CaseSpec> ispd2019_suite();

/// Single mid-size case used by ablation benches.
CaseSpec ablation_case();

/// Tiny case for unit tests (fast, still multi-layer/multi-net).
CaseSpec tiny_case();

}  // namespace mrtpl::benchgen
