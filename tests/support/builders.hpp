#pragma once
/// \file builders.hpp
/// Shared design fixtures for the test suites. These were historically
/// copy-pasted per test file; every suite that needs a small canonical
/// design should pull it from here so new scenarios are cheap to add and
/// geometry tweaks happen in exactly one place.

#include <cstdint>

#include "benchgen/case_spec.hpp"
#include "db/design.hpp"

namespace mrtpl::test {

/// 20x20, 2 layers, one 4-pin net — the Fig. 3 setting. The canonical
/// single-net fixture for router and metric tests.
[[nodiscard]] db::Design four_pin_design();

/// 16x16, 2 layers (M1 horizontal TPL, M2 vertical TPL), one 2-pin net
/// with a straight preferred-direction corridor between the pins at
/// y = 8. The canonical search fixture: path length 13 at wire cost 1.
[[nodiscard]] db::Design corridor_design();

/// 16x16, `count` parallel 2-pin nets one track apart starting at y = 7
/// (x from 2 to 13 on layer 0). With TPL awareness, neighbors must end on
/// different masks or farther apart.
[[nodiscard]] db::Design parallel_nets_design(int count = 2);

/// 16x16, 3 layers, one 2-pin net (a 2-track bar pin and a point pin)
/// plus a 2x2 layer-0 obstacle at (5,5). The canonical grid-structure
/// fixture: exercises multi-vertex pins, >2 layers and blockages.
[[nodiscard]] db::Design grid_fixture_design();

/// `layers` x `w` x `h` die with a single point pin at the origin — the
/// minimal valid design, used to sweep grid shapes in property tests.
[[nodiscard]] db::Design single_pin_design(int layers, int w, int h);

/// tiny_case() resized: `edge` x `edge` die with `num_nets` nets under
/// the given generator seed. The determinism and scaling tests' spec.
[[nodiscard]] benchgen::CaseSpec sized_case(int edge, int num_nets,
                                            std::uint64_t seed);

}  // namespace mrtpl::test
