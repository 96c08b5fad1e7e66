#pragma once
/// \file drc_oracle.hpp
/// Reference implementation of drc::verify for differential tests: the
/// original hash-container checker (node maps and sets over the routed
/// vertices, one `vertices()` call per check), kept verbatim apart from
/// the out-of-design net-id guard both checkers share. The production
/// checker must return an element-wise equal violation list — same
/// kinds, nets, vertices, details, order and `max_violations` truncation.

#include "db/design.hpp"
#include "drc/checker.hpp"
#include "grid/route_result.hpp"
#include "grid/routing_grid.hpp"

namespace mrtpl::test {

[[nodiscard]] drc::DrcReport drc_oracle_verify(const grid::RoutingGrid& grid,
                                               const db::Design& design,
                                               const grid::Solution& solution,
                                               const drc::DrcOptions& options = {});

}  // namespace mrtpl::test
