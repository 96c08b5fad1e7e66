#pragma once
/// \file solution_io_oracle.hpp
/// Reference solution writer for differential tests: the original
/// `std::ostream` formatter of io::write_solution, kept verbatim. The
/// production `std::to_chars` buffer writer must produce byte-equal text.

#include <iosfwd>
#include <string>

#include "grid/route_result.hpp"
#include "grid/routing_grid.hpp"

namespace mrtpl::test {

void write_solution_oracle(std::ostream& os, const grid::RoutingGrid& grid,
                           const grid::Solution& solution);

/// write_solution_oracle into a string.
[[nodiscard]] std::string solution_oracle_text(const grid::RoutingGrid& grid,
                                               const grid::Solution& solution);

}  // namespace mrtpl::test
