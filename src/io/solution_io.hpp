#pragma once
/// \file solution_io.hpp
/// Text serialization of routed solutions and route guides. A saved
/// solution records every net's paths and the committed per-vertex masks,
/// so an external checker (or a later session) can re-verify conflict and
/// stitch counts without rerunning the router.
///
/// Solution format:
///   mrtpl-solution 1
///   route <net_id> <routed:0|1> <num_paths>
///   path <n> (<layer> <x> <y>)*
///   masks <n> (<layer> <x> <y> <mask>)*      # committed colors
///   end
///
/// Guide format:
///   mrtpl-guides 1
///   guide <net_id> <num_boxes> (<x0> <y0> <x1> <y1>)*
///   end

#include <iosfwd>
#include <string>
#include <vector>

#include "global/guide.hpp"
#include "grid/route_result.hpp"
#include "grid/routing_grid.hpp"

namespace mrtpl::io {

/// Serialize the solution plus the committed masks read from `grid`. One
/// code path builds the text (solution_to_string); write_solution writes it.
void write_solution(std::ostream& os, const grid::RoutingGrid& grid,
                    const grid::Solution& solution);
std::string solution_to_string(const grid::RoutingGrid& grid,
                               const grid::Solution& solution);

/// Parse a solution and commit it into `grid` (vertices + masks). The
/// grid must be freshly built from the same design. Throws io::ParseError
/// (parse_error.hpp: source/line/token/reason) on malformed input or
/// vertex coordinates outside the grid; `source` names the input in the
/// error. load_solution throws ParseError with the path as source when
/// the file cannot be opened.
grid::Solution read_solution(std::istream& is, grid::RoutingGrid& grid,
                             const std::string& source = "<stream>");
grid::Solution solution_from_string(const std::string& text, grid::RoutingGrid& grid);

void save_solution(const std::string& path, const grid::RoutingGrid& grid,
                   const grid::Solution& solution);
grid::Solution load_solution(const std::string& path, grid::RoutingGrid& grid);

/// Route-guide serialization (CUGR-guide stand-in). Same ParseError
/// contract as read_solution.
void write_guides(std::ostream& os, const global::GuideSet& guides);
global::GuideSet read_guides(std::istream& is,
                             const std::string& source = "<stream>");
std::string guides_to_string(const global::GuideSet& guides);
global::GuideSet guides_from_string(const std::string& text);

}  // namespace mrtpl::io
