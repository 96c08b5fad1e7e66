#include "support/solution_io_oracle.hpp"

#include <ostream>
#include <sstream>

namespace mrtpl::test {

void write_solution_oracle(std::ostream& os, const grid::RoutingGrid& grid,
                           const grid::Solution& solution) {
  os << "mrtpl-solution 1\n";
  for (const auto& route : solution.routes) {
    if (route.net == db::kNoNet && route.empty()) continue;
    os << "route " << route.net << ' ' << (route.routed ? 1 : 0) << ' '
       << route.paths.size() << "\n";
    for (const auto& path : route.paths) {
      os << "path " << path.size();
      for (const auto v : path) {
        const grid::VertexLoc l = grid.loc(v);
        os << ' ' << l.layer << ' ' << l.x << ' ' << l.y;
      }
      os << "\n";
    }
    const auto verts = route.vertices();
    os << "masks " << verts.size();
    for (const auto v : verts) {
      const grid::VertexLoc l = grid.loc(v);
      os << ' ' << l.layer << ' ' << l.x << ' ' << l.y << ' '
         << static_cast<int>(grid.mask(v));
    }
    os << "\n";
  }
  os << "end\n";
}

std::string solution_oracle_text(const grid::RoutingGrid& grid,
                                 const grid::Solution& solution) {
  std::ostringstream ss;
  write_solution_oracle(ss, grid, solution);
  return ss.str();
}

}  // namespace mrtpl::test
