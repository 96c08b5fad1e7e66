#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>
#include <tuple>

#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "eval/metrics.hpp"
#include "global/global_router.hpp"
#include "grid/grid_view.hpp"
#include "io/parse_error.hpp"
#include "io/solution_io.hpp"
#include "support/builders.hpp"
#include "support/golden.hpp"
#include "support/solution_io_oracle.hpp"

namespace mrtpl::io {
namespace {

// Like the design format, the .sol format is a compatibility surface,
// and the router is fully deterministic — so the routed canonical
// fixture has exactly one correct serialization. Determinism is only
// guaranteed per platform (FP tie-breaks may differ across
// architectures); the committed golden is the x86-64 reference — if it
// mismatches on another target with an equally valid route, regenerate
// locally rather than treating it as a regression.
TEST(SolutionIo, FormatSnapshot) {
  const db::Design design = test::four_pin_design();
  grid::RoutingGrid grid(design);
  core::MrTplRouter router(design, nullptr, core::RouterConfig{});
  const grid::Solution solution = router.run(grid);
  test::expect_matches_golden("four_pin.sol", solution_to_string(grid, solution));
}

TEST(SolutionIo, RoundTripPreservesMetrics) {
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  grid::RoutingGrid grid(design);
  core::MrTplRouter router(design, nullptr, core::RouterConfig{});
  const grid::Solution solution = router.run(grid);
  const eval::Metrics before = eval::evaluate(grid, solution, nullptr);

  const std::string text = solution_to_string(grid, solution);
  grid::RoutingGrid grid2(design);
  const grid::Solution loaded = solution_from_string(text, grid2);
  const eval::Metrics after = eval::evaluate(grid2, loaded, nullptr);

  EXPECT_EQ(before.conflicts, after.conflicts);
  EXPECT_EQ(before.stitches, after.stitches);
  EXPECT_EQ(before.wirelength, after.wirelength);
  EXPECT_EQ(before.vias, after.vias);
  EXPECT_EQ(before.failed_nets, after.failed_nets);
}

TEST(SolutionIo, MasksRestoredExactly) {
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  grid::RoutingGrid grid(design);
  core::MrTplRouter router(design, nullptr, core::RouterConfig{});
  const grid::Solution solution = router.run(grid);

  grid::RoutingGrid grid2(design);
  solution_from_string(solution_to_string(grid, solution), grid2);
  for (grid::VertexId v = 0; v < grid.num_vertices(); ++v) {
    EXPECT_EQ(grid.owner(v), grid2.owner(v));
    EXPECT_EQ(grid.mask(v), grid2.mask(v));
  }
}

TEST(SolutionIo, RejectsBadHeader) {
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  grid::RoutingGrid grid(design);
  EXPECT_THROW(solution_from_string("nope\n", grid), std::runtime_error);
}

TEST(SolutionIo, RejectsOutOfGridVertex) {
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  grid::RoutingGrid grid(design);
  EXPECT_THROW(solution_from_string(
                   "mrtpl-solution 1\nroute 0 1 1\npath 1 0 999 999\nend\n", grid),
               std::runtime_error);
}

TEST(SolutionIo, RejectsUnknownNet) {
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  grid::RoutingGrid grid(design);
  EXPECT_THROW(
      solution_from_string("mrtpl-solution 1\nroute 9999 1 0\nend\n", grid),
      std::runtime_error);
}

// ---- structured ParseError surface -------------------------------------
// Rejections carry (source, line, token, reason) so the CLI can map them
// to exit code 3 with a pinpointed message.

TEST(SolutionIo, ParseErrorCarriesLineAndToken) {
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  grid::RoutingGrid grid(design);
  try {
    solution_from_string("mrtpl-solution 1\nroute 0 1 one\nend\n", grid);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.source(), "<string>");
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.token(), "one");
  }
}

TEST(SolutionIo, TruncatedInputsNeverEscapeParseError) {
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  grid::RoutingGrid grid(design);
  core::MrTplRouter router(design, nullptr, core::RouterConfig{});
  const grid::Solution solution = router.run(grid);
  const std::string text = solution_to_string(grid, solution);
  for (size_t len : {size_t{0}, size_t{4}, text.size() / 3, text.size() / 2}) {
    grid::RoutingGrid scratch(design);
    EXPECT_THROW(solution_from_string(text.substr(0, len), scratch), ParseError)
        << "prefix length " << len;
  }
}

TEST(SolutionIo, LoadMissingFileIsParseError) {
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  grid::RoutingGrid grid(design);
  try {
    load_solution("/nonexistent/path/x.sol", grid);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.source(), "/nonexistent/path/x.sol");
    EXPECT_EQ(e.line(), 0);
    EXPECT_EQ(e.reason(), "cannot open file");
  }
}

TEST(GuideIo, RoundTrip) {
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();
  const global::GuideSet loaded = guides_from_string(guides_to_string(guides));
  ASSERT_EQ(loaded.size(), guides.size());
  for (size_t i = 0; i < guides.size(); ++i) {
    EXPECT_EQ(loaded[i].net, guides[i].net);
    EXPECT_EQ(loaded[i].boxes, guides[i].boxes);
  }
}

TEST(GuideIo, RejectsTruncated) {
  EXPECT_THROW(guides_from_string("mrtpl-guides 1\nguide 0 2 1 1 2 2\n"),
               std::runtime_error);
  EXPECT_THROW(guides_from_string("wrong\n"), std::runtime_error);
}

TEST(SolutionIo, FileRoundTrip) {
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  grid::RoutingGrid grid(design);
  core::MrTplRouter router(design, nullptr, core::RouterConfig{});
  const grid::Solution solution = router.run(grid);
  const std::string path = testing::TempDir() + "/mrtpl_solution_io_test.sol";
  save_solution(path, grid, solution);
  grid::RoutingGrid grid2(design);
  const grid::Solution loaded = load_solution(path, grid2);
  EXPECT_EQ(solution_to_string(grid, solution), solution_to_string(grid2, loaded));
}

/// A random solution over `grid`'s vertex ids, with random committed
/// masks: kNoMask (-1) included, kNoNet routes with and without paths,
/// empty routes, single-vertex (pin) paths and zero-length paths.
grid::Solution random_solution(grid::RoutingGrid& grid, std::mt19937_64& rng) {
  auto pick = [&](std::uint64_t n) { return rng() % n; };
  const int num_nets = grid.design().num_nets();
  grid::Solution sol;
  sol.routes.resize(static_cast<size_t>(num_nets) + 3);
  for (size_t r = 0; r < sol.routes.size(); ++r) {
    grid::NetRoute& route = sol.routes[r];
    route.net =
        r < static_cast<size_t>(num_nets) ? static_cast<db::NetId>(r) : db::kNoNet;
    route.routed = pick(2) == 0;
    const auto num_paths = pick(5);
    for (std::uint64_t p = 0; p < num_paths; ++p) {
      std::vector<grid::VertexId> path(pick(4) == 0 ? 1 : pick(8));
      for (auto& v : path) v = static_cast<grid::VertexId>(pick(grid.num_vertices()));
      route.paths.push_back(std::move(path));
    }
    for (const grid::VertexId v : route.vertices())
      if (grid.owner(v) == db::kNoNet)
        grid.commit(v, 0, static_cast<grid::Mask>(static_cast<int>(pick(4)) - 1));
  }
  return sol;
}

TEST(SolutionIoOracle, BufferWriterMatchesStreamWriter) {
  std::mt19937_64 rng(2024);
  int compared = 0;
  for (const auto& [layers, w, h] :
       {std::tuple{1, 1, 1}, std::tuple{2, 7, 5}, std::tuple{4, 40, 33},
        std::tuple{2, 1100, 1001}}) {
    const db::Design design = test::single_pin_design(layers, w, h);
    for (int trial = 0; trial < 6; ++trial) {
      grid::RoutingGrid whole(design);
      // Half the trials serialize through a tile view: ids are
      // view-local, coordinates stay global.
      std::unique_ptr<grid::GridView> view;
      if (trial % 2 == 1 && w > 2 && h > 2)
        view = std::make_unique<grid::GridView>(
            whole, geom::Rect{w / 3, h / 4, w - 1, h / 2 + 1});
      grid::RoutingGrid& grid = view ? *view : whole;
      const grid::Solution sol = random_solution(grid, rng);
      const std::string want = test::solution_oracle_text(grid, sol);
      ASSERT_EQ(solution_to_string(grid, sol), want)
          << layers << "x" << w << "x" << h << " trial " << trial;
      std::ostringstream os;
      write_solution(os, grid, sol);
      ASSERT_EQ(os.str(), want);
      ++compared;
    }
  }
  // Real routed layouts too: the tiny case and the canonical fixture.
  for (const db::Design& design :
       {benchgen::generate(benchgen::tiny_case()), test::four_pin_design()}) {
    grid::RoutingGrid grid(design);
    core::MrTplRouter router(design, nullptr, core::RouterConfig{});
    const grid::Solution sol = router.run(grid);
    EXPECT_EQ(solution_to_string(grid, sol), test::solution_oracle_text(grid, sol));
    ++compared;
  }
  EXPECT_EQ(compared, 26);
}

}  // namespace
}  // namespace mrtpl::io
