#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "viz/svg_render.hpp"

namespace mrtpl::viz {
namespace {

db::Design routed_design(grid::RoutingGrid** out_grid) {
  static db::Design design = benchgen::generate(benchgen::tiny_case());
  static grid::RoutingGrid grid(design);
  static bool routed = false;
  if (!routed) {
    core::MrTplRouter router(design, nullptr, core::RouterConfig{});
    router.run(grid);
    routed = true;
  }
  *out_grid = &grid;
  return design;
}

TEST(SvgRender, WellFormedDocument) {
  grid::RoutingGrid* grid = nullptr;
  routed_design(&grid);
  const std::string svg = render_svg(*grid);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One pane per layer.
  EXPECT_NE(svg.find(">M1 (TPL)<"), std::string::npos);
  EXPECT_NE(svg.find(">M3<"), std::string::npos);
}

TEST(SvgRender, SingleLayerMode) {
  grid::RoutingGrid* grid = nullptr;
  routed_design(&grid);
  SvgOptions opts;
  opts.single_layer = true;
  opts.layer = 1;
  const std::string svg = render_svg(*grid, opts);
  EXPECT_NE(svg.find(">M2 (TPL)<"), std::string::npos);
  EXPECT_EQ(svg.find(">M1 (TPL)<"), std::string::npos);
}

TEST(SvgRender, SaveToFile) {
  grid::RoutingGrid* grid = nullptr;
  routed_design(&grid);
  const std::string path = testing::TempDir() + "/mrtpl_viz_test.svg";
  EXPECT_NO_THROW(save_svg(path, *grid));
  EXPECT_THROW(save_svg("/nonexistent/dir/x.svg", *grid), std::runtime_error);
}

}  // namespace
}  // namespace mrtpl::viz
