/// \file test_drc.cpp
/// The DRC checker must (a) pass every clean flow and (b) catch every
/// injected corruption class. Failure injection is the point: a verifier
/// that never fires is indistinguishable from one that checks nothing.

#include <gtest/gtest.h>

#include "baseline/dac12_router.hpp"
#include "baseline/plain_router.hpp"
#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "drc/checker.hpp"
#include "global/global_router.hpp"

namespace mrtpl::drc {
namespace {

/// Routed tiny case. RoutingGrid keeps a pointer to the Design, so the
/// members are built in declaration order against the *member* design and
/// the object is returned via guaranteed copy elision (never moved).
struct Routed {
  db::Design design;
  grid::RoutingGrid grid;
  grid::Solution solution;

  explicit Routed(db::Design d) : design(std::move(d)), grid(design) {
    core::MrTplRouter router(design, nullptr, core::RouterConfig{});
    solution = router.run(grid);
  }
};

/// Route the shared tiny case with Mr.TPL.
Routed route_tiny() { return Routed(benchgen::generate(benchgen::tiny_case())); }

TEST(Drc, CleanOnMrTplFlow) {
  Routed r = route_tiny();
  const DrcReport report = verify(r.grid, r.design, r.solution);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(Drc, CleanOnDac12Flow) {
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  grid::RoutingGrid grid(design);
  baseline::Dac12Router router(design, nullptr, core::RouterConfig{});
  const grid::Solution sol = router.run(grid);
  const DrcReport report = verify(grid, design, sol);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(Drc, PlainFlowCleanWithColoringCheckOff) {
  // The colorless plain-router flow is legal input for the decomposition
  // experiment; only the coloring check must be disabled.
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  grid::RoutingGrid grid(design);
  const grid::Solution sol = baseline::route_plain(design, nullptr, grid);
  DrcOptions opt;
  opt.check_coloring = false;
  EXPECT_TRUE(verify(grid, design, sol, opt).clean());
  // And the full check reports exactly the missing masks, nothing else.
  const DrcReport full = verify(grid, design, sol);
  EXPECT_FALSE(full.clean());
  for (const auto& v : full.violations)
    EXPECT_EQ(v.kind, ViolationKind::kMissingMask);
}

TEST(Drc, CatchesNonAdjacentStep) {
  Routed r = route_tiny();
  // Corrupt: teleport within some wire path by inserting a distant — but
  // in-grid — vertex (pin metal enters as singleton paths, so search for
  // a real wire path). The far die corner cannot neighbor both endpoints
  // of any path step, so at least one step becomes a non-grid move.
  const grid::VertexId distant = r.grid.vertex(
      r.grid.num_layers() - 1, r.grid.size_x() - 1, r.grid.size_y() - 1);
  bool corrupted = false;
  for (auto& route : r.solution.routes) {
    for (auto& path : route.paths) {
      if (path.size() < 2 || path.front() == distant || path[1] == distant)
        continue;
      path.insert(path.begin() + 1, distant);
      corrupted = true;
      break;
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted) << "no wire path to corrupt";
  DrcOptions opt;
  opt.check_connectivity = false;  // the graft also changes connectivity
  const DrcReport report = verify(r.grid, r.design, r.solution, opt);
  EXPECT_GT(report.count(ViolationKind::kNonAdjacentStep), 0);
}

TEST(Drc, CatchesOutOfGridVertex) {
  Routed r = route_tiny();
  // Corrupt: splice a vertex id past the end of the grid into a wire
  // path. The checker must flag it as out-of-grid (and nothing may index
  // the grid state with it — this is the ASan regression case).
  bool corrupted = false;
  for (auto& route : r.solution.routes) {
    for (auto& path : route.paths) {
      if (path.size() < 2) continue;
      path.insert(path.begin() + 1, r.grid.num_vertices() + 7);
      corrupted = true;
      break;
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted) << "no wire path to corrupt";
  const DrcReport report = verify(r.grid, r.design, r.solution);
  EXPECT_GT(report.count(ViolationKind::kOutOfGrid), 0);
}

TEST(Drc, CatchesOwnershipMismatch) {
  Routed r = route_tiny();
  // Corrupt: release one routed vertex behind the solution's back.
  for (const auto& route : r.solution.routes) {
    if (route.empty()) continue;
    const auto verts = route.vertices();
    // Pick a wire (non-pin) vertex so release() frees it fully.
    for (const auto v : verts) {
      if (!r.grid.is_pin_vertex(v)) {
        r.grid.release(v);
        const DrcReport report = verify(r.grid, r.design, r.solution);
        EXPECT_GT(report.count(ViolationKind::kOwnershipMismatch), 0);
        return;
      }
    }
  }
  GTEST_SKIP() << "no wire vertex found";
}

TEST(Drc, CatchesBlockedVertex) {
  Routed r = route_tiny();
  for (const auto& route : r.solution.routes) {
    if (route.empty()) continue;
    const auto verts = route.vertices();
    r.grid.inject_blockage(verts.front());
    break;
  }
  const DrcReport report = verify(r.grid, r.design, r.solution);
  EXPECT_GT(report.count(ViolationKind::kBlockedVertex), 0);
}

TEST(Drc, CatchesMissingMask) {
  Routed r = route_tiny();
  for (const auto& route : r.solution.routes) {
    if (!route.routed || route.empty()) continue;
    for (const auto v : route.vertices()) {
      if (r.grid.tech().is_tpl_layer(r.grid.loc(v).layer) &&
          r.grid.mask(v) != grid::kNoMask) {
        r.grid.set_mask(v, grid::kNoMask);
        const DrcReport report = verify(r.grid, r.design, r.solution);
        EXPECT_GT(report.count(ViolationKind::kMissingMask), 0);
        return;
      }
    }
  }
  GTEST_SKIP() << "no colored TPL vertex found";
}

TEST(Drc, CatchesSpuriousMask) {
  Routed r = route_tiny();
  for (const auto& route : r.solution.routes) {
    if (route.empty()) continue;
    for (const auto v : route.vertices()) {
      if (!r.grid.tech().is_tpl_layer(r.grid.loc(v).layer)) {
        r.grid.set_mask(v, 1);
        const DrcReport report = verify(r.grid, r.design, r.solution);
        EXPECT_GT(report.count(ViolationKind::kSpuriousMask), 0);
        return;
      }
    }
  }
  GTEST_SKIP() << "design has no non-TPL routed layer";
}

TEST(Drc, CatchesOpenNetOnDroppedPath) {
  Routed r = route_tiny();
  // Corrupt: delete a multi-pin net's connecting path but keep routed=true.
  for (auto& route : r.solution.routes) {
    if (!route.routed || route.paths.size() < 3) continue;
    // Drop the longest path (pin-metal singleton paths don't disconnect).
    size_t longest = 0;
    for (size_t i = 1; i < route.paths.size(); ++i)
      if (route.paths[i].size() > route.paths[longest].size()) longest = i;
    if (route.paths[longest].size() < 3) continue;
    route.paths.erase(route.paths.begin() + static_cast<long>(longest));
    DrcOptions opt;
    opt.check_ownership = false;  // the grid still owns the dropped metal
    const DrcReport report = verify(r.grid, r.design, r.solution, opt);
    EXPECT_GT(report.count(ViolationKind::kOpenNet), 0);
    return;
  }
  GTEST_SKIP() << "no suitable multi-path net";
}

TEST(Drc, CatchesOverlap) {
  Routed r = route_tiny();
  // Corrupt: graft one net's vertex into another net's path list.
  grid::VertexId stolen = grid::kInvalidVertex;
  db::NetId victim = db::kNoNet;
  for (const auto& route : r.solution.routes) {
    if (route.empty()) continue;
    if (stolen == grid::kInvalidVertex) {
      stolen = route.vertices().front();
      victim = route.net;
      continue;
    }
    auto corrupted = r.solution;
    corrupted.routes[static_cast<size_t>(route.net)].paths.push_back({stolen});
    DrcOptions opt;
    opt.check_ownership = false;
    opt.check_connectivity = false;
    const DrcReport report = verify(r.grid, r.design, corrupted, opt);
    EXPECT_GT(report.count(ViolationKind::kOverlap), 0);
    ASSERT_FALSE(report.violations.empty());
    const auto& v = report.violations.front();
    EXPECT_EQ(v.kind == ViolationKind::kOverlap ? victim : db::kNoNet, victim);
    return;
  }
  GTEST_SKIP() << "fewer than two routed nets";
}

TEST(Drc, MaxViolationsTruncates) {
  Routed r = route_tiny();
  // Strip every mask: one violation per TPL wire vertex, far more than 3.
  for (const auto& route : r.solution.routes)
    for (const auto v : route.vertices())
      if (r.grid.mask(v) != grid::kNoMask) r.grid.set_mask(v, grid::kNoMask);
  DrcOptions opt;
  opt.max_violations = 3;
  const DrcReport report = verify(r.grid, r.design, r.solution, opt);
  EXPECT_EQ(static_cast<int>(report.violations.size()), 3);
}

TEST(Drc, SummaryNamesKinds) {
  Routed r = route_tiny();
  for (const auto& route : r.solution.routes) {
    if (route.empty()) continue;
    r.grid.inject_blockage(route.vertices().front());
    break;
  }
  const DrcReport report = verify(r.grid, r.design, r.solution);
  EXPECT_NE(report.summary().find("blocked-vertex"), std::string::npos);
}

TEST(Drc, ToStringCoversAllKinds) {
  for (const auto kind :
       {ViolationKind::kOutOfGrid, ViolationKind::kOpenNet,
        ViolationKind::kNonAdjacentStep, ViolationKind::kOwnershipMismatch,
        ViolationKind::kBlockedVertex, ViolationKind::kMissingMask,
        ViolationKind::kSpuriousMask, ViolationKind::kOverlap}) {
    EXPECT_STRNE(to_string(kind), "unknown");
  }
}

/// Every seed of the integration sweep must verify clean end-to-end — the
/// strongest correctness statement the suite makes about the full flow.
class DrcFlowSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DrcFlowSweep, MrTplFlowAlwaysVerifies) {
  benchgen::CaseSpec spec = benchgen::tiny_case();
  spec.width = spec.height = 36;
  spec.num_nets = 40;
  spec.seed = GetParam();
  const db::Design design = benchgen::generate(spec);
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();
  grid::RoutingGrid grid(design);
  core::MrTplRouter router(design, &guides, core::RouterConfig{});
  const grid::Solution sol = router.run(grid);
  const DrcReport report = verify(grid, design, sol);
  EXPECT_TRUE(report.clean()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DrcFlowSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace mrtpl::drc
