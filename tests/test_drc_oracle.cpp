/// \file test_drc_oracle.cpp
/// Differential tests of drc::verify against the hash-container reference
/// checker (support/drc_oracle.hpp). The production checker trades node
/// containers for flat scratch; these tests require the two to return
/// element-wise equal violation lists — kind, net, other, vertex, detail,
/// order — under every one of the 64 check subsets and under
/// `max_violations` truncation, on clean flows and on corrupted layouts.

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>

#include "baseline/plain_router.hpp"
#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "drc/checker.hpp"
#include "global/global_router.hpp"
#include "io/design_io.hpp"
#include "io/parse_error.hpp"
#include "support/drc_oracle.hpp"
#include "support/golden.hpp"

namespace mrtpl::drc {
namespace {

/// A routed design. RoutingGrid keeps a pointer to the Design, so the
/// members are built in declaration order against the *member* design and
/// the object is never moved (guaranteed copy elision only).
struct Routed {
  db::Design design;
  grid::RoutingGrid grid;
  grid::Solution solution;

  explicit Routed(db::Design d, bool with_guides = true)
      : design(std::move(d)), grid(design) {
    global::GuideSet guides;
    if (with_guides) guides = global::GlobalRouter(design).route_all();
    core::MrTplRouter router(design, with_guides ? &guides : nullptr,
                             core::RouterConfig{});
    solution = router.run(grid);
  }
};

/// The DrcFlowSweep case for `seed`.
db::Design sweep_design(std::uint64_t seed) {
  benchgen::CaseSpec spec = benchgen::tiny_case();
  spec.width = spec.height = 36;
  spec.num_nets = 40;
  spec.seed = seed;
  return benchgen::generate(spec);
}

DrcOptions options_for(int subset, int max_violations) {
  DrcOptions o;
  o.check_connectivity = (subset & 1) != 0;
  o.check_adjacency = (subset & 2) != 0;
  o.check_ownership = (subset & 4) != 0;
  o.check_blockage = (subset & 8) != 0;
  o.check_coloring = (subset & 16) != 0;
  o.check_overlap = (subset & 32) != 0;
  o.max_violations = max_violations;
  return o;
}

/// Both checkers under every check subset x max_violations in {0,1,3,7};
/// stops at the first differing configuration.
void expect_matches_oracle(const grid::RoutingGrid& grid, const db::Design& design,
                           const grid::Solution& solution, const std::string& context) {
  for (int subset = 0; subset < 64; ++subset) {
    for (const int cap : {0, 1, 3, 7}) {
      const DrcOptions opt = options_for(subset, cap);
      const DrcReport got = verify(grid, design, solution, opt);
      const DrcReport want = test::drc_oracle_verify(grid, design, solution, opt);
      const std::string where =
          context + " subset " + std::to_string(subset) + " cap " + std::to_string(cap);
      ASSERT_EQ(got.violations.size(), want.violations.size()) << where;
      for (size_t i = 0; i < got.violations.size(); ++i) {
        const Violation& g = got.violations[i];
        const Violation& w = want.violations[i];
        ASSERT_EQ(g.kind, w.kind) << where << " #" << i;
        ASSERT_EQ(g.net, w.net) << where << " #" << i;
        ASSERT_EQ(g.other, w.other) << where << " #" << i;
        ASSERT_EQ(g.vertex, w.vertex) << where << " #" << i;
        ASSERT_EQ(g.detail, w.detail) << where << " #" << i;
      }
    }
  }
}

/// Corruption classes; together they provoke every ViolationKind.
enum class Corruption {
  kOutOfGridId,     ///< kOutOfGrid
  kTeleport,        ///< kNonAdjacentStep (and often kOpenNet)
  kDropPath,        ///< kOpenNet
  kReleaseVertex,   ///< kOwnershipMismatch, solution side
  kPhantomMetal,    ///< kOwnershipMismatch, grid side
  kBlockVertex,     ///< kBlockedVertex
  kStripMask,       ///< kMissingMask
  kPaintMask,       ///< kSpuriousMask on single-patterned layers
  kStealVertex,     ///< kOverlap
  kRepeatVertex,    ///< a path that stands still for one step
  kBadNetId,        ///< kOpenNet naming an id outside the design
};
constexpr int kNumCorruptions = 11;

/// Apply one corruption to (grid, solution). Returns false when the layout
/// offers nothing to corrupt that way.
bool corrupt(Corruption c, grid::RoutingGrid& grid, grid::Solution& sol,
             std::mt19937_64& rng) {
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  std::vector<size_t> live;
  for (size_t r = 0; r < sol.routes.size(); ++r)
    if (!sol.routes[r].vertices().empty()) live.push_back(r);
  if (live.empty()) return false;
  grid::NetRoute& route = sol.routes[live[pick(live.size())]];
  // An in-grid vertex of the route (earlier corruptions may have spliced
  // out-of-grid ids in); the grid-state corruptions index with it.
  std::vector<grid::VertexId> verts;
  for (const grid::VertexId u : route.vertices())
    if (u < grid.num_vertices()) verts.push_back(u);
  if (verts.empty()) return false;
  const grid::VertexId v = verts[pick(verts.size())];
  std::vector<grid::VertexId>* path = nullptr;
  for (auto& p : route.paths)
    if (!p.empty() && (path == nullptr || rng() % 2 == 0)) path = &p;
  switch (c) {
    case Corruption::kOutOfGridId:
      path->insert(path->begin() + static_cast<long>(pick(path->size() + 1)),
                   grid.num_vertices() + static_cast<grid::VertexId>(pick(50)));
      return true;
    case Corruption::kTeleport:
      path->insert(path->begin() + static_cast<long>(pick(path->size() + 1)),
                   static_cast<grid::VertexId>(pick(grid.num_vertices())));
      return true;
    case Corruption::kDropPath:
      if (route.paths.size() < 2) return false;
      route.paths.erase(route.paths.begin() +
                        static_cast<long>(pick(route.paths.size())));
      return true;
    case Corruption::kReleaseVertex:
      grid.release(v);
      return true;
    case Corruption::kPhantomMetal:
      for (int tries = 0; tries < 200; ++tries) {
        const auto u = static_cast<grid::VertexId>(pick(grid.num_vertices()));
        if (grid.owner(u) != db::kNoNet || grid.blocked(u) || grid.is_pin_vertex(u))
          continue;
        grid.commit(u, route.net >= 0 ? route.net : 0,
                    static_cast<grid::Mask>(pick(grid::kNumMasks)));
        return true;
      }
      return false;
    case Corruption::kBlockVertex:
      grid.inject_blockage(v);
      return true;
    case Corruption::kStripMask:
      if (grid.owner(v) == db::kNoNet) return false;
      grid.set_mask(v, grid::kNoMask);
      return true;
    case Corruption::kPaintMask:
      if (grid.owner(v) == db::kNoNet) return false;
      grid.set_mask(v, static_cast<grid::Mask>(pick(grid::kNumMasks)));
      return true;
    case Corruption::kStealVertex: {
      grid::NetRoute& thief = sol.routes[live[pick(live.size())]];
      thief.paths.push_back({v});
      return true;
    }
    case Corruption::kRepeatVertex: {
      const size_t i = pick(path->size());
      const grid::VertexId repeated = (*path)[i];
      path->insert(path->begin() + static_cast<long>(i), repeated);
      return true;
    }
    case Corruption::kBadNetId:
      route.routed = true;
      route.net = rng() % 2 == 0 ? static_cast<db::NetId>(grid.design().num_nets() +
                                                          static_cast<int>(pick(5)))
                                 : -1 - static_cast<db::NetId>(pick(5));
      return true;
  }
  return false;
}

/// Corrupt copies of `base` with `count` classes alone, starting at class
/// `first` (wrapping), then with `mixed` random combinations, and require
/// oracle agreement on each.
void expect_corruptions_match(const Routed& base, std::uint64_t seed, int first,
                              int count, int mixed, const std::string& context) {
  std::mt19937_64 rng(seed);
  for (int i = 0; i < count; ++i) {
    const int k = (first + i) % kNumCorruptions;
    grid::RoutingGrid grid = base.grid;
    grid::Solution sol = base.solution;
    if (!corrupt(static_cast<Corruption>(k), grid, sol, rng)) continue;
    ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(
        grid, base.design, sol, context + " corruption " + std::to_string(k)));
  }
  for (int trial = 0; trial < mixed; ++trial) {
    grid::RoutingGrid grid = base.grid;
    grid::Solution sol = base.solution;
    const int n = 2 + static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i)
      (void)corrupt(static_cast<Corruption>(rng() % kNumCorruptions), grid, sol, rng);
    ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(
        grid, base.design, sol, context + " mixed trial " + std::to_string(trial)));
  }
}

class DrcOracleSweep : public ::testing::TestWithParam<std::uint64_t> {};

/// The DrcFlowSweep seeds: the clean flow, three corruption classes alone
/// (starting at class seed % 11; over these seeds every class is covered)
/// and one random mix.
TEST_P(DrcOracleSweep, MatchesOracleOnFlowAndCorruptions) {
  const Routed base(sweep_design(GetParam()));
  const std::string context = "seed " + std::to_string(GetParam());
  ASSERT_NO_FATAL_FAILURE(
      expect_matches_oracle(base.grid, base.design, base.solution, context));
  expect_corruptions_match(base, GetParam(),
                           static_cast<int>(GetParam() % kNumCorruptions), 3, 1,
                           context);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DrcOracleSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(DrcOracle, FuzzCorpusDesignsMatch) {
  const std::string dir = test::golden_path("fuzz_corpus");
  int parsed = 0;
  for (const std::string name :
       {"seed_tiny.design", "seed_dpl.design", "seed_malformed.design"}) {
    std::ifstream in(dir + "/" + name, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing corpus file " << name;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::optional<db::Design> design;
    try {
      design.emplace(io::design_from_string(buf.str()));
    } catch (const io::ParseError&) {
      continue;  // the malformed seed never reaches a checker
    }
    ++parsed;
    const Routed base(std::move(*design), /*with_guides=*/false);
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_oracle(base.grid, base.design, base.solution, name));
    expect_corruptions_match(base, 7, 0, kNumCorruptions, 2, name);
  }
  EXPECT_GE(parsed, 2);
}

TEST(DrcOracle, PlainFlowMatches) {
  // Colorless metal: every TPL vertex is a missing mask, enough to make
  // every truncation cap bite.
  const db::Design design = benchgen::generate(benchgen::tiny_case());
  grid::RoutingGrid grid(design);
  const grid::Solution sol = baseline::route_plain(design, nullptr, grid);
  expect_matches_oracle(grid, design, sol, "plain");
}

TEST(DrcOracle, CorruptionsProvokeEveryKind) {
  // The differential sweeps are only as strong as the corruptions they
  // feed: together the classes must provoke every violation kind.
  const Routed base(sweep_design(1));
  std::mt19937_64 rng(11);
  std::vector<int> seen(8, 0);
  for (int round = 0; round < 5; ++round) {
    for (int k = 0; k < kNumCorruptions; ++k) {
      grid::RoutingGrid grid = base.grid;
      grid::Solution sol = base.solution;
      if (!corrupt(static_cast<Corruption>(k), grid, sol, rng)) continue;
      for (const auto& v : verify(grid, base.design, sol).violations)
        ++seen[static_cast<size_t>(v.kind)];
    }
  }
  for (size_t kind = 0; kind < seen.size(); ++kind)
    EXPECT_GT(seen[kind], 0) << to_string(static_cast<ViolationKind>(kind));
}

TEST(DrcOracle, TwoNetsShareOneOutOfGridId) {
  Routed r(sweep_design(2));
  const grid::VertexId bad = r.grid.num_vertices() + 3;
  int grafted = 0;
  for (auto& route : r.solution.routes) {
    if (route.paths.empty() || grafted == 2) continue;
    route.paths.front().push_back(bad);
    ++grafted;
  }
  ASSERT_EQ(grafted, 2);
  expect_matches_oracle(r.grid, r.design, r.solution, "shared out-of-grid id");
  // Both routes claim the same bogus id: an overlap as well as two
  // out-of-grid reports.
  const DrcReport report = verify(r.grid, r.design, r.solution);
  EXPECT_EQ(report.count(ViolationKind::kOutOfGrid), 2);
  EXPECT_EQ(report.count(ViolationKind::kOverlap), 1);
}

TEST(DrcOracle, ManyOverlapsReportInRouteOrder) {
  // Each route steals a vertex from its predecessor: overlaps then sit at
  // vertex ids that do not rise with the route index, so an overlap list
  // emitted in claim (vertex) order would differ from the contract's
  // (route, vertex) order — and truncation would keep the wrong prefix.
  Routed r(sweep_design(21));
  std::mt19937_64 rng(5);
  std::vector<size_t> live;
  for (size_t i = 0; i < r.solution.routes.size(); ++i)
    if (!r.solution.routes[i].empty()) live.push_back(i);
  ASSERT_GE(live.size(), 3u);
  for (size_t i = 1; i < live.size(); ++i) {
    const auto victim = r.solution.routes[live[i - 1]].vertices();
    r.solution.routes[live[i]].paths.push_back({victim[rng() % victim.size()]});
  }
  expect_matches_oracle(r.grid, r.design, r.solution, "many overlaps");
  DrcOptions opt;
  opt.check_ownership = false;
  opt.check_connectivity = false;
  EXPECT_GE(verify(r.grid, r.design, r.solution, opt).count(ViolationKind::kOverlap),
            static_cast<int>(live.size()) - 1);
}

TEST(DrcOracle, RepeatedVerticesInAPath) {
  Routed r(sweep_design(3));
  for (auto& route : r.solution.routes)
    for (auto& path : route.paths)
      if (!path.empty()) path.insert(path.begin(), path.front());
  expect_matches_oracle(r.grid, r.design, r.solution, "repeated vertices");
  EXPECT_TRUE(verify(r.grid, r.design, r.solution).clean());
}

TEST(DrcOracle, UnroutedRoutesWithPaths) {
  Routed r(sweep_design(5));
  int flipped = 0;
  for (auto& route : r.solution.routes) {
    if (route.paths.size() < 2 || flipped == 3) continue;
    route.routed = false;  // still claims its metal, skips connectivity
    route.paths.pop_back();
    ++flipped;
  }
  ASSERT_GT(flipped, 0);
  expect_matches_oracle(r.grid, r.design, r.solution, "unrouted with paths");
}

TEST(DrcOracle, EmptyRoutes) {
  Routed r(sweep_design(8));
  ASSERT_GE(r.solution.routes.size(), 3u);
  r.solution.routes[0].paths.clear();                 // no paths at all
  r.solution.routes[1].paths.assign(2, {});           // only empty paths
  r.solution.routes[1].routed = true;
  r.solution.routes.push_back({});                    // kNoNet, empty
  for (const auto& route : r.solution.routes) {
    if (route.vertices().empty()) continue;
    grid::NetRoute orphan;                            // kNoNet with metal
    orphan.paths.push_back({route.vertices().front()});
    r.solution.routes.push_back(orphan);
    break;
  }
  expect_matches_oracle(r.grid, r.design, r.solution, "empty routes");
}

TEST(DrcOracle, NetIdOutsideDesign) {
  Routed r(sweep_design(13));
  for (auto& route : r.solution.routes) {
    if (!route.routed || route.empty()) continue;
    route.net = r.design.num_nets() + 4;
    break;
  }
  expect_matches_oracle(r.grid, r.design, r.solution, "net id outside design");
  const DrcReport report = verify(r.grid, r.design, r.solution);
  const std::string named =
      "net id " + std::to_string(r.design.num_nets() + 4) + " not in design";
  bool found = false;
  for (const auto& v : report.violations)
    found = found || (v.kind == ViolationKind::kOpenNet && v.detail == named);
  EXPECT_TRUE(found) << report.summary();
}

}  // namespace
}  // namespace mrtpl::drc
