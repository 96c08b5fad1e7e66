/// \file test_cli_smoke.cpp
/// End-to-end smoke of the mrtpl_cli front end, driven in-process through
/// the library entry point (mrtpl::cli::run) that the binary wraps:
/// generate a tiny case, route it, then re-evaluate / DRC-verify /
/// report on the saved artifacts — the full artifact round trip a user
/// would run from a shell.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cli.hpp"
#include "io/design_io.hpp"
#include "io/solution_io.hpp"
#include "support/checks.hpp"

namespace mrtpl {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "/cli_smoke_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << path;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

TEST(CliSmoke, UsageAndUnknownCommand) {
  EXPECT_EQ(cli::run({}), 2);
  EXPECT_EQ(cli::run({"frobnicate"}), 2);
  EXPECT_EQ(cli::run({"generate"}), 2);  // missing --case
  EXPECT_EQ(cli::run({"generate", "--case", "no_such_case"}), 2);
  EXPECT_EQ(cli::run({"list-cases"}), 0);
}

TEST(CliSmoke, GenerateRouteEvalVerifyRoundTrip) {
  const std::string design_path = tmp_path("tiny.design");
  const std::string solution_path = tmp_path("tiny.sol");
  const std::string svg_path = tmp_path("tiny.svg");

  ASSERT_EQ(cli::run({"generate", "--case", "tiny", "--out", design_path}), 0);

  // Route with the full Mr.TPL flow and dump every artifact. Exit code 0
  // already implies the flow ran; the assertions below re-open the files
  // and check the solution is genuinely routed and conflict-scored.
  ASSERT_EQ(cli::run({"route", "--design", design_path, "--solution",
                      solution_path, "--svg", svg_path}),
            0);

  const db::Design design = io::load_design(design_path);
  grid::RoutingGrid grid(design);
  const grid::Solution solution = io::load_solution(solution_path, grid);
  ASSERT_EQ(solution.routes.size(), static_cast<size_t>(design.num_nets()));
  EXPECT_EQ(solution.num_failed(), 0);
  test::expect_all_connected(grid, design, solution);
  test::expect_conflict_free(grid);

  // The offline re-evaluation agrees: exit 0 means zero conflicts.
  EXPECT_EQ(cli::run({"eval", "--design", design_path, "--solution",
                      solution_path}),
            0);
  // The independent DRC checker agrees.
  EXPECT_EQ(cli::run({"verify", "--design", design_path, "--solution",
                      solution_path}),
            0);

  const std::string svg = slurp(svg_path);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
}

TEST(CliSmoke, ThreadedRouteMatchesSerialAndRejectsBadCount) {
  const std::string design_path = tmp_path("threads.design");
  const std::string serial_path = tmp_path("threads_serial.sol");
  const std::string parallel_path = tmp_path("threads_parallel.sol");

  ASSERT_EQ(cli::run({"generate", "--case", "tiny", "--out", design_path}), 0);
  ASSERT_EQ(cli::run({"route", "--design", design_path, "--solution",
                      serial_path, "--threads", "1", "--rescan-conflicts"}),
            0);
  ASSERT_EQ(cli::run({"route", "--design", design_path, "--solution",
                      parallel_path, "--threads", "4", "--tiles", "4"}),
            0);
  EXPECT_EQ(slurp(serial_path), slurp(parallel_path));

  EXPECT_EQ(cli::run({"route", "--design", design_path, "--threads", "0"}), 2);
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--threads", "x"}), 2);
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--threads",
                      "99999999999"}),
            2);
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--rrr", "nope"}), 2);
}

TEST(CliSmoke, RefineAndReportRunOnSavedSolution) {
  const std::string design_path = tmp_path("refine.design");
  const std::string solution_path = tmp_path("refine.sol");
  const std::string refined_path = tmp_path("refine.out.sol");

  ASSERT_EQ(cli::run({"generate", "--case", "tiny", "--out", design_path}), 0);
  ASSERT_EQ(cli::run({"route", "--design", design_path, "--solution",
                      solution_path}),
            0);
  EXPECT_EQ(cli::run({"refine", "--design", design_path, "--solution",
                      solution_path, "--out", refined_path}),
            0);
  EXPECT_FALSE(slurp(refined_path).empty());

  testing::internal::CaptureStdout();
  EXPECT_EQ(cli::run({"report", "--design", design_path, "--solution",
                      solution_path, "--flow", "smoke"}),
            0);
  const std::string json = testing::internal::GetCapturedStdout();
  EXPECT_NE(json.find("\"flow\":\"smoke\""), std::string::npos);
  EXPECT_NE(json.find("\"conflicts\":"), std::string::npos);
}

TEST(CliSmoke, SuiteRunsQuickScenarioWithJsonArtifact) {
  const std::string json_path = tmp_path("suite.json");
  // One cheap scenario through the full suite path, JSON artifact
  // included. The whole quick registry runs in CI; here one scenario
  // keeps the smoke fast (and gives the ASan matrix a scenario to chew).
  EXPECT_EQ(cli::run({"suite", "--quick", "--filter", "degenerate_empty",
                      "--json", json_path}),
            0);
  const std::string json = slurp(json_path);
  EXPECT_NE(json.find("\"scenario\":\"degenerate_empty\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"pass\""), std::string::npos);

  EXPECT_EQ(cli::run({"suite", "--list"}), 0);
  EXPECT_EQ(cli::run({"suite", "--filter", "no_such_scenario"}), 2);
  EXPECT_EQ(cli::run({"suite", "--threads", "0"}), 2);
  EXPECT_EQ(cli::run({"suite", "--timeout", "x"}), 2);
}

TEST(CliSmoke, GenerateAcceptsScenarioNames) {
  const std::string design_path = tmp_path("scenario.design");
  ASSERT_EQ(cli::run({"generate", "--case", "degenerate_thin_tracks_quick",
                      "--out", design_path}),
            0);
  const db::Design design = io::load_design(design_path);
  EXPECT_EQ(design.name(), "degenerate_thin_tracks_quick");
}

TEST(CliSmoke, ExitCodesDistinguishFailureClasses) {
  const std::string design_path = tmp_path("exit.design");
  const std::string bad_path = tmp_path("exit_bad.design");
  ASSERT_EQ(cli::run({"generate", "--case", "tiny", "--out", design_path}), 0);

  // Exit 3: malformed input surfaces as io::ParseError, not a generic
  // failure — and not a crash.
  {
    std::ofstream os(bad_path);
    os << "mrtpl-design 1\nname truncated\ndie 0 0 31\n";
  }
  EXPECT_EQ(cli::run({"route", "--design", bad_path}), 3);
  EXPECT_EQ(cli::run({"eval", "--design", bad_path, "--solution", bad_path}), 3);
  EXPECT_EQ(cli::run({"route", "--design", tmp_path("nonexistent.design")}), 3);

  // Exit 4: the budget expired and the result is degraded but usable.
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--max-relax", "1"}), 4);
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--deadline",
                      "0.000001"}),
            4);

  // A generous budget routes to completion: exit 0, not 4.
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--deadline", "300"}), 0);

  // Exit 2: budget flags malformed, or used with a router that cannot
  // honor them.
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--deadline", "0"}), 2);
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--deadline", "x"}), 2);
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--max-relax", "0"}), 2);
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--router", "dac12",
                      "--deadline", "1"}),
            2);
}

TEST(CliSmoke, SessionAppliesScriptAndRecoversFromStore) {
  const std::string design_path = tmp_path("session.design");
  const std::string script_path = tmp_path("session.edits");
  const std::string store_dir = tmp_path("session_store");
  const std::string live_path = tmp_path("session_live.sol");
  const std::string recovered_path = tmp_path("session_recovered.sol");
  ASSERT_EQ(cli::run({"generate", "--case", "tiny", "--out", design_path}), 0);
  {
    std::ofstream os(script_path);
    os << "mrtpl-edits 1\n"
          "# one edit of every flavor that exercises the reroute delta\n"
          "add_net eco_a 2 pin a0 0 1 2 2 2 2 pin a1 0 1 10 10 10 10\n"
          "add_blockage 0 5 5 6 6\n"
          "remove_blockage 0 5 5 6 6\n"
          "remove_net 0\n"
          "end\n";
  }

  ASSERT_EQ(cli::run({"session", "--design", design_path, "--no-guides",
                      "--store", store_dir, "--script", script_path, "--audit",
                      "--out", live_path}),
            0);

  // Recovery replays the journal onto the snapshot: byte-identical
  // solution, coherent audit, exit 0.
  ASSERT_EQ(cli::run({"session", "--recover", "--store", store_dir, "--audit",
                      "--out", recovered_path}),
            0);
  EXPECT_EQ(slurp(live_path), slurp(recovered_path));

  // Usage errors: exit 2, before any state is touched.
  EXPECT_EQ(cli::run({"session", "--recover"}), 2);  // needs --store
  EXPECT_EQ(cli::run({"session", "--store", store_dir}), 2);  // needs --design
  EXPECT_EQ(cli::run({"session", "--design", design_path, "--deadline", "0"}), 2);
  EXPECT_EQ(cli::run({"session", "--design", design_path, "--max-queue", "x"}), 2);

  // A rejected edit in the script is exit 1 (and outranks shed/degraded).
  const std::string bad_script = tmp_path("session_bad.edits");
  {
    std::ofstream os(bad_script);
    os << "mrtpl-edits 1\nremove_net 9999\nend\n";
  }
  EXPECT_EQ(cli::run({"session", "--design", design_path, "--no-guides",
                      "--script", bad_script}),
            1);

  // A malformed script is a parse error: exit 3.
  const std::string ugly_script = tmp_path("session_ugly.edits");
  {
    std::ofstream os(ugly_script);
    os << "mrtpl-edits 1\nfrobnicate 1\nend\n";
  }
  EXPECT_EQ(cli::run({"session", "--design", design_path, "--no-guides",
                      "--script", ugly_script}),
            3);

  // Recovering a directory that never held a session: exit 3, no crash.
  EXPECT_EQ(cli::run({"session", "--recover", "--store",
                      tmp_path("no_such_store")}),
            3);
}

TEST(CliSmoke, BaselineRoutersRunToCompletion) {
  const std::string design_path = tmp_path("baseline.design");
  ASSERT_EQ(cli::run({"generate", "--case", "tiny", "--out", design_path}), 0);
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--router", "dac12"}), 0);
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--router", "decompose",
                      "--no-guides"}),
            0);
  EXPECT_EQ(cli::run({"route", "--design", design_path, "--router", "bogus"}), 2);
}

}  // namespace
}  // namespace mrtpl
