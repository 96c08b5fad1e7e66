/// \file test_session.cpp
/// Resident routing sessions (session/router_session.hpp + edit.hpp):
/// edit grammar round-trips, transactional apply/reject/rollback
/// semantics, admission control (shed + latency-degrade), dead-net
/// tombstones, and the replay-determinism property the journal recovery
/// contract rests on.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "core/conflict.hpp"
#include "io/parse_error.hpp"
#include "session/edit.hpp"
#include "session/invariant_audit.hpp"
#include "session/router_session.hpp"
#include "support/builders.hpp"
#include "util/monotonic.hpp"

namespace mrtpl::session {
namespace {

SessionConfig quiet_config() {
  SessionConfig config;
  config.router.rrr_threads = 1;
  return config;
}

/// Two-pin net spanning (x0,y) .. (x1,y) on `layer`.
Edit add_net_edit(const std::string& name, int layer, int y, int x0, int x1) {
  Edit edit;
  edit.kind = EditKind::kAddNet;
  edit.name = name;
  db::Pin pin;
  pin.name = "p0";
  pin.layer = layer;
  pin.shapes = {{x0, y, x0, y}};
  edit.pins.push_back(pin);
  pin.name = "p1";
  pin.shapes = {{x1, y, x1, y}};
  edit.pins.push_back(pin);
  return edit;
}

// ---- edit grammar -------------------------------------------------------

TEST(EditGrammar, FormatParseRoundTrip) {
  std::vector<Edit> edits;
  edits.push_back(add_net_edit("eco_net", 1, 3, 2, 12));
  {
    Edit e;
    e.kind = EditKind::kRemoveNet;
    e.net = 7;
    edits.push_back(e);
  }
  {
    Edit e;
    e.kind = EditKind::kMovePin;
    e.net = 2;
    e.pin_index = 1;
    db::Pin pin;
    pin.layer = 0;
    pin.shapes = {{4, 4, 5, 4}, {4, 4, 4, 6}};
    e.pins.push_back(pin);
    edits.push_back(e);
  }
  {
    Edit e;
    e.kind = EditKind::kAddBlockage;
    e.layer = 1;
    e.rect = {3, 3, 6, 9};
    edits.push_back(e);
    e.kind = EditKind::kRemoveBlockage;
    edits.push_back(e);
  }

  const std::string script = edits_to_string(edits);
  const std::vector<Edit> back = edits_from_string(script);
  ASSERT_EQ(back.size(), edits.size());
  for (size_t i = 0; i < edits.size(); ++i)
    EXPECT_EQ(format_edit(back[i]), format_edit(edits[i])) << "edit " << i;
}

TEST(EditGrammar, EmptyAndSpacedNamesSurviveTheLineFormat) {
  Edit e = add_net_edit("", 0, 3, 2, 12);
  e.pins[0].name = "weird pin";
  const Edit back = parse_edit(format_edit(e), "test", 1);
  EXPECT_EQ(back.name, "");
  EXPECT_EQ(back.pins[0].name, "weird_pin");  // whitespace folded, not lost
}

TEST(EditGrammar, MalformedLinesThrowParseError) {
  const char* bad[] = {
      "",
      "frobnicate 1 2 3",
      "add_net",                      // missing name/pins
      "add_net n 1 pin p 0 1 1 1 1",  // rect needs 4 coords
      "remove_net",
      "remove_net xyz",
      "move_pin 0 0 0 0",             // zero shapes
      "add_blockage 0 1 2 3",         // rect short one coord
      "add_blockage 0 1 2 3 4 5",     // trailing garbage
  };
  for (const char* line : bad)
    EXPECT_THROW((void)parse_edit(line, "test", 1), io::ParseError) << line;
}

TEST(EditGrammar, ScriptEnvelopeIsEnforced) {
  EXPECT_THROW((void)edits_from_string("remove_net 0\n"), io::ParseError);
  EXPECT_THROW((void)edits_from_string("mrtpl-edits 1\nremove_net 0\n"),
               io::ParseError);  // missing end
  const std::vector<Edit> edits = edits_from_string(
      "mrtpl-edits 1\n# comment\n\nremove_net 0\nend\n");
  ASSERT_EQ(edits.size(), 1u);
  EXPECT_EQ(edits[0].kind, EditKind::kRemoveNet);
}

// ---- transactional applies ---------------------------------------------

TEST(RouterSession, AddNetRoutesTheNewNet) {
  RouterSession session(test::parallel_nets_design(2), quiet_config());
  ASSERT_EQ(session.solution().num_routed(), 2);

  const EditResponse resp = session.submit(add_net_edit("eco", 0, 3, 2, 13));
  EXPECT_EQ(resp.status, EditStatus::kApplied);
  EXPECT_EQ(resp.seq, 1u);
  EXPECT_EQ(session.seq(), 1u);
  EXPECT_GE(resp.dirty_nets, 1);
  EXPECT_EQ(resp.failed, 0);
  EXPECT_EQ(session.design().num_nets(), 3);
  EXPECT_TRUE(session.solution().routes[2].routed);
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, RemoveNetLeavesDeadTombstone) {
  RouterSession session(test::parallel_nets_design(2), quiet_config());
  Edit e;
  e.kind = EditKind::kRemoveNet;
  e.net = 0;
  const EditResponse resp = session.submit(e);
  EXPECT_EQ(resp.status, EditStatus::kApplied);
  EXPECT_EQ(session.design().net(0).degree(), 0);
  EXPECT_EQ(session.design().num_nets(), 2);  // id stays allocated
  EXPECT_TRUE(session.solution().routes[0].empty());
  EXPECT_TRUE(session.solution().routes[0].routed);
  EXPECT_TRUE(audit_session(session).ok);

  // A second remove of the now-dead net is invalid, not idempotent.
  EXPECT_EQ(session.submit(e).status, EditStatus::kRejected);
}

TEST(RouterSession, MovePinReroutesTheNet) {
  RouterSession session(test::parallel_nets_design(2), quiet_config());
  Edit e;
  e.kind = EditKind::kMovePin;
  e.net = 0;
  e.pin_index = 1;
  db::Pin pin;
  pin.layer = 0;
  pin.shapes = {{13, 3, 13, 3}};  // pull the endpoint four tracks north
  e.pins.push_back(pin);
  const EditResponse resp = session.submit(e);
  EXPECT_EQ(resp.status, EditStatus::kApplied);
  EXPECT_EQ(resp.failed, 0);
  EXPECT_TRUE(session.solution().routes[0].routed);
  // The pin kept its original name (replay byte-identity contract).
  EXPECT_EQ(session.design().net(0).pins[1].name,
            test::parallel_nets_design(2).net(0).pins[1].name);
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, RejectedEditsLeaveStateUntouched) {
  RouterSession session(test::parallel_nets_design(2), quiet_config());
  const std::string design_before = session.design_text();
  const std::string solution_before = session.solution_text();

  std::vector<Edit> bad;
  bad.push_back(add_net_edit("oob", 0, 3, 2, 99));  // pin outside the die
  bad.push_back(add_net_edit("overlap", 0, 7, 2, 5));  // on net 0's pin metal
  {
    Edit e;
    e.kind = EditKind::kRemoveNet;
    e.net = 77;
    bad.push_back(e);
  }
  {
    Edit e;
    e.kind = EditKind::kMovePin;
    e.net = 0;
    e.pin_index = 9;
    db::Pin pin;
    pin.layer = 0;
    pin.shapes = {{4, 4, 4, 4}};
    e.pins.push_back(pin);
    bad.push_back(e);
  }
  {
    Edit e;
    e.kind = EditKind::kAddBlockage;
    e.layer = 77;
    e.rect = {1, 1, 2, 2};
    bad.push_back(e);
  }
  {
    Edit e;
    e.kind = EditKind::kRemoveBlockage;
    e.layer = 0;
    e.rect = {1, 1, 2, 2};  // no such obstacle
    bad.push_back(e);
  }

  for (const Edit& e : bad) {
    const EditResponse resp = session.submit(e);
    EXPECT_EQ(resp.status, EditStatus::kRejected) << format_edit(e);
    EXPECT_FALSE(resp.note.empty()) << format_edit(e);
    EXPECT_EQ(resp.seq, 0u);
  }
  EXPECT_EQ(session.seq(), 0u);
  EXPECT_EQ(session.design_text(), design_before);
  EXPECT_EQ(session.solution_text(), solution_before);
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, BlockageRoundTripRestoresTheDesign) {
  RouterSession session(test::parallel_nets_design(2), quiet_config());
  const std::string design_before = session.design_text();

  Edit e;
  e.kind = EditKind::kAddBlockage;
  e.layer = 0;
  e.rect = {7, 7, 8, 8};  // across net 1's committed corridor
  const EditResponse dropped = session.submit(e);
  EXPECT_EQ(dropped.status, EditStatus::kApplied);
  EXPECT_GE(dropped.dirty_nets, 1);
  EXPECT_TRUE(audit_session(session).ok);

  e.kind = EditKind::kRemoveBlockage;
  const EditResponse lifted = session.submit(e);
  EXPECT_EQ(lifted.status, EditStatus::kApplied);
  EXPECT_EQ(session.design_text(), design_before);
  EXPECT_EQ(lifted.failed, 0);
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, DeadlineTripRollsTheEditBack) {
  SessionConfig config = quiet_config();
  config.deadline_s = 1e-9;  // in the past by the first budget check
  RouterSession session(test::parallel_nets_design(2), config);
  const std::string design_before = session.design_text();
  const std::string solution_before = session.solution_text();

  const EditResponse resp = session.submit(add_net_edit("late", 0, 3, 2, 13));
  ASSERT_EQ(resp.status, EditStatus::kDeadline);
  EXPECT_EQ(resp.seq, 0u);
  EXPECT_EQ(session.seq(), 0u);
  EXPECT_EQ(session.design_text(), design_before);
  EXPECT_EQ(session.solution_text(), solution_before);
  EXPECT_TRUE(audit_session(session).ok);

  // The same edit under no deadline commits fine on the restored state.
  SessionConfig relaxed = quiet_config();
  RouterSession fresh(test::parallel_nets_design(2), relaxed);
  EXPECT_EQ(fresh.submit(add_net_edit("late", 0, 3, 2, 13)).status,
            EditStatus::kApplied);
}

TEST(RouterSession, CleanApplyWorkIsLocal) {
  // A conflict-free apply costs O(edit): the resident conflict index
  // re-derives only the vertices the edited nets touched, never the whole
  // layout (no keep-best restore recommits every route).
  benchgen::CaseSpec spec;
  spec.name = "sparse";
  spec.width = spec.height = 48;
  spec.num_nets = 40;
  spec.max_pins = 3;
  spec.seed = 5;
  RouterSession session(benchgen::generate(spec), quiet_config());
  ASSERT_TRUE(core::detect_conflicts(session.grid()).empty());
  core::ConflictIndex& index = session.conflict_index();
  std::size_t layout = 0;
  for (const auto& r : session.solution().routes) layout += r.vertices().size();

  const db::NetId net = 0;
  std::size_t touched = session.solution().routes[0].vertices().size();
  const std::uint64_t before = index.vertices_processed();
  Edit rm;
  rm.kind = EditKind::kRemoveNet;
  rm.net = net;
  Edit add;
  add.kind = EditKind::kAddNet;
  add.name = "readded";
  add.pins = session.design().net(net).pins;
  const EditResponse removed = session.submit(rm);
  ASSERT_EQ(removed.status, EditStatus::kApplied);
  EXPECT_EQ(removed.conflicts, 0);
  const EditResponse added = session.submit(add);
  ASSERT_EQ(added.status, EditStatus::kApplied);
  EXPECT_EQ(added.conflicts, 0);
  touched += session.solution().routes.back().vertices().size();

  ASSERT_GT(layout, 8 * touched) << "the layout must dwarf the edit";
  EXPECT_LE(index.vertices_processed() - before, 2 * touched)
      << "layout " << layout << " vertices, edit " << touched;
}

// ---- admission control --------------------------------------------------

TEST(RouterSession, QueueOverflowShedsNewestEdits) {
  SessionConfig config = quiet_config();
  config.max_queue_depth = 2;
  RouterSession session(test::parallel_nets_design(2), config);
  session.enqueue(add_net_edit("a", 0, 3, 2, 13));
  session.enqueue(add_net_edit("b", 0, 5, 2, 13));
  session.enqueue(add_net_edit("c", 0, 11, 2, 13));
  session.enqueue(add_net_edit("d", 0, 13, 2, 13));
  const std::vector<EditResponse> resp = session.drain();
  ASSERT_EQ(resp.size(), 4u);
  EXPECT_EQ(resp[0].status, EditStatus::kApplied);
  EXPECT_EQ(resp[1].status, EditStatus::kApplied);
  EXPECT_EQ(resp[2].status, EditStatus::kShed);
  EXPECT_EQ(resp[3].status, EditStatus::kShed);
  EXPECT_NE(resp[2].note.find("queue depth"), std::string::npos);
  // Shed edits left no trace: only the two applied nets exist.
  EXPECT_EQ(session.design().num_nets(), 4);
  EXPECT_EQ(session.seq(), 2u);
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, LatencyWatermarkSwitchesToDegradedApplies) {
  SessionConfig config = quiet_config();
  config.latency_watermark_s = 1e-12;  // any real apply exceeds this
  config.degrade_relax_cap = 1000;
  RouterSession session(test::parallel_nets_design(2), config);
  EXPECT_FALSE(session.degrade_mode());  // no latency sample yet

  const EditResponse first = session.submit(add_net_edit("a", 0, 3, 2, 13));
  EXPECT_EQ(first.status, EditStatus::kApplied);
  EXPECT_GT(session.latency_ewma(), 0.0);
  EXPECT_TRUE(session.degrade_mode());

  // Degrade mode caps relaxations but a small edit stays within the cap,
  // committing as a normal apply — graceful, not lossy.
  const EditResponse second = session.submit(add_net_edit("b", 0, 5, 2, 13));
  EXPECT_TRUE(second.status == EditStatus::kApplied ||
              second.status == EditStatus::kDegraded);
  EXPECT_EQ(session.seq(), 2u);
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, InjectedClockDrivesTheWatermarkDeterministically) {
  // The EWMA must read the injected monotonic source, not wall time: with
  // a hand-cranked clock the exact trip point is predictable. Each apply
  // reads the clock twice (start/end), so +0.5 per read = 0.5 s per edit.
  SessionConfig config = quiet_config();
  config.latency_watermark_s = 0.4;
  config.degrade_relax_cap = 1000;
  double fake_now = 0.0;
  config.clock = [&fake_now] { return fake_now += 0.5; };
  RouterSession session(test::parallel_nets_design(2), config);
  EXPECT_FALSE(session.degrade_mode());

  const EditResponse first = session.submit(add_net_edit("a", 0, 3, 2, 13));
  EXPECT_EQ(first.status, EditStatus::kApplied);
  // First sample seeds the EWMA directly: exactly 0.5, over the 0.4 mark.
  EXPECT_DOUBLE_EQ(first.apply_s, 0.5);
  EXPECT_DOUBLE_EQ(session.latency_ewma(), 0.5);
  EXPECT_TRUE(session.degrade_mode());
}

TEST(RouterSession, ManualClockDecaysTheEwmaBackBelowTheWatermark) {
  util::ManualClock clock;
  SessionConfig config = quiet_config();
  config.latency_watermark_s = 0.4;
  config.degrade_relax_cap = 1000;
  int reads = 0;
  // First edit: 1.0 s apply (clock jumps on the end-read); later edits:
  // the clock stands still, i.e. instantaneous applies.
  config.clock = [&clock, &reads] {
    ++reads;
    if (reads == 2) clock.advance(1.0);
    return clock.now();
  };
  RouterSession session(test::parallel_nets_design(2), config);

  (void)session.submit(add_net_edit("a", 0, 3, 2, 13));
  EXPECT_DOUBLE_EQ(session.latency_ewma(), 1.0);
  EXPECT_TRUE(session.degrade_mode());

  // EWMA with alpha 0.2 and 0-latency samples: 1.0, 0.8, 0.64, ...
  (void)session.submit(add_net_edit("b", 0, 5, 2, 13));
  EXPECT_DOUBLE_EQ(session.latency_ewma(), 0.8);
  EXPECT_TRUE(session.degrade_mode());
  (void)session.submit(add_net_edit("c", 0, 9, 2, 13));
  EXPECT_DOUBLE_EQ(session.latency_ewma(), 0.64);
  (void)session.submit(add_net_edit("d", 0, 11, 2, 13));
  EXPECT_DOUBLE_EQ(session.latency_ewma(), 0.512);
  (void)session.submit(add_net_edit("e", 0, 13, 2, 13));
  // 0.4096: back under the 0.4-ish region next step -> 0.32768.
  (void)session.submit(add_net_edit("f", 0, 1, 2, 13));
  EXPECT_DOUBLE_EQ(session.latency_ewma(), 0.32768);
  EXPECT_FALSE(session.degrade_mode());
  EXPECT_TRUE(audit_session(session).ok);
}

// ---- replay determinism -------------------------------------------------

TEST(RouterSession, CommittedSequenceReplaysByteIdentically) {
  const db::Design base = test::parallel_nets_design(2);
  SessionConfig config = quiet_config();

  struct Recorded {
    Edit edit;
    std::uint64_t cap = 0;
  };
  std::vector<Recorded> committed;
  RouterSession live(base, config);
  live.set_commit_hook([&committed](const CommittedEdit& c) {
    committed.push_back({c.edit, c.max_relaxations});
  });

  live.submit(add_net_edit("eco_a", 0, 3, 2, 13));
  Edit blockage;
  blockage.kind = EditKind::kAddBlockage;
  blockage.layer = 0;
  blockage.rect = {7, 7, 8, 8};
  live.submit(blockage);
  Edit rm;
  rm.kind = EditKind::kRemoveNet;
  rm.net = 1;
  live.submit(rm);
  blockage.kind = EditKind::kRemoveBlockage;
  live.submit(blockage);
  ASSERT_EQ(committed.size(), 4u);

  // Replay the committed sequence (through the journal's line format, as
  // recovery would) onto a fresh session of the same base design.
  RouterSession replayed(base, config);
  for (const Recorded& r : committed) {
    const Edit edit = parse_edit(format_edit(r.edit), "replay", 1);
    const EditResponse resp = replayed.replay(edit, r.cap);
    EXPECT_NE(resp.status, EditStatus::kRejected) << format_edit(edit);
  }
  EXPECT_EQ(replayed.seq(), live.seq());
  EXPECT_EQ(replayed.design_text(), live.design_text());
  EXPECT_EQ(replayed.solution_text(), live.solution_text());
  EXPECT_TRUE(audit_session(replayed).ok);
}

}  // namespace
}  // namespace mrtpl::session
