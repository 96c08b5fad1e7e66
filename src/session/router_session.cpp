#include "session/router_session.hpp"

#include <algorithm>
#include <optional>

#include "io/design_io.hpp"
#include "io/solution_io.hpp"

namespace mrtpl::session {

namespace {

/// EWMA smoothing of the apply latency; heavy on the past so one slow
/// apply doesn't flip degrade mode by itself.
constexpr double kLatencyAlpha = 0.2;

}  // namespace

const char* to_string(EditStatus status) {
  switch (status) {
    case EditStatus::kApplied: return "applied";
    case EditStatus::kDegraded: return "degraded";
    case EditStatus::kShed: return "shed";
    case EditStatus::kRejected: return "rejected";
    case EditStatus::kDeadline: return "deadline";
  }
  return "?";
}

RouterSession::RouterSession(const db::Design& design, SessionConfig config,
                             const global::GuideSet* guides)
    : design_(design),
      config_(config),
      clock_(config.clock ? config.clock : util::monotonic_seconds),
      guides_(guides != nullptr ? *guides : global::GuideSet{}),
      has_guides_(guides != nullptr) {
  grid_ = std::make_unique<grid::RoutingGrid>(design_);
  core::MrTplRouter router(design_, this->guides(), config_.router);
  core::RouteBudget budget;
  if (config_.initial_deadline_s > 0) budget.deadline_s = config_.initial_deadline_s;
  solution_ = router.run(*grid_, budget);
  initial_stats_ = router.stats();
  index_ = std::make_unique<core::ConflictIndex>(*grid_);
}

RouterSession::RouterSession(const db::Design& design, SessionConfig config,
                             const global::GuideSet* guides,
                             const std::string& solution_text, std::uint64_t seq)
    : design_(design),
      config_(config),
      clock_(config.clock ? config.clock : util::monotonic_seconds),
      guides_(guides != nullptr ? *guides : global::GuideSet{}),
      has_guides_(guides != nullptr) {
  grid_ = std::make_unique<grid::RoutingGrid>(design_);
  solution_ = io::solution_from_string(solution_text, *grid_);
  normalize_dispositions();
  seq_ = seq;
  index_ = std::make_unique<core::ConflictIndex>(*grid_);
}

bool RouterSession::degrade_mode() const {
  return config_.degrade_relax_cap > 0 && config_.latency_watermark_s > 0 &&
         have_latency_ && latency_ewma_ > config_.latency_watermark_s;
}

std::size_t RouterSession::enqueue(Edit edit) {
  pending_.push_back(std::move(edit));
  return pending_.size();
}

std::vector<EditResponse> RouterSession::drain() {
  std::vector<Edit> batch(pending_.begin(), pending_.end());
  pending_.clear();
  // Queue-depth watermark: the oldest max_queue_depth edits are admitted,
  // the newest excess is shed — backpressure, never corruption.
  const std::size_t keep =
      config_.max_queue_depth > 0
          ? std::min(batch.size(), static_cast<std::size_t>(config_.max_queue_depth))
          : batch.size();
  std::vector<EditResponse> out;
  out.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i >= keep) {
      EditResponse resp;
      resp.status = EditStatus::kShed;
      resp.note = "queue depth exceeded";
      out.push_back(std::move(resp));
      continue;
    }
    EditResponse resp =
        degrade_mode() ? apply_edit(batch[i], config_.degrade_relax_cap, 0.0)
                       : apply_edit(batch[i], 0, config_.deadline_s);
    if (resp.status != EditStatus::kRejected) {
      latency_ewma_ = have_latency_ ? (1.0 - kLatencyAlpha) * latency_ewma_ +
                                          kLatencyAlpha * resp.apply_s
                                    : resp.apply_s;
      have_latency_ = true;
    }
    out.push_back(std::move(resp));
  }
  return out;
}

EditResponse RouterSession::submit(const Edit& edit) {
  enqueue(edit);
  auto responses = drain();
  return std::move(responses.back());
}

EditResponse RouterSession::replay(const Edit& edit,
                                   std::uint64_t max_relaxations) {
  return apply_edit(edit, max_relaxations, 0.0);
}

EditResponse RouterSession::apply_edit(const Edit& edit,
                                       std::uint64_t max_relaxations,
                                       double deadline_s) {
  const double t0 = clock_();
  EditResponse resp;
  const std::string why = validate_edit(edit);
  if (!why.empty()) {
    resp.status = EditStatus::kRejected;
    resp.note = why;
    return resp;
  }

  // Rollback point, taken only when a wall deadline can trip: that is the
  // one outcome that rolls back, and every other apply commits, so they
  // skip this O(layout) copy. The canonical serializations ARE the
  // transaction snapshot, so rollback exercises the same restore path
  // recovery uses.
  std::optional<db::Design> saved_design;
  std::string saved_solution;
  if (deadline_s > 0) {
    saved_design = design_;
    saved_solution = solution_text();
  }

  std::vector<db::NetId> dirty;
  std::vector<Region> regions;
  apply_to_design(edit, &dirty, &regions);

  for (const db::NetId id : dirty) {
    if (id >= 0 && static_cast<std::size_t>(id) < solution_.routes.size())
      grid::release_route(*grid_, solution_.routes[static_cast<std::size_t>(id)]);
  }
  for (const Region& r : regions) grid_->rerasterize(r.layer, r.rect);

  // Every apply starts history-free: the committed edit becomes a pure
  // function of (design, committed layout, edit, relax cap) — the whole
  // replay-determinism contract rests on this line.
  grid_->clear_history();

  core::RouteBudget budget;
  if (deadline_s > 0)
    budget.deadline_s = deadline_s;
  else
    budget.max_relaxations = max_relaxations;

  core::MrTplRouter router(design_, guides(), config_.router);
  const grid::SolutionStatus status =
      router.reroute(*grid_, *index_, dirty, solution_, budget);

  if (status == grid::SolutionStatus::kDegraded && deadline_s > 0) {
    // A wall deadline is non-deterministic; a tripped one rolls the whole
    // transaction back so only replayable state ever commits.
    rebuild_from(std::move(*saved_design), saved_solution);
    resp.status = EditStatus::kDeadline;
    resp.note = "deadline tripped; edit rolled back";
    resp.apply_s = clock_() - t0;
    return resp;
  }

  ++seq_;
  resp.seq = seq_;
  resp.status = status == grid::SolutionStatus::kDegraded ? EditStatus::kDegraded
                                                          : EditStatus::kApplied;
  resp.dirty_nets = static_cast<int>(dirty.size());
  for (db::NetId id = 0; id < design_.num_nets(); ++id) {
    if (design_.net(id).degree() > 0 &&
        !solution_.routes[static_cast<std::size_t>(id)].routed)
      ++resp.failed;
  }
  resp.conflicts = static_cast<int>(index_->conflicts().size());
  resp.dispositions = io::dispositions_of(solution_, design_);
  resp.apply_s = clock_() - t0;
  if (hook_) hook_(CommittedEdit{seq_, edit, max_relaxations});
  return resp;
}

std::string RouterSession::validate_edit(const Edit& edit) const {
  const auto& tech = design_.tech();
  const auto layer_ok = [&](int layer) {
    return layer >= 0 && layer < tech.num_layers();
  };
  const auto shape_ok = [&](const geom::Rect& r) {
    return r.valid() && design_.die().contains(r);
  };
  const auto net_live = [&](db::NetId id) {
    return id >= 0 && id < design_.num_nets() && design_.net(id).degree() > 0;
  };
  // A new/moved pin may land on free space or on committed wire (which is
  // ripped and rerouted) but never on another net's pin metal — that
  // would silently re-own vertices the other net's routes stand on.
  const auto pin_placeable = [&](const db::Pin& pin, db::NetId self,
                                 std::string* problem) {
    int usable = 0;
    for (const auto& s : pin.shapes) {
      for (int y = s.lo.y; y <= s.hi.y; ++y) {
        for (int x = s.lo.x; x <= s.hi.x; ++x) {
          const grid::VertexId v = grid_->vertex(pin.layer, x, y);
          if (grid_->is_pin_vertex(v) && grid_->owner(v) != self) {
            *problem = "pin overlaps another net's pin metal";
            return false;
          }
          if (!grid_->blocked(v)) ++usable;
        }
      }
    }
    if (usable == 0) {
      *problem = "pin fully blocked by obstacles";
      return false;
    }
    return true;
  };

  switch (edit.kind) {
    case EditKind::kAddNet: {
      if (edit.pins.empty()) return "add_net needs at least one pin";
      for (const auto& pin : edit.pins) {
        if (!layer_ok(pin.layer)) return "pin layer out of range";
        if (pin.shapes.empty()) return "pin needs at least one shape";
        for (const auto& s : pin.shapes)
          if (!shape_ok(s)) return "pin shape outside die";
        std::string problem;
        if (!pin_placeable(pin, db::kNoNet, &problem)) return problem;
      }
      return "";
    }
    case EditKind::kRemoveNet:
      if (!net_live(edit.net)) return "no such live net";
      return "";
    case EditKind::kMovePin: {
      if (!net_live(edit.net)) return "no such live net";
      if (edit.pin_index < 0 ||
          edit.pin_index >= design_.net(edit.net).degree())
        return "pin index out of range";
      if (edit.pins.empty()) return "move_pin needs the new geometry";
      const db::Pin& pin = edit.pins.front();
      if (!layer_ok(pin.layer)) return "pin layer out of range";
      if (pin.shapes.empty()) return "pin needs at least one shape";
      for (const auto& s : pin.shapes)
        if (!shape_ok(s)) return "pin shape outside die";
      std::string problem;
      if (!pin_placeable(pin, edit.net, &problem)) return problem;
      return "";
    }
    case EditKind::kAddBlockage:
      if (!layer_ok(edit.layer)) return "layer out of range";
      if (!shape_ok(edit.rect)) return "blockage outside die";
      return "";
    case EditKind::kRemoveBlockage: {
      if (!layer_ok(edit.layer)) return "layer out of range";
      if (!edit.rect.valid()) return "degenerate blockage rect";
      for (const auto& obs : design_.obstacles())
        if (obs.layer == edit.layer && obs.shape == edit.rect) return "";
      return "no matching obstacle";
    }
  }
  return "unknown edit kind";
}

void RouterSession::apply_to_design(const Edit& edit,
                                    std::vector<db::NetId>* dirty,
                                    std::vector<Region>* regions) {
  switch (edit.kind) {
    case EditKind::kAddNet: {
      for (const auto& pin : edit.pins)
        for (const auto& s : pin.shapes) {
          regions->push_back({pin.layer, s});
          collect_owners({pin.layer, s}, dirty);
        }
      const db::NetId id = design_.add_net(edit.name);
      for (const auto& pin : edit.pins) design_.add_pin(id, pin);
      dirty->push_back(id);
      break;
    }
    case EditKind::kRemoveNet: {
      for (const auto& pin : design_.net(edit.net).pins)
        for (const auto& s : pin.shapes) regions->push_back({pin.layer, s});
      dirty->push_back(edit.net);  // released; reroute() skips dead nets
      design_.remove_net(edit.net);
      break;
    }
    case EditKind::kMovePin: {
      const db::Pin& old =
          design_.net(edit.net).pins[static_cast<std::size_t>(edit.pin_index)];
      db::Pin moved = edit.pins.front();
      moved.name = old.name;  // geometry-only edit; the name is stable
      for (const auto& s : old.shapes) regions->push_back({old.layer, s});
      for (const auto& s : moved.shapes) {
        regions->push_back({moved.layer, s});
        collect_owners({moved.layer, s}, dirty);
      }
      dirty->push_back(edit.net);
      design_.set_pin(edit.net, edit.pin_index, std::move(moved));
      break;
    }
    case EditKind::kAddBlockage: {
      const Region region{edit.layer, edit.rect};
      regions->push_back(region);
      collect_owners(region, dirty);
      collect_pinned(region, dirty);
      design_.add_obstacle({edit.layer, edit.rect});
      break;
    }
    case EditKind::kRemoveBlockage: {
      const Region region{edit.layer, edit.rect};
      regions->push_back(region);
      collect_pinned(region, dirty);
      design_.remove_obstacle(edit.layer, edit.rect);
      break;
    }
  }
  std::sort(dirty->begin(), dirty->end());
  dirty->erase(std::unique(dirty->begin(), dirty->end()), dirty->end());
}

void RouterSession::collect_owners(const Region& region,
                                   std::vector<db::NetId>* out) const {
  const geom::Rect die{{0, 0}, {grid_->size_x() - 1, grid_->size_y() - 1}};
  const geom::Rect r = region.rect.intersected(die);
  if (!r.valid()) return;
  for (int y = r.lo.y; y <= r.hi.y; ++y) {
    for (int x = r.lo.x; x <= r.hi.x; ++x) {
      const db::NetId id = grid_->owner(grid_->vertex(region.layer, x, y));
      if (id != db::kNoNet) out->push_back(id);
    }
  }
}

void RouterSession::collect_pinned(const Region& region,
                                   std::vector<db::NetId>* out) const {
  for (const auto& net : design_.nets()) {
    for (const auto& pin : net.pins) {
      if (pin.layer != region.layer) continue;
      for (const auto& s : pin.shapes) {
        if (s.overlaps(region.rect)) {
          out->push_back(net.id);
          break;
        }
      }
    }
  }
}

void RouterSession::rebuild_from(db::Design&& design,
                                 const std::string& solution_text) {
  index_.reset();
  grid_.reset();
  design_ = std::move(design);
  grid_ = std::make_unique<grid::RoutingGrid>(design_);
  solution_ = io::solution_from_string(solution_text, *grid_);
  normalize_dispositions();
  index_ = std::make_unique<core::ConflictIndex>(*grid_);
}

void RouterSession::normalize_dispositions() {
  solution_.routes.resize(static_cast<std::size_t>(design_.num_nets()));
  for (db::NetId id = 0; id < design_.num_nets(); ++id) {
    grid::NetRoute& r = solution_.routes[static_cast<std::size_t>(id)];
    r.net = id;
    if (design_.net(id).degree() == 0) {
      // Dead-net tombstone: trivially routed, nothing committed.
      r.routed = true;
      r.disposition = grid::NetDisposition::kRouted;
      r.paths.clear();
    } else {
      // Dispositions are not serialized; reconstruct the two states the
      // routed flag distinguishes.
      r.disposition = r.routed ? grid::NetDisposition::kRouted
                               : grid::NetDisposition::kFailed;
    }
  }
  solution_.status = grid::SolutionStatus::kComplete;
}

std::string RouterSession::design_text() const {
  return io::design_to_string(design_);
}

std::string RouterSession::solution_text() const {
  return io::solution_to_string(*grid_, solution_);
}

}  // namespace mrtpl::session
