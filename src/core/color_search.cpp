#include "core/color_search.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace mrtpl::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;
}  // namespace

ColorSearch::ColorSearch(const grid::RoutingGrid& grid, RouterConfig config)
    : ColorSearch(grid, config, static_cast<SearchArena*>(nullptr)) {}

ColorSearch::ColorSearch(const grid::RoutingGrid& grid, RouterConfig config,
                         SearchArena& arena)
    : ColorSearch(grid, config, &arena) {}

ColorSearch::ColorSearch(const grid::RoutingGrid& grid, RouterConfig config,
                         SearchArena* arena)
    : grid_(grid), config_(config), arena_(arena) {
  if (arena_ == nullptr) {
    owned_arena_ = std::make_unique<SearchArena>();
    arena_ = owned_arena_.get();
  }
  const auto& rules = grid.tech().rules();
  beta_ = config_.beta_override >= 0 ? config_.beta_override : rules.beta;
  gamma_ = config_.gamma_override >= 0 ? config_.gamma_override : rules.gamma;
  // Cheapest possible per-step cost: a preferred-direction wire move with
  // zero color cost. Multiplying it by the Manhattan distance to the
  // nearest target never overestimates, so A* stays admissible.
  min_step_cost_ = rules.alpha * rules.wire_cost;
  universe_ = ColorState::universe(rules.num_masks);
  alpha_ = rules.alpha;
  oog_cost_ = rules.out_of_guide_cost;

  const int nl = grid.num_layers();
  trad_base_.resize(static_cast<std::size_t>(nl) * grid::kNumDirs);
  tpl_layer_.resize(static_cast<std::size_t>(nl));
  for (int l = 0; l < nl; ++l) {
    tpl_layer_[static_cast<std::size_t>(l)] = grid.tech().is_tpl_layer(l) ? 1 : 0;
    for (int d = 0; d < grid::kNumDirs; ++d) {
      const auto dir = static_cast<grid::Dir>(d);
      double base;
      if (grid::is_via(dir)) {
        base = rules.via_cost;
      } else {
        base = rules.wire_cost;
        if (!grid.is_preferred(l, dir)) base += rules.wrong_way_cost;
      }
      trad_base_[static_cast<std::size_t>(l) * grid::kNumDirs + d] = base;
    }
  }

  // Bucket quantum: no larger than the cheapest edge (so a Dijkstra pass
  // never relaxes into its own bucket — popped labels are final) and no
  // larger than 0.5, which divides every default and test rule weight
  // exactly. Degenerate rule sets (min edge <= 0) fall back to 0.5; the
  // search then degrades to label-correcting but stays optimal, and both
  // queue engines still agree key-for-key.
  const double min_edge = rules.alpha * std::min(rules.wire_cost, rules.via_cost);
  double quantum = min_edge > 0.0 ? std::min(0.5, min_edge) : 0.5;
  inv_quantum_ = 1.0 / quantum;
}

void ColorSearch::begin_net(db::NetId net, const global::NetGuide* guide,
                            geom::Rect window) {
  net_ = net;
  guide_ = guide;
  // Clamping to the grid's bounds (the die, or a view's window) keeps
  // semantics — every expanded vertex exists in the grid — and lets the
  // expansion loop use the window bounds as the only planar check.
  slots_ = SlotMap(window.intersected(grid_.bounds()), grid_.num_layers());
  // The arena holds window × layers labels. Every vertex the session
  // labels lies in the window — expansion is clamped to it, and sources
  // and targets outside it are rejected — so the slot mapping is exact.
  arena_->ensure(slots_.size());
  arena_->begin_session();
  relaxations_ = 0;
  next_budget_check_ = kBudgetCheckInterval;
  interrupted_ = false;

  // Rasterize guide coverage over the window once (one bit per layer-0
  // slot): relaxations test one bit instead of walking the guide's box
  // list per step.
  const geom::Rect& win = slots_.window();
  guide_active_ = guide_ != nullptr && !guide_->boxes.empty() && win.valid();
  if (guide_active_) {
    const std::size_t nbits = static_cast<std::size_t>(win.area());
    arena_->guide_bits.assign((nbits + 63) / 64, 0);
    for (const geom::Rect& box : guide_->boxes) {
      const geom::Rect c = box.intersected(win);
      if (!c.valid()) continue;
      for (int y = c.lo.y; y <= c.hi.y; ++y) {
        for (int x = c.lo.x; x <= c.hi.x; ++x) {
          const std::uint32_t bit = slots_.slot({0, x, y});
          arena_->guide_bits[bit / 64] |= 1ull << (bit % 64);
        }
      }
    }
  }
}

bool ColorSearch::guide_covered(int x, int y) const {
  // The bitmap is indexed by the layer-0 slot of (x, y).
  const std::uint32_t bit = slots_.slot({0, x, y});
  return (arena_->guide_bits[bit / 64] >> (bit % 64)) & 1u;
}

std::uint32_t ColorSearch::slot_of(grid::VertexId v) const {
  if (v >= grid_.num_vertices()) return kNoSlot;
  const grid::VertexLoc l = grid_.loc(v);
  return slots_.contains(l) ? slots_.slot(l) : kNoSlot;
}

std::uint32_t ColorSearch::live_slot(grid::VertexId v) const {
  const std::uint32_t s = slot_of(v);
  return s != kNoSlot && arena_->stamp[s] == arena_->epoch ? s : kNoSlot;
}

std::uint32_t ColorSearch::checked_slot(grid::VertexId v, const char* caller) const {
  const std::uint32_t s = slot_of(v);
  if (s == kNoSlot)
    throw std::out_of_range(std::string("ColorSearch::") + caller + ": vertex " +
                            std::to_string(v) + " outside the search window");
  return s;
}

double ColorSearch::cost(grid::VertexId v) const {
  const std::uint32_t s = live_slot(v);
  return s != kNoSlot ? arena_->cost[s] : kInf;
}

grid::VertexId ColorSearch::prev(grid::VertexId v) const {
  const std::uint32_t s = live_slot(v);
  return s != kNoSlot ? arena_->prev[s] : grid::kInvalidVertex;
}

ColorState ColorSearch::state(grid::VertexId v) const {
  const std::uint32_t s = live_slot(v);
  return ColorState(s != kNoSlot ? arena_->state[s] : std::uint8_t{0});
}

void ColorSearch::touch_tpl(int x, int y) {
  SearchArena& a = *arena_;
  if (!a.any_tpl_touched) {
    a.any_tpl_touched = true;
    a.tpl_touched_bbox = {x, y, x, y};
  } else {
    a.tpl_touched_bbox.lo.x = std::min(a.tpl_touched_bbox.lo.x, x);
    a.tpl_touched_bbox.lo.y = std::min(a.tpl_touched_bbox.lo.y, y);
    a.tpl_touched_bbox.hi.x = std::max(a.tpl_touched_bbox.hi.x, x);
    a.tpl_touched_bbox.hi.y = std::max(a.tpl_touched_bbox.hi.y, y);
  }
}

void ColorSearch::touch(std::uint32_t slot, int x, int y) {
  SearchArena& a = *arena_;
  if (a.stamp[slot] != a.epoch) {
    a.stamp[slot] = a.epoch;
    a.cost[slot] = kInf;
    a.prev[slot] = grid::kInvalidVertex;
    a.state[slot] = 0;
    a.closed[slot] = 0;
  }
  if (!a.any_touched) {
    a.any_touched = true;
    a.touched_bbox = {x, y, x, y};
  } else {
    a.touched_bbox.lo.x = std::min(a.touched_bbox.lo.x, x);
    a.touched_bbox.lo.y = std::min(a.touched_bbox.lo.y, y);
    a.touched_bbox.hi.x = std::max(a.touched_bbox.hi.x, x);
    a.touched_bbox.hi.y = std::max(a.touched_bbox.hi.y, y);
  }
}

void ColorSearch::add_source(grid::VertexId v, ColorState state) {
  const std::uint32_t s = checked_slot(v, "add_source");
  const grid::VertexLoc l = grid_.loc(v);
  touch(s, l.x, l.y);
  // Sources / re-seeded tree vertices on TPL layers join the TPL read
  // footprint: choose_colors scans their Dcolor neighborhoods later.
  if (tpl_layer_[static_cast<std::size_t>(l.layer)]) touch_tpl(l.x, l.y);
  SearchArena& a = *arena_;
  a.cost[s] = 0.0;
  a.prev[s] = grid::kInvalidVertex;
  a.state[s] = state.bits();
  a.closed[s] = 0;
  push(s, l.x, l.y, 0.0);
}

void ColorSearch::make_source(grid::VertexId v, ColorState state) {
  add_source(v, state);
}

void ColorSearch::add_target(grid::VertexId v, int pin) {
  const std::uint32_t s = checked_slot(v, "add_target");
  SearchArena& a = *arena_;
  const bool active = a.target_stamp[s] == a.epoch && a.target_pin[s] >= 0;
  a.target_stamp[s] = a.epoch;
  a.target_pin[s] = pin;
  if (!active) {
    const grid::VertexLoc l = grid_.loc(v);
    a.target_list.push_back({s, l.x, l.y});
  }
  ++round_;
}

void ColorSearch::clear_targets_of_pin(int pin) {
  SearchArena& a = *arena_;
  // a.target_pin[slot] is the authoritative pin of every listed vertex (a
  // re-add overwrites it). Mark first, then compact: duplicates cannot
  // exist (add_target list-inserts only inactive vertices).
  for (const SearchArena::Target& t : a.target_list) {
    if (a.target_pin[t.slot] == pin) a.target_pin[t.slot] = -1;
  }
  std::erase_if(a.target_list, [&a](const SearchArena::Target& t) {
    return a.target_pin[t.slot] < 0;
  });
  ++round_;
}

double ColorSearch::heuristic(int x, int y) const {
  if (!config_.use_astar) return 0.0;
  const SearchArena& a = *arena_;
  if (a.target_list.empty()) return 0.0;
  int best = std::numeric_limits<int>::max();
  for (const SearchArena::Target& t : a.target_list) {
    const int d = geom::manhattan({x, y}, {t.x, t.y});
    if (d < best) best = d;
  }
  return min_step_cost_ * best;
}

void ColorSearch::push(std::uint32_t slot, int x, int y, double g) {
  const double f = g + heuristic(x, y);
  // Quantized key: both engines order by (qkey, push seq), so the pop
  // sequence — and therefore the routing output — is engine-independent.
  const auto qkey = static_cast<std::uint64_t>(f * inv_quantum_);
  const QueueItem item{g, slot, round_};
  if (config_.use_bucket_queue)
    arena_->bucket_queue.push(qkey, item, arena_->seq++);
  else
    arena_->heap_queue.push(qkey, item, arena_->seq++);
}

bool ColorSearch::queue_empty() const {
  return config_.use_bucket_queue ? arena_->bucket_queue.empty()
                                  : arena_->heap_queue.empty();
}

QueueItem ColorSearch::pop_item() {
  return config_.use_bucket_queue ? arena_->bucket_queue.pop()
                                  : arena_->heap_queue.pop();
}

int ColorSearch::target_pin(grid::VertexId v) const {
  const std::uint32_t s = slot_of(v);
  const SearchArena& a = *arena_;
  return s != kNoSlot && a.target_stamp[s] == a.epoch ? a.target_pin[s] : -1;
}

grid::VertexId ColorSearch::search() {
  SearchArena& a = *arena_;
  const bool tpl_aware = config_.enable_coloring;
  // The incremental congestion field counts colored vertices of EVERY net
  // in the Dcolor window; it substitutes for the self-excluding window
  // scan exactly when this net has no colored vertex anywhere — always
  // true in the router flows (rip-up clears masks, pins start uncolored).
  const bool use_field =
      config_.precomputed_congestion && grid_.colored_count(net_) == 0;
  const int nx = grid_.size_x();
  const int nl = grid_.num_layers();
  const auto layer_stride =
      static_cast<grid::VertexId>(nx) * static_cast<grid::VertexId>(grid_.size_y());
  const geom::Rect& window = slots_.window();
  // Slot strides of the session's window: 1 per x, w per y, w·h per layer.
  const std::uint32_t w = slots_.width();
  const std::uint32_t plane = slots_.plane();

  while (!queue_empty()) {
    // Cooperative cancellation: poll the deadline/cancel flag once per
    // kBudgetCheckInterval relaxations. Relaxation *budgets* are not
    // checked here — they stop between nets, on the main thread, so the
    // cut point is thread-invariant (route_budget.hpp).
    if (budget_ != nullptr && relaxations_ >= next_budget_check_) {
      next_budget_check_ = relaxations_ + kBudgetCheckInterval;
      if (budget_->interrupted()) {
        interrupted_ = true;
        return grid::kInvalidVertex;
      }
    }
    const QueueItem item = pop_item();
    const std::uint32_t sv = item.slot;
    if (a.stamp[sv] != a.epoch || a.closed[sv] || item.g > a.cost[sv] + kEps) continue;
    // Decode the slot into the global position (and id) once per pop.
    const grid::VertexLoc from_loc = slots_.loc(sv);
    if (config_.use_astar && item.round != round_) {
      // The target set changed since this entry was pushed (a pin was
      // reached), so its f is stale. Re-key against the current targets;
      // the new key may lie below the queue's cursor, which rewinds.
      push(sv, from_loc.x, from_loc.y, a.cost[sv]);
      continue;
    }
    const grid::VertexId v = grid_.vertex(from_loc);
    // Algorithm 2 lines 4–7: reaching a vertex covered by an unreached pin
    // terminates this round.
    if (a.target_stamp[sv] == a.epoch && a.target_pin[sv] >= 0) return v;
    a.closed[sv] = 1;

    const ColorState from_state(a.state[sv]);
    const double g_v = a.cost[sv];

    for (int d = 0; d < grid::kNumDirs; ++d) {
      const auto dir = static_cast<grid::Dir>(d);
      // Neighbor ids and slots arithmetically; the window check below
      // subsumes die bounds for planar moves (the window is clamped to
      // the die), and guards every slot before it is used.
      int tx = from_loc.x, ty = from_loc.y, tl = from_loc.layer;
      grid::VertexId u;
      std::uint32_t su;
      switch (dir) {
        case grid::Dir::East: ++tx; u = v + 1; su = sv + 1; break;
        case grid::Dir::West: --tx; u = v - 1; su = sv - 1; break;
        case grid::Dir::North:
          ++ty; u = v + static_cast<grid::VertexId>(nx); su = sv + w; break;
        case grid::Dir::South:
          --ty; u = v - static_cast<grid::VertexId>(nx); su = sv - w; break;
        case grid::Dir::Up: ++tl; u = v + layer_stride; su = sv + plane; break;
        default: --tl; u = v - layer_stride; su = sv - plane; break;  // Down
      }
      if (tl < 0 || tl >= nl) continue;
      if (tx < window.lo.x || tx > window.hi.x || ty < window.lo.y ||
          ty > window.hi.y)
        continue;
      if (grid_.blocked(u)) continue;
      const db::NetId owner = grid_.owner(u);
      if (owner != db::kNoNet && owner != net_) continue;  // hard overlap rule
      touch(su, tx, ty);
      // Closed vertices may be *reopened* on a strict improvement: after
      // the routed tree is re-seeded at cost 0 (Algorithm 3 lines 17–18),
      // labels computed from the previous, farther sources are stale
      // upper bounds, so the search is label-correcting across pin
      // rounds, plain Dijkstra within one.

      // ---- traditional cost (Eq. 1, alpha term) ----------------------
      double trad = trad_base_[static_cast<std::size_t>(tl) * grid::kNumDirs + d];
      if (guide_active_ && !guide_covered(tx, ty)) trad += oog_cost_;
      trad += grid_.history(u);
      trad *= alpha_;

      double move_cost;
      std::uint8_t new_state;
      if (!tpl_aware || !tpl_layer_[static_cast<std::size_t>(tl)]) {
        // Plain-router mode / non-critical layer: no color bookkeeping.
        move_cost = trad;
        new_state = universe_.bits();
      } else {
        // ---- per-mask color cost (Algorithm 2 lines 9–16) -------------
        // This is the one read that reaches BEYOND the labeled vertex —
        // a Dcolor-window scan (or its precomputed equivalent) — so it is
        // tracked in its own, usually much smaller, bbox: the tile walk
        // validates the TPL footprint against a Dcolor halo and
        // everything else against a 1-halo instead of inflating the whole
        // labeled bbox by max(dcolor, 1).
        touch_tpl(tx, ty);
        int counts[grid::kNumMasks];
        if (use_field) {
          const std::uint16_t* c = grid_.colored_neighbor_counts(u);
          counts[0] = c[0];
          counts[1] = c[1];
          counts[2] = c[2];
        } else {
          counts[0] = counts[1] = counts[2] = 0;
          grid_.for_each_colored_neighbor(
              u, net_, [&counts](grid::VertexId, db::NetId, grid::Mask m) {
                ++counts[m];
              });
        }
        double best = kInf;
        std::uint8_t argmin_bits = 0;
        for (grid::Mask c = 0; c < grid::kNumMasks; ++c) {
          if (!universe_.contains(c)) continue;  // DPL: mask 2 unavailable
          double cc = gamma_ * counts[c];
          // Lines 13–15: planar move with a mask outside the current
          // state needs a stitch.
          if (!grid::is_via(dir) && !from_state.contains(c)) cc += beta_;
          if (cc < best - kEps) {
            best = cc;
            argmin_bits = static_cast<std::uint8_t>(1u << c);
          } else if (cc < best + kEps) {
            argmin_bits |= static_cast<std::uint8_t>(1u << c);
          }
        }
        if (!config_.set_based_states) {
          // Ablation A1: commit to one color immediately.
          argmin_bits = ColorState::only(ColorState(argmin_bits).lowest_mask()).bits();
        }
        move_cost = trad + best;
        new_state = argmin_bits;
      }

      const double new_cost = g_v + move_cost;
      ++relaxations_;
      if (new_cost < a.cost[su] - kEps) {
        a.cost[su] = new_cost;
        a.prev[su] = v;
        a.state[su] = new_state;
        a.closed[su] = 0;
        push(su, tx, ty, new_cost);
      } else if (new_cost < a.cost[su] + kEps && a.prev[su] == v) {
        // Equal-cost relaxation from the same predecessor: merge the
        // argmin sets (set-based color-state merging).
        a.state[su] |= new_state;
      }
    }
  }
  return grid::kInvalidVertex;
}

}  // namespace mrtpl::core
