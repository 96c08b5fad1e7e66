#include "grid/routing_grid.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mrtpl::grid {

RoutingGrid::RoutingGrid(const db::Design& design)
    : design_(&design),
      nl_(design.tech().num_layers()),
      nx_(design.die().width()),
      ny_(design.die().height()),
      dcolor_(design.tech().rules().dcolor) {
  if (design.die().lo != geom::Point{0, 0})
    throw std::invalid_argument("RoutingGrid: die must be origin-anchored");
  const auto n = num_vertices();
  owner_.assign(n, db::kNoNet);
  mask_.assign(n, kNoMask);
  blocked_.assign(n, 0);
  pin_vertex_.assign(n, 0);
  pin_owner_.assign(n, db::kNoNet);
  history_.assign(n, 0.0f);
  color_counts_.assign(3 * static_cast<std::size_t>(n), 0);
  colored_of_.assign(static_cast<std::size_t>(design.num_nets()), 0);

  for (const auto& obs : design.obstacles()) {
    for (int y = obs.shape.lo.y; y <= obs.shape.hi.y; ++y)
      for (int x = obs.shape.lo.x; x <= obs.shape.hi.x; ++x)
        blocked_[vertex(obs.layer, x, y)] = 1;
  }
  for (const auto& net : design.nets()) {
    for (const auto& pin : net.pins) {
      for (const auto& s : pin.shapes) {
        for (int y = s.lo.y; y <= s.hi.y; ++y) {
          for (int x = s.lo.x; x <= s.hi.x; ++x) {
            const VertexId v = vertex(pin.layer, x, y);
            if (blocked_[v]) continue;  // obstacle wins; pin access reduced
            pin_vertex_[v] = 1;
            pin_owner_[v] = net.id;
            owner_[v] = net.id;
          }
        }
      }
    }
  }
}

RoutingGrid::RoutingGrid(const RoutingGrid& base, const geom::Rect& tile)
    : design_(base.design_),
      nl_(base.nl_),
      dcolor_(base.dcolor_),
      history_dirty_(base.history_dirty_) {
  const geom::Rect r = tile.intersected(base.bounds());
  if (!r.valid())
    throw std::invalid_argument("RoutingGrid: view window outside base grid");
  x0_ = r.lo.x;
  y0_ = r.lo.y;
  nx_ = r.width();
  ny_ = r.height();
  const auto n = num_vertices();
  owner_.resize(n);
  mask_.resize(n);
  blocked_.resize(n);
  pin_vertex_.resize(n);
  pin_owner_.resize(n);
  history_.resize(n);
  color_counts_.resize(3 * static_cast<std::size_t>(n));
  colored_of_ = base.colored_of_;
  // Row-sliced copy of the base's state. The congestion counts copied at
  // the window edge still count colored vertices OUTSIDE the window — by
  // design: a search whose reads stay `dcolor` inside the window (the
  // sharded executor's interior-ownership rule) sees exactly the whole-die
  // values, and edge vertices are simply never read by such a search.
  for (int l = 0; l < nl_; ++l) {
    for (int y = 0; y < ny_; ++y) {
      const VertexId src = base.vertex(l, x0_, y0_ + y);
      const VertexId dst = vertex(l, x0_, y0_ + y);
      std::copy_n(base.owner_.begin() + src, nx_, owner_.begin() + dst);
      std::copy_n(base.mask_.begin() + src, nx_, mask_.begin() + dst);
      std::copy_n(base.blocked_.begin() + src, nx_, blocked_.begin() + dst);
      std::copy_n(base.pin_vertex_.begin() + src, nx_, pin_vertex_.begin() + dst);
      std::copy_n(base.pin_owner_.begin() + src, nx_, pin_owner_.begin() + dst);
      std::copy_n(base.history_.begin() + src, nx_, history_.begin() + dst);
      std::copy_n(base.color_counts_.begin() + 3 * static_cast<std::size_t>(src),
                  3 * static_cast<std::size_t>(nx_),
                  color_counts_.begin() + 3 * static_cast<std::size_t>(dst));
    }
  }
}

bool RoutingGrid::is_preferred(int layer, Dir d) const {
  if (is_via(d)) return true;
  const bool horizontal = tech().is_horizontal(layer);
  const bool east_west = d == Dir::East || d == Dir::West;
  return horizontal == east_west;
}

void RoutingGrid::update_color_field(VertexId v, db::NetId old_owner, Mask old_m,
                                     db::NetId new_owner, Mask new_m) {
  if (old_owner == new_owner && old_m == new_m) return;
  if (old_m != kNoMask && old_owner != db::kNoNet &&
      static_cast<std::size_t>(old_owner) < colored_of_.size()) {
    assert(colored_of_[static_cast<std::size_t>(old_owner)] > 0);
    --colored_of_[static_cast<std::size_t>(old_owner)];
  }
  if (new_m != kNoMask && new_owner != db::kNoNet) {
    if (static_cast<std::size_t>(new_owner) >= colored_of_.size())
      colored_of_.resize(static_cast<std::size_t>(new_owner) + 1, 0);
    ++colored_of_[static_cast<std::size_t>(new_owner)];
  }
  if (old_m == new_m) return;
  const VertexLoc l = loc(v);
  if (!tech().is_tpl_layer(l.layer)) return;
  // Same window as for_each_colored_neighbor, mirrored: v's mask change
  // affects the counts AT each neighbor (clamped to this grid's window).
  const int x0 = l.x - dcolor_ > x0_ ? l.x - dcolor_ : x0_;
  const int x1 = l.x + dcolor_ < x0_ + nx_ ? l.x + dcolor_ : x0_ + nx_ - 1;
  const int y0 = l.y - dcolor_ > y0_ ? l.y - dcolor_ : y0_;
  const int y1 = l.y + dcolor_ < y0_ + ny_ ? l.y + dcolor_ : y0_ + ny_ - 1;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      if (x == l.x && y == l.y) continue;
      std::uint16_t* c = &color_counts_[3 * static_cast<std::size_t>(
                                                vertex(l.layer, x, y))];
      if (old_m != kNoMask) {
        assert(c[old_m] > 0);
        --c[old_m];
      }
      if (new_m != kNoMask) ++c[new_m];
    }
  }
}

void RoutingGrid::commit(VertexId v, db::NetId net, Mask m) {
  assert(net != db::kNoNet);
  assert(owner_[v] == db::kNoNet || owner_[v] == net);
  note_change(v, net, m);
  update_color_field(v, owner_[v], mask_[v], net, m);
  owner_[v] = net;
  mask_[v] = m;
}

void RoutingGrid::set_mask(VertexId v, Mask m) {
  assert(owner_[v] != db::kNoNet);
  note_change(v, owner_[v], m);
  update_color_field(v, owner_[v], mask_[v], owner_[v], m);
  mask_[v] = m;
}

void RoutingGrid::release(VertexId v) {
  if (pin_vertex_[v]) {
    // Pin metal stays; only the wire color is undone.
    note_change(v, pin_owner_[v], kNoMask);
    update_color_field(v, owner_[v], mask_[v], pin_owner_[v], kNoMask);
    owner_[v] = pin_owner_[v];
    mask_[v] = kNoMask;
  } else {
    note_change(v, db::kNoNet, kNoMask);
    update_color_field(v, owner_[v], mask_[v], db::kNoNet, kNoMask);
    owner_[v] = db::kNoNet;
    mask_[v] = kNoMask;
  }
}

void RoutingGrid::rerasterize(int layer, const geom::Rect& region) {
  if (layer < 0 || layer >= nl_) return;
  const geom::Rect r = region.intersected(bounds());
  if (!r.valid()) return;
  for (int y = r.lo.y; y <= r.hi.y; ++y) {
    for (int x = r.lo.x; x <= r.hi.x; ++x) {
      const VertexId v = vertex(layer, x, y);
      const geom::Point p{x, y};
      bool is_blocked = false;
      for (const auto& obs : design_->obstacles()) {
        if (obs.layer == layer && obs.shape.contains(p)) {
          is_blocked = true;
          break;
        }
      }
      // Construction order: nets in id order, later assignments overwrite,
      // so the highest covering net id owns an overlapped pin vertex.
      db::NetId pin_net = db::kNoNet;
      if (!is_blocked) {
        for (const auto& net : design_->nets()) {
          for (const auto& pin : net.pins) {
            if (pin.layer != layer) continue;
            for (const auto& s : pin.shapes) {
              if (s.contains(p)) {
                pin_net = net.id;
                break;
              }
            }
          }
        }
      }
      const db::NetId new_owner = pin_net;
      note_change(v, new_owner, kNoMask);
      update_color_field(v, owner_[v], mask_[v], new_owner, kNoMask);
      owner_[v] = new_owner;
      mask_[v] = kNoMask;
      blocked_[v] = is_blocked ? 1 : 0;
      pin_vertex_[v] = pin_net != db::kNoNet ? 1 : 0;
      pin_owner_[v] = pin_net;
    }
  }
}

void RoutingGrid::clear_history() {
  if (!history_dirty_) return;
  std::fill(history_.begin(), history_.end(), 0.0f);
  history_dirty_ = false;
}

int RoutingGrid::same_mask_neighbors(VertexId v, Mask m, db::NetId self) const {
  int count = 0;
  for_each_colored_neighbor(v, self, [&](VertexId, db::NetId, Mask other) {
    if (other == m) ++count;
  });
  return count;
}

std::uint8_t RoutingGrid::conflict_mask_bits(VertexId v, db::NetId self) const {
  std::uint8_t bits = 0;
  for_each_colored_neighbor(v, self, [&](VertexId, db::NetId, Mask other) {
    bits |= static_cast<std::uint8_t>(1u << other);
  });
  return bits;
}

std::vector<VertexId> RoutingGrid::pin_vertices(const db::Pin& pin) const {
  std::vector<VertexId> out;
  for (const auto& s : pin.shapes) {
    // Clip to this grid's window: on views, shape portions outside the
    // window have no vertices here (interior-owned nets never need them).
    const geom::Rect c = s.intersected(bounds());
    if (!c.valid()) continue;
    for (int y = c.lo.y; y <= c.hi.y; ++y) {
      for (int x = c.lo.x; x <= c.hi.x; ++x) {
        const VertexId v = vertex(pin.layer, x, y);
        if (!blocked_[v]) out.push_back(v);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace mrtpl::grid
