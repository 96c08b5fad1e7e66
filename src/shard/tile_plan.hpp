#pragma once
/// \file tile_plan.hpp
/// K×K rectangular die partition + halo-based net ownership — the
/// classification half of MrTplRouter's tile walk (mrtpl_router.cpp).
///
/// A net is *interior* to a tile when its halo-inflated search window
/// (clipped to the die) lies entirely inside that tile's rect: everything
/// the net's search can read or write then lives in the tile, so the net
/// can compute against an O(tile) GridView with whole-die fidelity. Nets
/// whose inflated windows cross tile boundaries — or exceed any single
/// tile — fall into the boundary pool (kBoundary) and are handled by flat
/// speculation against the pass snapshot.
///
/// The plan depends only on (die, tiles): identical for every thread
/// count, which is one leg of the sharded determinism contract.

#include <vector>

#include "geom/rect.hpp"

namespace mrtpl::shard {

class TilePlan {
 public:
  /// A net whose window fits no single tile.
  static constexpr int kBoundary = -1;

  /// Partition `die` into ceil(sqrt(tiles))² rects of near-equal size.
  /// `tiles` is a request, not a contract: the grid dimension is clamped
  /// so no tile is ever empty (a 4-track die cannot host 16 tiles), and
  /// tiles <= 1 degenerates to one tile covering the die.
  TilePlan(const geom::Rect& die, int tiles);

  [[nodiscard]] int grid_dim() const { return k_; }
  [[nodiscard]] int num_tiles() const { return k_ * k_; }
  [[nodiscard]] const geom::Rect& tile(int t) const {
    return tiles_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] const std::vector<geom::Rect>& tiles() const { return tiles_; }

  /// Ownership rule: the index of the tile containing
  /// `window.inflated(halo) ∩ die`, or kBoundary when no tile does.
  [[nodiscard]] int owner_of(const geom::Rect& window, int halo) const;

 private:
  geom::Rect die_;
  int k_ = 1;
  std::vector<int> xs_, ys_;  ///< k_+1 span boundaries (split points)
  std::vector<geom::Rect> tiles_;
};

}  // namespace mrtpl::shard
