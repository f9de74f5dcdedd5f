#include "core/redistribution.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "core/compiled_log.h"

namespace scaddar {

MovementStats MovePlan::ToMovementStats(int64_t n_prev, int64_t n_cur) const {
  MovementStats stats;
  stats.total_blocks = blocks_considered_;
  stats.moved_blocks = num_moves();
  stats.moved_fraction =
      blocks_considered_ == 0
          ? 0.0
          : static_cast<double>(num_moves()) /
                static_cast<double>(blocks_considered_);
  stats.theoretical_fraction = TheoreticalMoveFraction(n_prev, n_cur);
  if (stats.theoretical_fraction == 0.0) {
    stats.overhead_ratio = stats.moved_fraction == 0.0 ? 1.0 : HUGE_VAL;
  } else {
    stats.overhead_ratio = stats.moved_fraction / stats.theoretical_fraction;
  }
  return stats;
}

void MovePlan::Append(MovePlan&& shard) {
  if (moves_.empty()) {
    moves_ = std::move(shard.moves_);
  } else {
    moves_.insert(moves_.end(),
                  std::make_move_iterator(shard.moves_.begin()),
                  std::make_move_iterator(shard.moves_.end()));
  }
  blocks_considered_ += shard.blocks_considered_;
  shard.moves_.clear();
  shard.blocks_considered_ = 0;
}

namespace {

// Step-major evaluation tile: small enough that two tiles of chain state
// plus a slot buffer stay cache-resident while the outer loop walks steps.
constexpr int64_t kBatchTile = 4096;

// The flattened (object, block) index space the planners shard: eligible
// views in input order, `offsets[v]` = global index of view v's first
// block. Contiguous global ranges therefore enumerate blocks in exactly
// the serial scan order, which is what makes shard-merge deterministic.
struct FlatViews {
  std::vector<const ObjectBlocksView*> views;
  std::vector<int64_t> offsets;  // Size views.size() + 1.

  int64_t total() const { return offsets.back(); }
};

FlatViews Flatten(const std::vector<ObjectBlocksView>& objects,
                  Epoch min_visible_before) {
  FlatViews flat;
  flat.offsets.push_back(0);
  for (const ObjectBlocksView& view : objects) {
    SCADDAR_CHECK(view.x0 != nullptr);
    if (view.start_epoch >= min_visible_before) {
      continue;  // Written at/after the op being planned; nothing can move.
    }
    flat.views.push_back(&view);
    flat.offsets.push_back(flat.offsets.back() +
                           static_cast<int64_t>(view.x0->size()));
  }
  return flat;
}

// Reserve for the RO1-expected move count plus slack for randomness, so a
// plan at the expected size never reallocates.
int64_t ExpectedMoves(double fraction, int64_t blocks) {
  const double expected = fraction * static_cast<double>(blocks);
  return static_cast<int64_t>(expected + expected / 16.0 + 64.0);
}

// Plans the global block range [lo, hi) of `flat` for operation `j`.
// Emits moves in flattened order — shard concatenation order == serial
// scan order.
MovePlan PlanOperationShard(const CompiledLog& compiled, Epoch j,
                            const FlatViews& flat,
                            const std::vector<PhysicalDiskId>& before,
                            const std::vector<PhysicalDiskId>& after,
                            int64_t lo, int64_t hi) {
  MovePlan plan;
  plan.Reserve(ExpectedMoves(
      TheoreticalMoveFraction(compiled.disks_after(j - 1),
                              compiled.disks_after(j)),
      hi - lo));
  const FastDiv64 mod_before(
      static_cast<uint64_t>(compiled.disks_after(j - 1)));
  const FastDiv64 mod_after(static_cast<uint64_t>(compiled.disks_after(j)));
  std::vector<uint64_t> chain(static_cast<size_t>(kBatchTile));
  std::vector<uint64_t> slot_before(static_cast<size_t>(kBatchTile));
  // First view whose block range intersects [lo, hi).
  size_t v = static_cast<size_t>(
      std::distance(flat.offsets.begin(),
                    std::upper_bound(flat.offsets.begin(), flat.offsets.end(),
                                     lo)) -
      1);
  for (; v < flat.views.size() && flat.offsets[v] < hi; ++v) {
    const ObjectBlocksView& view = *flat.views[v];
    const int64_t first = std::max<int64_t>(lo - flat.offsets[v], 0);
    const int64_t last = std::min<int64_t>(hi - flat.offsets[v],
                                           static_cast<int64_t>(view.x0->size()));
    for (int64_t tile = first; tile < last; tile += kBatchTile) {
      const int64_t count = std::min(kBatchTile, last - tile);
      const std::span<uint64_t> xs(chain.data(), static_cast<size_t>(count));
      std::copy_n(view.x0->data() + tile, count, chain.data());
      compiled.AdvanceXBatch(xs, view.start_epoch, j - 1);
      for (int64_t i = 0; i < count; ++i) {
        slot_before[static_cast<size_t>(i)] = mod_before.Mod(chain[static_cast<size_t>(i)]);
      }
      compiled.AdvanceXBatch(xs, j - 1, j);
      for (int64_t i = 0; i < count; ++i) {
        const DiskSlot s_before =
            static_cast<DiskSlot>(slot_before[static_cast<size_t>(i)]);
        const DiskSlot s_after =
            static_cast<DiskSlot>(mod_after.Mod(chain[static_cast<size_t>(i)]));
        const PhysicalDiskId phys_before = before[static_cast<size_t>(s_before)];
        const PhysicalDiskId phys_after = after[static_cast<size_t>(s_after)];
        if (phys_before != phys_after) {
          plan.Add(BlockMove{
              .block = {view.object, static_cast<BlockIndex>(tile + i)},
              .from_slot = s_before,
              .to_slot = s_after,
              .from_physical = phys_before,
              .to_physical = phys_after,
          });
        }
      }
    }
  }
  plan.set_blocks_considered(hi - lo);
  return plan;
}

// Plans [lo, hi) of a full redistribution; `from_flat`/`to_flat` enumerate
// the same objects with the same block counts (checked by the caller).
MovePlan PlanFullShard(const CompiledLog& from_compiled,
                       const CompiledLog& to_compiled,
                       const FlatViews& from_flat, const FlatViews& to_flat,
                       const std::vector<PhysicalDiskId>& before,
                       const std::vector<PhysicalDiskId>& after, int64_t lo,
                       int64_t hi) {
  MovePlan plan;
  // A full redistribution moves nearly everything; reserve the whole range.
  plan.Reserve(hi - lo);
  std::vector<uint64_t> from_chain(static_cast<size_t>(kBatchTile));
  std::vector<uint64_t> to_chain(static_cast<size_t>(kBatchTile));
  const FastDiv64 mod_before(
      static_cast<uint64_t>(from_compiled.current_disks()));
  const FastDiv64 mod_after(static_cast<uint64_t>(to_compiled.current_disks()));
  size_t v = static_cast<size_t>(
      std::distance(from_flat.offsets.begin(),
                    std::upper_bound(from_flat.offsets.begin(),
                                     from_flat.offsets.end(), lo)) -
      1);
  for (; v < from_flat.views.size() && from_flat.offsets[v] < hi; ++v) {
    const ObjectBlocksView& from_view = *from_flat.views[v];
    const ObjectBlocksView& to_view = *to_flat.views[v];
    const int64_t first = std::max<int64_t>(lo - from_flat.offsets[v], 0);
    const int64_t last =
        std::min<int64_t>(hi - from_flat.offsets[v],
                          static_cast<int64_t>(from_view.x0->size()));
    for (int64_t tile = first; tile < last; tile += kBatchTile) {
      const int64_t count = std::min(kBatchTile, last - tile);
      std::copy_n(from_view.x0->data() + tile, count, from_chain.data());
      std::copy_n(to_view.x0->data() + tile, count, to_chain.data());
      from_compiled.FinalXBatch(
          std::span<uint64_t>(from_chain.data(), static_cast<size_t>(count)),
          from_view.start_epoch);
      to_compiled.FinalXBatch(
          std::span<uint64_t>(to_chain.data(), static_cast<size_t>(count)),
          to_view.start_epoch);
      for (int64_t i = 0; i < count; ++i) {
        const DiskSlot s_before = static_cast<DiskSlot>(
            mod_before.Mod(from_chain[static_cast<size_t>(i)]));
        const DiskSlot s_after = static_cast<DiskSlot>(
            mod_after.Mod(to_chain[static_cast<size_t>(i)]));
        const PhysicalDiskId phys_before = before[static_cast<size_t>(s_before)];
        const PhysicalDiskId phys_after = after[static_cast<size_t>(s_after)];
        if (phys_before != phys_after) {
          plan.Add(BlockMove{
              .block = {from_view.object, static_cast<BlockIndex>(tile + i)},
              .from_slot = s_before,
              .to_slot = s_after,
              .from_physical = phys_before,
              .to_physical = phys_after,
          });
        }
      }
    }
  }
  plan.set_blocks_considered(hi - lo);
  return plan;
}

// Runs `shard(lo, hi)` over `[0, total)`: on the calling thread when the
// input is small or one thread is requested, otherwise as one static chunk
// per worker. Shard plans are merged in chunk order, so the concatenation
// equals the single-shard (serial) plan byte for byte.
template <typename ShardFn>
MovePlan RunSharded(int64_t total, const ParallelPlanOptions& options,
                    const ShardFn& shard) {
  const int threads =
      options.pool != nullptr ? options.pool->num_threads() : options.num_threads;
  if (threads <= 1 || total < options.min_blocks_to_shard) {
    return shard(0, total);
  }
  const int64_t chunks = std::min<int64_t>(threads, total);
  const int64_t chunk_size = (total + chunks - 1) / chunks;
  std::vector<MovePlan> shards(static_cast<size_t>(chunks));
  const auto body = [&](int64_t chunk_lo, int64_t chunk_hi) {
    for (int64_t c = chunk_lo; c < chunk_hi; ++c) {
      const int64_t lo = c * chunk_size;
      const int64_t hi = std::min(total, lo + chunk_size);
      shards[static_cast<size_t>(c)] = shard(lo, hi);
    }
  };
  if (options.pool != nullptr) {
    options.pool->ParallelFor(0, chunks, body);
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(0, chunks, body);
  }
  MovePlan plan;
  int64_t moves = 0;
  for (const MovePlan& s : shards) {
    moves += s.num_moves();
  }
  plan.Reserve(moves);
  for (MovePlan& s : shards) {
    plan.Append(std::move(s));
  }
  return plan;
}

}  // namespace

MovePlan PlanOperation(const OpLog& log, Epoch j,
                       const std::vector<ObjectBlocksView>& objects,
                       const ParallelPlanOptions& options) {
  SCADDAR_CHECK(j >= 1 && j <= log.num_ops());
  const CompiledLog compiled(log);
  const FlatViews flat = Flatten(objects, /*min_visible_before=*/j);
  const std::vector<PhysicalDiskId>& before = log.physical_disks_at(j - 1);
  const std::vector<PhysicalDiskId>& after = log.physical_disks_at(j);
  return RunSharded(flat.total(), options, [&](int64_t lo, int64_t hi) {
    return PlanOperationShard(compiled, j, flat, before, after, lo, hi);
  });
}

MovePlan PlanFullRedistribution(const OpLog& from_log,
                                const std::vector<ObjectBlocksView>& from_x0,
                                const OpLog& to_log,
                                const std::vector<ObjectBlocksView>& to_x0,
                                const ParallelPlanOptions& options) {
  SCADDAR_CHECK(from_x0.size() == to_x0.size());
  const CompiledLog from_compiled(from_log);
  const CompiledLog to_compiled(to_log);
  // Every view participates: a full redistribution re-places all blocks.
  constexpr Epoch kKeepAll = std::numeric_limits<Epoch>::max();
  const FlatViews from_flat = Flatten(from_x0, /*min_visible_before=*/kKeepAll);
  const FlatViews to_flat = Flatten(to_x0, /*min_visible_before=*/kKeepAll);
  SCADDAR_CHECK(from_flat.views.size() == to_flat.views.size());
  for (size_t i = 0; i < from_flat.views.size(); ++i) {
    SCADDAR_CHECK(from_flat.views[i]->object == to_flat.views[i]->object);
    SCADDAR_CHECK(from_flat.views[i]->x0->size() ==
                  to_flat.views[i]->x0->size());
  }
  const std::vector<PhysicalDiskId>& before = from_log.physical_disks();
  const std::vector<PhysicalDiskId>& after = to_log.physical_disks();
  return RunSharded(from_flat.total(), options, [&](int64_t lo, int64_t hi) {
    return PlanFullShard(from_compiled, to_compiled, from_flat, to_flat,
                         before, after, lo, hi);
  });
}

}  // namespace scaddar
