#ifndef SCADDAR_TESTS_MIGRATION_ORACLE_H_
#define SCADDAR_TESTS_MIGRATION_ORACLE_H_

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/types.h"
#include "placement/policy.h"
#include "server/migration.h"
#include "storage/block_store.h"
#include "storage/disk_array.h"

namespace scaddar {

/// The per-block migration round `MigrationExecutor::RunRound` replaced,
/// kept as its equivalence oracle. Each round pops the whole queue and
/// visits every entry: one store lookup and one virtual `Locate` chain
/// replay per entry, a move where both disks still have budget, and a
/// re-queue, in order, of every entry the budget starved. One-phase only
/// (no journal, no injector).
class ScalarMigrationOracle {
 public:
  void Push(BlockRef ref) { queue_.push_back(ref); }

  /// Queues what `MigrationExecutor::EnqueueReconciliation` would queue.
  void EnqueueReconciliation(const BlockStore& store,
                             const PlacementPolicy& policy) {
    MigrationExecutor scan;
    scan.EnqueueReconciliation(store, policy);
    for (const BlockRef ref : scan.QueueSnapshot()) {
      Push(ref);
    }
  }

  int64_t RunRound(std::span<int64_t> budget, BlockStore& store,
                   DiskArray& disks, const PlacementPolicy& policy) {
    const auto has_budget = [budget](PhysicalDiskId disk) {
      return disk >= 0 && disk < static_cast<PhysicalDiskId>(budget.size()) &&
             budget[static_cast<size_t>(disk)] > 0;
    };
    int64_t moved = 0;
    size_t remaining = queue_.size();
    while (remaining-- > 0) {
      const BlockRef ref = PopFront();
      const StatusOr<PhysicalDiskId> current = store.LocationOf(ref);
      if (!current.ok()) {
        continue;  // Object deleted while its move was queued.
      }
      const PhysicalDiskId target = policy.Locate(ref.object, ref.block);
      if (*current == target) {
        continue;  // Already in place (duplicate or superseded entry).
      }
      if (!has_budget(*current) || !has_budget(target)) {
        Push(ref);  // No bandwidth this round; retry later.
        continue;
      }
      --budget[static_cast<size_t>(*current)];
      --budget[static_cast<size_t>(target)];
      const Status applied = store.ApplyMove(BlockMove{
          .block = ref,
          .from_slot = 0,
          .to_slot = 0,
          .from_physical = *current,
          .to_physical = target,
      });
      SCADDAR_CHECK(applied.ok());
      disks.GetDisk(*current).value()->RecordMigrationTransfers(1);
      disks.GetDisk(target).value()->RecordMigrationTransfers(1);
      ++moved;
      ++total_moved_;
    }
    return moved;
  }

  std::vector<BlockRef> QueueSnapshot() const {
    return std::vector<BlockRef>(queue_.begin(), queue_.end());
  }
  int64_t pending() const { return static_cast<int64_t>(queue_.size()); }
  bool idle() const { return queue_.empty(); }
  int64_t total_moved() const { return total_moved_; }

 private:
  BlockRef PopFront() {
    const BlockRef ref = queue_.front();
    queue_.pop_front();
    return ref;
  }

  std::deque<BlockRef> queue_;
  int64_t total_moved_ = 0;
};

}  // namespace scaddar

#endif  // SCADDAR_TESTS_MIGRATION_ORACLE_H_
