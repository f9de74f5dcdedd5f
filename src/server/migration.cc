#include "server/migration.h"

#include <algorithm>

#include "faults/injector.h"
#include "storage/block_io.h"
#include "storage/move_journal.h"
#include "util/thread_pool.h"

namespace scaddar {

void MigrationExecutor::PushRef(BlockRef ref) {
  queue_.push_back(ref);
  ++pending_per_object_[ref.object];
}

BlockRef MigrationExecutor::PopFront() {
  const BlockRef ref = queue_.front();
  queue_.pop_front();
  const auto it = pending_per_object_.find(ref.object);
  SCADDAR_CHECK(it != pending_per_object_.end());
  if (--it->second == 0) {
    pending_per_object_.erase(it);
  }
  return ref;
}

int64_t MigrationExecutor::pending_for(ObjectId object) const {
  const auto it = pending_per_object_.find(object);
  return it == pending_per_object_.end() ? 0 : it->second;
}

std::vector<BlockRef> MigrationExecutor::QueueSnapshot() const {
  return std::vector<BlockRef>(queue_.begin(), queue_.end());
}

void MigrationExecutor::Reset() {
  queue_.clear();
  pending_per_object_.clear();
  crashed_ = false;
}

void MigrationExecutor::EnqueuePlan(const MovePlan& plan) {
  for (const BlockMove& move : plan.moves()) {
    PushRef(move.block);
  }
}

namespace {

/// One object's slice of the flattened (object, block) scan space.
struct ScanEntry {
  ObjectId object = 0;
  int64_t blocks = 0;
  int64_t offset = 0;  // Flattened index of this object's block 0.
};

/// Appends every block in flattened range [lo, hi) whose store row disagrees
/// with the batch AF() to `out`. Read-only over store/policy, so shards can
/// run it concurrently; scanning contiguous flattened ranges in order keeps
/// the merged result identical to a single [0, total) scan.
void ScanRange(const std::vector<ScanEntry>& entries, int64_t lo, int64_t hi,
               const BlockStore& store, const PlacementPolicy& policy,
               std::vector<BlockRef>& out) {
  // First entry overlapping `lo`.
  auto it = std::upper_bound(
      entries.begin(), entries.end(), lo,
      [](int64_t v, const ScanEntry& e) { return v < e.offset; });
  SCADDAR_CHECK(it != entries.begin());
  --it;
  std::vector<PhysicalDiskId> targets;
  for (; it != entries.end() && it->offset < hi; ++it) {
    const BlockIndex begin =
        static_cast<BlockIndex>(std::max<int64_t>(lo - it->offset, 0));
    const BlockIndex end =
        static_cast<BlockIndex>(std::min<int64_t>(hi - it->offset, it->blocks));
    if (begin >= end) {
      continue;
    }
    targets.resize(static_cast<size_t>(end - begin));
    policy.LocateRange(it->object, begin, end,
                       std::span<PhysicalDiskId>(targets));
    const StatusOr<std::span<const PhysicalDiskId>> row =
        store.LocationsOf(it->object);
    SCADDAR_CHECK(row.ok());
    for (BlockIndex i = begin; i < end; ++i) {
      if ((*row)[static_cast<size_t>(i)] !=
          targets[static_cast<size_t>(i - begin)]) {
        out.push_back(BlockRef{it->object, i});
      }
    }
  }
}

}  // namespace

void MigrationExecutor::EnqueueReconciliation(
    const BlockStore& store, const PlacementPolicy& policy,
    const ParallelPlanOptions& options) {
  std::vector<ScanEntry> entries;
  entries.reserve(policy.objects_view().size());
  int64_t total = 0;
  for (const auto& [id, x0] : policy.objects_view()) {
    entries.push_back(
        ScanEntry{id, static_cast<int64_t>(x0.size()), total});
    total += static_cast<int64_t>(x0.size());
  }
  if (total == 0) {
    return;
  }
  policy.PrepareForBatch();

  const int threads =
      options.pool != nullptr ? options.pool->num_threads()
                              : options.num_threads;
  if (threads <= 1 || total < options.min_blocks_to_shard) {
    std::vector<BlockRef> divergent;
    ScanRange(entries, 0, total, store, policy, divergent);
    for (const BlockRef ref : divergent) {
      PushRef(ref);
    }
    return;
  }

  // Contiguous flattened shards, one per worker, merged in shard order —
  // identical to the serial scan for any thread count (the PR-1 planner
  // discipline).
  const int64_t chunk = (total + threads - 1) / threads;
  std::vector<std::vector<BlockRef>> shards(static_cast<size_t>(threads));
  auto scan_shard = [&](int t) {
    const int64_t lo = static_cast<int64_t>(t) * chunk;
    const int64_t hi = std::min<int64_t>(lo + chunk, total);
    if (lo < hi) {
      ScanRange(entries, lo, hi, store, policy,
                shards[static_cast<size_t>(t)]);
    }
  };
  if (options.pool != nullptr) {
    options.pool->ParallelFor(0, threads, [&](int64_t lo, int64_t hi) {
      for (int64_t t = lo; t < hi; ++t) {
        scan_shard(static_cast<int>(t));
      }
    });
  } else {
    ThreadPool transient(threads);
    transient.ParallelFor(0, threads, [&](int64_t lo, int64_t hi) {
      for (int64_t t = lo; t < hi; ++t) {
        scan_shard(static_cast<int>(t));
      }
    });
  }
  for (const std::vector<BlockRef>& shard : shards) {
    for (const BlockRef ref : shard) {
      PushRef(ref);
    }
  }
}

int64_t MigrationExecutor::RunRound(
    std::unordered_map<PhysicalDiskId, int64_t>& leftover, BlockStore& store,
    DiskArray& disks, const PlacementPolicy& policy) {
  if (crashed_) {
    return 0;  // The process is "dead" until SimulateCrashRestart.
  }
  const size_t round_items = queue_.size();
  if (round_items == 0) {
    return 0;
  }
  FaultInjector* const injector = disks.fault_injector();

  // Dequeue this round's entries; bandwidth-starved ones requeue behind any
  // entries enqueued mid-round, exactly like the scalar single pass.
  std::vector<BlockRef> items;
  items.reserve(round_items);
  for (size_t i = 0; i < round_items; ++i) {
    items.push_back(PopFront());
  }

  // Group by object once: store rows are stable spans for the whole round
  // (moves mutate entries in place), so current locations are read from the
  // live row at decision time and duplicate queue entries observe earlier
  // moves of the same round just as the scalar pass does.
  std::unordered_map<ObjectId, std::span<const PhysicalDiskId>> rows;
  constexpr size_t kSkipped = static_cast<size_t>(-1);
  std::vector<size_t> item_slot(items.size(), 0);
  std::vector<std::span<const PhysicalDiskId>> item_row(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const BlockRef ref = items[i];
    const auto [it, inserted] = rows.try_emplace(ref.object);
    if (inserted) {
      const StatusOr<std::span<const PhysicalDiskId>> row =
          store.LocationsOf(ref.object);
      // Object deleted while its moves were queued: every entry skips.
      it->second = row.ok() ? *row : std::span<const PhysicalDiskId>();
    }
    if (it->second.empty() || ref.block < 0 ||
        ref.block >= static_cast<BlockIndex>(it->second.size())) {
      item_slot[i] = kSkipped;  // Mirrors the scalar LocationOf error path.
      continue;
    }
    item_row[i] = it->second;
  }

  // Batch-resolve targets for items [first, end): one step-major pass per
  // object. Re-invoked mid-round by the epoch guard when a scaling op lands
  // while the round is executing — the remaining items re-plan against the
  // new epoch's AF() so no move chases a stale target.
  std::vector<PhysicalDiskId> item_target(items.size(), 0);
  const auto resolve_targets = [&](size_t first) {
    policy.PrepareForBatch();
    std::unordered_map<ObjectId,
                       std::pair<std::vector<BlockIndex>, std::vector<size_t>>>
        groups;
    for (size_t i = first; i < items.size(); ++i) {
      if (item_slot[i] == kSkipped) {
        continue;
      }
      auto& [blocks, indices] = groups[items[i].object];
      blocks.push_back(items[i].block);
      indices.push_back(i);
    }
    std::vector<PhysicalDiskId> targets;
    for (auto& [object, group] : groups) {
      auto& [blocks, indices] = group;
      targets.resize(blocks.size());
      policy.LocateMany(object, std::span<const BlockIndex>(blocks),
                        std::span<PhysicalDiskId>(targets));
      for (size_t k = 0; k < indices.size(); ++k) {
        item_target[indices[k]] = targets[k];
      }
    }
  };
  int64_t epoch_revision = policy.log().revision();
  resolve_targets(0);

  // An injected crash abandons the round: only durably-written state (the
  // journal and the store) survives; queued work is rebuilt by the
  // post-restart reconciliation scan.
  const auto crash_at = [&](MovePhase phase) {
    if (injector != nullptr && injector->CrashAt(phase)) {
      crashed_ = true;
      return true;
    }
    return false;
  };

  // Two-phase (engine) rounds stage every move first and commit after the
  // engine lands the round's copies in one batched submission per disk.
  struct StagedMove {
    int64_t entry = 0;
    BlockRef ref;
    PhysicalDiskId from = 0;
    PhysicalDiskId to = 0;
    int64_t ordinal = -1;  // Injector move ordinal at stage time.
  };
  std::vector<StagedMove> staged_moves;

  // Spend bandwidth in queue order with the precomputed targets.
  int64_t moved = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (item_slot[i] == kSkipped) {
      continue;
    }
    const BlockRef ref = items[i];
    const PhysicalDiskId current = item_row[i][static_cast<size_t>(ref.block)];
    if (current == item_target[i]) {
      continue;  // Already in place (duplicate or superseded entry).
    }
    if (injector != nullptr) {
      injector->BeginMove();  // May fire a hook that applies a scaling op.
    }
    // Epoch guard: if a scaling operation was applied since the round's
    // targets were resolved (a hook racing the round, or any reentrant
    // caller), re-plan the remaining items against the new epoch.
    if (policy.log().revision() != epoch_revision) {
      epoch_revision = policy.log().revision();
      resolve_targets(i);
      if (current == item_target[i]) {
        continue;  // The new epoch wants this block where it already is.
      }
    }
    const PhysicalDiskId target = item_target[i];
    auto src = leftover.find(current);
    auto dst = leftover.find(target);
    if (src == leftover.end() || dst == leftover.end() || src->second <= 0 ||
        dst->second <= 0) {
      PushRef(ref);  // No bandwidth this round; retry later.
      continue;
    }
    --src->second;
    --dst->second;
    if (injector != nullptr && injector->FailTransfer(current, target)) {
      // Transient I/O error: the attempt burned its bandwidth; re-queue the
      // block and retry in a later round (the executor's backoff).
      disks.GetDisk(current).value()->RecordTransientError();
      disks.GetDisk(target).value()->RecordTransientError();
      ++transient_errors_;
      PushRef(ref);
      continue;
    }
    if (journal_ == nullptr) {
      const Status applied = store.ApplyMove(BlockMove{
          .block = ref,
          .from_slot = 0,
          .to_slot = 0,
          .from_physical = current,
          .to_physical = target,
      });
      SCADDAR_CHECK(applied.ok());
    } else if (io_ != nullptr) {
      // Locations flip only after this loop, so a duplicate entry for a
      // block staged earlier this round still reads the old location. Give
      // its bandwidth back; retry it next round if it now wants another
      // target.
      const StatusOr<PhysicalDiskId> staged_to = store.StagedTarget(ref);
      if (staged_to.ok()) {
        ++src->second;
        ++dst->second;
        if (*staged_to != target) {
          PushRef(ref);
        }
        continue;
      }
      // Two-phase stage pass: log the intent and allocate the staged slot;
      // the bytes move (and the copied/commit records follow) after the
      // loop, once the engine has pushed the whole round's copies down.
      const int64_t entry = journal_->Begin(ref, current, target);
      if (crash_at(MovePhase::kIntentLogged)) {
        return moved;
      }
      const Status staged = store.StageCopy(ref, target);
      if (!staged.ok() && staged.code() == StatusCode::kUnavailable) {
        // The backend refused the stage (disk open failure and friends):
        // transient, like a failed transfer — close the intent and retry.
        journal_->MarkAborted(entry);
        disks.GetDisk(current).value()->RecordTransientError();
        disks.GetDisk(target).value()->RecordTransientError();
        ++transient_errors_;
        PushRef(ref);
        continue;
      }
      SCADDAR_CHECK(staged.ok());
      if (crash_at(MovePhase::kCopyStaged)) {
        return moved;
      }
      staged_moves.push_back(StagedMove{
          entry, ref, current, target,
          injector != nullptr ? injector->current_move() : -1});
      continue;  // Transfers are recorded when the copy lands.
    } else {
      // The write-ahead protocol. Each `crash_at` is the boundary right
      // after a durable write; dying at any of them leaves a state
      // `MoveJournal::Recover` replays to the same final placement.
      const int64_t entry = journal_->Begin(ref, current, target);
      if (crash_at(MovePhase::kIntentLogged)) {
        return moved;
      }
      SCADDAR_CHECK(store.StageCopy(ref, target).ok());
      if (crash_at(MovePhase::kCopyStaged)) {
        return moved;
      }
      journal_->MarkCopied(entry);
      if (crash_at(MovePhase::kCopyLogged)) {
        return moved;
      }
      SCADDAR_CHECK(store.CommitStagedMove(ref, current, target).ok());
      if (crash_at(MovePhase::kLocationFlipped)) {
        return moved;
      }
      journal_->MarkCommitted(entry);
      if (crash_at(MovePhase::kCommitLogged)) {
        return moved;
      }
    }
    disks.GetDisk(current).value()->RecordMigrationTransfers(1);
    disks.GetDisk(target).value()->RecordMigrationTransfers(1);
    ++moved;
    ++total_moved_;
  }

  // Two-phase commit pass: land the round's staged copies — batched source
  // reads, batched target writes (one submission per disk each), one flush
  // per touched disk — then walk the stage order. Copies the backend failed
  // abort and re-queue; intact ones complete the write-ahead protocol,
  // where "copied" now genuinely means durable bytes.
  if (io_ != nullptr && !staged_moves.empty()) {
    std::vector<BlockRef> failed;
    SCADDAR_CHECK(io_->FinishMigrationRound(&failed).ok());
    const auto copy_failed = [&failed](BlockRef ref) {
      return std::find(failed.begin(), failed.end(), ref) != failed.end();
    };
    for (const StagedMove& m : staged_moves) {
      if (injector != nullptr) {
        // Crash events name moves by ordinal; point the injector back at
        // this move for the commit-side phase boundaries.
        injector->ResumeMove(m.ordinal);
      }
      if (copy_failed(m.ref)) {
        SCADDAR_CHECK(store.AbortStagedCopy(m.ref).ok());
        journal_->MarkAborted(m.entry);
        disks.GetDisk(m.from).value()->RecordTransientError();
        disks.GetDisk(m.to).value()->RecordTransientError();
        ++transient_errors_;
        PushRef(m.ref);
        continue;
      }
      journal_->MarkCopied(m.entry);
      if (crash_at(MovePhase::kCopyLogged)) {
        return moved;
      }
      SCADDAR_CHECK(store.CommitStagedMove(m.ref, m.from, m.to).ok());
      if (crash_at(MovePhase::kLocationFlipped)) {
        return moved;
      }
      journal_->MarkCommitted(m.entry);
      if (crash_at(MovePhase::kCommitLogged)) {
        return moved;
      }
      disks.GetDisk(m.from).value()->RecordMigrationTransfers(1);
      disks.GetDisk(m.to).value()->RecordMigrationTransfers(1);
      ++moved;
      ++total_moved_;
    }
  }
  return moved;
}

int64_t MigrationExecutor::RunRoundScalar(
    std::unordered_map<PhysicalDiskId, int64_t>& leftover, BlockStore& store,
    DiskArray& disks, const PlacementPolicy& policy) {
  int64_t moved = 0;
  // One pass over the queue: move what bandwidth permits, requeue the rest
  // in order.
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
    auto src = leftover.find(*current);
    auto dst = leftover.find(target);
    if (src == leftover.end() || dst == leftover.end() || src->second <= 0 ||
        dst->second <= 0) {
      PushRef(ref);  // No bandwidth this round; retry later.
      continue;
    }
    --src->second;
    --dst->second;
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

}  // namespace scaddar
