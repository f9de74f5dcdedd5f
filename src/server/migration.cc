#include "server/migration.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "faults/injector.h"
#include "storage/block_io.h"
#include "storage/move_journal.h"

namespace scaddar {

namespace {

/// "No queue position": past every slot a round can reach.
constexpr int32_t kNoSlot = std::numeric_limits<int32_t>::max();

}  // namespace

void MigrationExecutor::Push(BlockRef ref) {
  SCADDAR_CHECK(entries_.size() < static_cast<size_t>(kNoSlot));
  const auto slot = static_cast<int32_t>(entries_.size());
  entries_.push_back(Entry{ref, kUnresolved, slot});
  ++live_;
  dirty_ = true;
}

void MigrationExecutor::Retire(int32_t slot) {
  entries_[static_cast<size_t>(slot)].bucket = kRetired;
  --live_;
}

std::vector<BlockRef> MigrationExecutor::QueueSnapshot() const {
  std::vector<BlockRef> refs;
  refs.reserve(static_cast<size_t>(live_));
  for (const Entry& entry : entries_) {
    if (entry.bucket != kRetired) {
      refs.push_back(entry.ref);
    }
  }
  return refs;
}

void MigrationExecutor::ClearQueue() {
  entries_.clear();
  buckets_.clear();
  active_.clear();
  in_place_.clear();
  live_ = 0;
}

void MigrationExecutor::Reset() {
  ClearQueue();
  crashed_ = false;
}

void MigrationExecutor::EnqueuePlan(const MovePlan& plan) {
  for (const BlockMove& move : plan.moves()) {
    Push(move.block);
  }
}

void MigrationExecutor::EnqueueReconciliation(const BlockStore& store,
                                              const PlacementPolicy& policy) {
  std::vector<PhysicalDiskId> targets;
  for (const auto& [id, x0] : policy.objects_view()) {
    // The row and the batch AF() both hold every copy of every block.
    const StatusOr<std::span<const PhysicalDiskId>> row = store.LocationsOf(id);
    SCADDAR_CHECK(row.ok());
    policy.LocateAllBlocks(id, targets);
    SCADDAR_CHECK(targets.size() == row->size());
    const auto blocks = static_cast<BlockIndex>(row->size());
    for (BlockIndex i = 0; i < blocks; ++i) {
      if ((*row)[static_cast<size_t>(i)] != targets[static_cast<size_t>(i)]) {
        Push(BlockRef{id, i});
      }
    }
  }
}

bool MigrationExecutor::Stale(const BlockStore& store,
                              const PlacementPolicy& policy) const {
  return dirty_ || placement_key_ != policy.placement_key() ||
         store_revision_ != store.mutation_revision();
}

void MigrationExecutor::Resolve(const BlockStore& store,
                                const PlacementPolicy& policy,
                                const DiskArray& disks, bool compact) {
  if (compact && entries_.size() > static_cast<size_t>(live_)) {
    std::erase_if(entries_,
                  [](const Entry& entry) { return entry.bucket == kRetired; });
  }
  // Group the live entries by block, copies in queue order. Retired entries
  // keep a slot until the next compaction but leave every ring.
  struct Key {
    BlockRef ref;
    int32_t slot;
  };
  const auto num_slots = static_cast<int32_t>(entries_.size());
  std::vector<Key> order;
  order.reserve(static_cast<size_t>(live_));
  for (int32_t slot = 0; slot < num_slots; ++slot) {
    Entry& entry = entries_[static_cast<size_t>(slot)];
    entry.next_copy = slot;
    if (entry.bucket != kRetired) {
      order.push_back(Key{entry.ref, slot});
    }
  }
  // Pushes come in runs already in (object, block) order, one per
  // reconciliation scan or plan, so merge the runs pairwise instead of
  // sorting. The merge is stable: copies of a block stay in queue order.
  const auto by_block = [](const Key& x, const Key& y) {
    return std::tie(x.ref.object, x.ref.block) <
           std::tie(y.ref.object, y.ref.block);
  };
  std::vector<size_t> runs = {0};  // Run bounds.
  for (size_t k = 1; k < order.size(); ++k) {
    if (by_block(order[k], order[k - 1])) {
      runs.push_back(k);
    }
  }
  runs.push_back(order.size());
  const auto at = [&order](size_t k) {
    return order.begin() + static_cast<ptrdiff_t>(k);
  };
  while (runs.size() > 2) {
    size_t merged = 0;
    for (size_t r = 0; r < runs.size() - 1; r += 2) {
      if (r + 2 < runs.size()) {
        std::inplace_merge(at(runs[r]), at(runs[r + 1]), at(runs[r + 2]),
                           by_block);
      }
      runs[merged++] = runs[r];
    }
    runs[merged++] = order.size();
    runs.resize(merged);
  }

  // One batch AF() pass per object over its distinct in-range blocks; the
  // source is the live store row.
  buckets_.clear();
  std::map<std::tuple<PhysicalDiskId, PhysicalDiskId, PhysicalDiskId>,
           int32_t>
      bucket_of;
  const bool any_failed = !disks.failed_ids().empty();
  std::vector<BlockIndex> blocks;
  std::vector<PhysicalDiskId> targets;
  const auto ref_at = [&order](size_t k) -> const BlockRef& {
    return order[k].ref;
  };
  for (size_t i = 0; i < order.size();) {
    const ObjectId object = ref_at(i).object;
    size_t j = i;
    while (j < order.size() && ref_at(j).object == object) {
      ++j;
    }
    // Object deleted while its moves were queued: every entry retires.
    const StatusOr<std::span<const PhysicalDiskId>> row =
        store.LocationsOf(object);
    const std::span<const PhysicalDiskId> locations =
        row.ok() ? *row : std::span<const PhysicalDiskId>();
    const auto in_row = [&locations](BlockIndex block) {
      return block >= 0 && block < static_cast<BlockIndex>(locations.size());
    };
    // Every copy of a block (rows `r*B + i`) holds its bytes, so a
    // transfer reads the first one not on a failed disk; with none left,
    // the block is lost.
    const int64_t copies = row.ok() ? policy.CopiesOf(object) : 1;
    const auto num_rows = static_cast<BlockIndex>(locations.size());
    const BlockIndex stride = num_rows / copies;
    const auto read_from = [&](BlockIndex block) {
      for (BlockIndex k = block % stride; k < num_rows; k += stride) {
        if (!disks.IsFailed(locations[static_cast<size_t>(k)])) {
          return locations[static_cast<size_t>(k)];
        }
      }
      return PhysicalDiskId{-1};
    };
    blocks.clear();
    for (size_t k = i; k < j; ++k) {
      const BlockIndex block = ref_at(k).block;
      if (in_row(block) && (blocks.empty() || blocks.back() != block)) {
        blocks.push_back(block);
      }
    }
    targets.resize(blocks.size());
    if (!blocks.empty()) {
      policy.LocateMany(object, std::span<const BlockIndex>(blocks),
                        std::span<PhysicalDiskId>(targets));
    }
    size_t next_target = 0;
    for (size_t k = i; k < j;) {
      const BlockIndex block = ref_at(k).block;
      size_t end = k + 1;
      while (end < j && ref_at(end).block == block) {
        ++end;
      }
      int32_t bucket = kInPlace;
      if (in_row(block)) {
        const PhysicalDiskId source = locations[static_cast<size_t>(block)];
        const PhysicalDiskId target = targets[next_target++];
        const PhysicalDiskId via =
            copies > 1 || any_failed ? read_from(block) : source;
        // A lost block (`via` < 0) stays in place: its entries leave the
        // queue.
        if (via >= 0 && source != target) {
          const auto [it, inserted] = bucket_of.try_emplace(
              {source, via, target}, static_cast<int32_t>(buckets_.size()));
          if (inserted) {
            Bucket& fresh = buckets_.emplace_back();
            fresh.source = source;
            fresh.via = via;
            fresh.target = target;
          }
          bucket = it->second;
        }
      }
      for (size_t c = k; c < end; ++c) {
        Entry& entry = entries_[static_cast<size_t>(order[c].slot)];
        entry.bucket = bucket;
        entry.next_copy = order[c + 1 < end ? c + 1 : k].slot;
      }
      k = end;
    }
    i = j;
  }

  // Lay the buckets out in queue order; the active list comes out ordered
  // by each bucket's first slot.
  in_place_.clear();
  active_.clear();
  for (int32_t slot = 0; slot < num_slots; ++slot) {
    const int32_t bucket = entries_[static_cast<size_t>(slot)].bucket;
    if (bucket >= 0) {
      std::vector<int32_t>& slots = buckets_[static_cast<size_t>(bucket)].slots;
      if (slots.empty()) {
        active_.emplace_back(slot, bucket);
      }
      slots.push_back(slot);
    } else if (bucket == kInPlace) {
      in_place_.push_back(slot);
    }
  }
  dirty_ = false;
  placement_key_ = policy.placement_key();
  store_revision_ = store.mutation_revision();
}

int32_t MigrationExecutor::PeekBucket(int32_t b) {
  Bucket& bucket = buckets_[static_cast<size_t>(b)];
  while (bucket.next < bucket.slots.size()) {
    const int32_t slot = bucket.slots[bucket.next];
    if (entries_[static_cast<size_t>(slot)].bucket == b) {
      return slot;
    }
    ++bucket.next;
  }
  return kNoSlot;
}

void MigrationExecutor::RetireCopies(int32_t slot, int32_t end) {
  for (int32_t copy = entries_[static_cast<size_t>(slot)].next_copy;
       copy != slot; copy = entries_[static_cast<size_t>(copy)].next_copy) {
    Entry& entry = entries_[static_cast<size_t>(copy)];
    if (entry.bucket < 0) {
      continue;  // Retired, already in place, or not resolved yet.
    }
    if (copy > slot && copy < end) {
      Retire(copy);
    } else {
      entry.bucket = kInPlace;
      in_place_.push_back(copy);
    }
  }
}

void MigrationExecutor::RetireInPlace(int32_t after, int32_t end) {
  size_t keep = 0;
  for (const int32_t slot : in_place_) {
    if (entries_[static_cast<size_t>(slot)].bucket != kInPlace) {
      continue;
    }
    if (slot > after && slot < end) {
      Retire(slot);
    } else {
      in_place_[keep++] = slot;
    }
  }
  in_place_.resize(keep);
}

int64_t MigrationExecutor::RunRound(std::span<int64_t> budget,
                                    BlockStore& store, DiskArray& disks,
                                    const PlacementPolicy& policy) {
  if (crashed_) {
    return 0;  // The process is "dead" until SimulateCrashRestart.
  }
  if (live_ == 0) {
    return 0;
  }
  if (Stale(store, policy)) {
    Resolve(store, policy, disks, /*compact=*/true);
  }
  FaultInjector* const injector = disks.fault_injector();
  // Entries a fault hook queues mid-round wait for the next round.
  const auto end = static_cast<int32_t>(entries_.size());
  // Entries whose block already sits on its target, or whose object or
  // block is gone, retire without bandwidth.
  RetireInPlace(/*after=*/-1, end);
  const auto has_budget = [budget](PhysicalDiskId disk) {
    return disk >= 0 && disk < static_cast<PhysicalDiskId>(budget.size()) &&
           budget[static_cast<size_t>(disk)] > 0;
  };
  const auto spend = [budget](PhysicalDiskId disk, int64_t units) {
    budget[static_cast<size_t>(disk)] -= units;
  };

  // The round's pass walks the queue in order, merging two sources of
  // bucket heads: the active list, already in queue order, and a min-heap
  // of the buckets the pass re-enters. A bucket whose two disks do not
  // both have budget drops out for the round when the pass reaches it
  // (budgets only fall during a pass), and its entries keep their queue
  // positions without being visited.
  size_t next_listed = 0;  // active_[next_listed] is the next listed head.
  std::vector<Head> reentered;
  const auto can_serve = [&](int32_t b) {
    const Bucket& bucket = buckets_[static_cast<size_t>(b)];
    return has_budget(bucket.via) && has_budget(bucket.target);
  };
  // Queue position of bucket `b`'s next entry this round, or kNoSlot.
  const auto due = [&](int32_t b) {
    if (!can_serve(b)) {
      return kNoSlot;
    }
    const int32_t slot = PeekBucket(b);
    return slot < end ? slot : kNoSlot;
  };
  const auto reenter = [&](int32_t b) {
    const int32_t slot = due(b);
    if (slot != kNoSlot) {
      reentered.emplace_back(slot, b);
      std::push_heap(reentered.begin(), reentered.end(), std::greater<>());
    }
  };
  // The next head in queue order; false once the pass is through.
  const auto pop = [&](Head& head) {
    const bool listed = next_listed < active_.size();
    if (!reentered.empty() &&
        (!listed || reentered.front() < active_[next_listed])) {
      std::pop_heap(reentered.begin(), reentered.end(), std::greater<>());
      head = reentered.back();
      reentered.pop_back();
      return true;
    }
    if (!listed) {
      return false;
    }
    head = active_[next_listed++];
    return true;
  };
  // Restarts the pass just after queue position `after` over the buckets a
  // mid-round re-resolve built; the heap carries all of them.
  const auto reseed = [&](int32_t after) {
    next_listed = active_.size();
    reentered.clear();
    for (const Head& lane : active_) {
      Bucket& bucket = buckets_[static_cast<size_t>(lane.second)];
      bucket.next = static_cast<size_t>(
          std::upper_bound(bucket.slots.begin(), bucket.slots.end(), after) -
          bucket.slots.begin());
      reenter(lane.second);
    }
  };

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
  const auto record_transient_error = [&](PhysicalDiskId from,
                                          PhysicalDiskId to) {
    disks.GetDisk(from).value()->RecordTransientError();
    disks.GetDisk(to).value()->RecordTransientError();
    ++transient_errors_;
  };
  int64_t moved = 0;
  const auto record_move = [&](PhysicalDiskId from, PhysicalDiskId to) {
    disks.GetDisk(from).value()->RecordMigrationTransfers(1);
    disks.GetDisk(to).value()->RecordMigrationTransfers(1);
    ++moved;
    ++total_moved_;
  };

  staged_.clear();
  bool resolved_mid_round = false;
  for (Head head; pop(head);) {
    const int32_t slot = head.first;
    int32_t b = head.second;
    if (!can_serve(b)) {
      continue;  // Dry: the rest of the bucket waits for a later round.
    }
    if (entries_[static_cast<size_t>(slot)].bucket != b) {
      reenter(b);  // Left the bucket after it was listed.
      continue;
    }
    ++buckets_[static_cast<size_t>(b)].next;
    reenter(b);

    const BlockRef ref = entries_[static_cast<size_t>(slot)].ref;
    PhysicalDiskId current = buckets_[static_cast<size_t>(b)].source;
    PhysicalDiskId via = buckets_[static_cast<size_t>(b)].via;
    PhysicalDiskId target = buckets_[static_cast<size_t>(b)].target;
    if (injector != nullptr) {
      injector->BeginMove();  // May fire a hook that applies a scaling op.
      // Epoch guard: if the hook changed the placement, the store or the
      // queue, re-resolve every entry and restart the pass right after
      // this one, so no move chases a stale target.
      if (Stale(store, policy)) {
        Resolve(store, policy, disks, /*compact=*/false);
        resolved_mid_round = true;
        reseed(slot);
        RetireInPlace(slot, end);
        b = entries_[static_cast<size_t>(slot)].bucket;
        if (b == kInPlace) {
          Retire(slot);  // The new epoch wants this block where it is.
          continue;
        }
        current = buckets_[static_cast<size_t>(b)].source;
        via = buckets_[static_cast<size_t>(b)].via;
        target = buckets_[static_cast<size_t>(b)].target;
        if (!has_budget(via) || !has_budget(target)) {
          continue;  // No bandwidth this round for the new target.
        }
      }
    }
    if (resolved_mid_round && store.StagedTarget(ref).ok()) {
      // The re-resolve read the rows of the blocks staged before it, which
      // flip only in the commit pass, and rebuilt their copy rings. A copy
      // of one waits for the next round's resolve.
      continue;
    }
    spend(via, 1);
    spend(target, 1);
    if (injector != nullptr && injector->FailTransfer(via, target)) {
      // Transient I/O error: the attempt burned its bandwidth; the entry
      // stays queued and retries in a later round (the executor's backoff).
      record_transient_error(via, target);
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
      record_move(via, target);
    } else {
      // The stage half of the write-ahead protocol: log the intent and
      // stage the copy. Each `crash_at` is the boundary right after a
      // durable write; dying at any of them leaves a state
      // `MoveJournal::Recover` replays to the same final placement.
      const int64_t entry = journal_->Begin(ref, current, target);
      if (crash_at(MovePhase::kIntentLogged)) {
        return moved;
      }
      const Status staged = store.StageCopy(ref, target);
      if (!staged.ok() && staged.code() == StatusCode::kUnavailable) {
        // The backend refused the stage (disk open failure and friends):
        // transient, like a failed transfer — close the intent and retry.
        journal_->MarkAborted(entry);
        record_transient_error(via, target);
        continue;
      }
      SCADDAR_CHECK(staged.ok());
      if (crash_at(MovePhase::kCopyStaged)) {
        return moved;
      }
      staged_.push_back(StagedMove{
          entry, ref, current, via, target,
          injector != nullptr ? injector->current_move() : -1});
    }
    store_revision_ = store.mutation_revision();
    Retire(slot);
    RetireCopies(slot, end);
  }

  // The commit pass. With an engine attached, the round's staged copies
  // land first — batched source reads, then batched target writes (one
  // drain each), one flush per touched disk — and copies the backend
  // failed abort and go to the back of the queue. Every other move, in
  // stage order, is marked copied, flips its location and commits.
  if (!staged_.empty()) {
    std::vector<BlockRef> failed;
    if (io_ != nullptr) {
      SCADDAR_CHECK(io_->FinishMigrationRound(&failed).ok());
    }
    // Crash events name moves by the ordinal they staged at: point the
    // injector back at the move for each commit-side boundary, then at the
    // pass's last attempt again, so later moves keep counting from there.
    const int64_t attempted =
        injector != nullptr ? injector->current_move() : -1;
    const auto crash_after = [&](const StagedMove& m, MovePhase phase) {
      if (injector == nullptr) {
        return false;
      }
      injector->ResumeMove(m.ordinal);
      const bool crashed = crash_at(phase);
      injector->ResumeMove(attempted);
      return crashed;
    };
    for (const StagedMove& m : staged_) {
      if (std::find(failed.begin(), failed.end(), m.ref) != failed.end()) {
        SCADDAR_CHECK(store.AbortStagedCopy(m.ref).ok());
        journal_->MarkAborted(m.entry);
        record_transient_error(m.via, m.to);
        Push(m.ref);
        continue;
      }
      journal_->MarkCopied(m.entry);
      if (crash_after(m, MovePhase::kCopyLogged)) {
        return moved;
      }
      SCADDAR_CHECK(store.CommitStagedMove(m.ref, m.from, m.to).ok());
      if (crash_after(m, MovePhase::kLocationFlipped)) {
        return moved;
      }
      journal_->MarkCommitted(m.entry);
      if (crash_after(m, MovePhase::kCommitLogged)) {
        return moved;
      }
      record_move(m.via, m.to);
    }
    store_revision_ = store.mutation_revision();
  }

  // Drop what the pass consumed from each bucket; the entries it left in
  // place (failed transfers, refused stages) keep their queue order ahead
  // of the unvisited rest. A bucket with nothing left leaves the active
  // list; one the pass moved through is listed again at its new first
  // slot, merged back in queue order.
  std::vector<Head> moved_on;
  size_t kept = 0;
  for (const Head& lane : active_) {
    Bucket& bucket = buckets_[static_cast<size_t>(lane.second)];
    if (bucket.next == bucket.head) {
      active_[kept++] = lane;
      continue;
    }
    const int32_t b = lane.second;
    size_t keep = bucket.next;
    for (size_t i = bucket.next; i-- > bucket.head;) {
      if (entries_[static_cast<size_t>(bucket.slots[i])].bucket == b) {
        bucket.slots[--keep] = bucket.slots[i];
      }
    }
    bucket.head = keep;
    if (bucket.head == bucket.slots.size()) {
      continue;
    }
    if (2 * bucket.head > bucket.slots.size()) {
      bucket.slots.erase(bucket.slots.begin(),
                         bucket.slots.begin() +
                             static_cast<ptrdiff_t>(bucket.head));
      bucket.head = 0;
    }
    bucket.next = bucket.head;
    moved_on.emplace_back(bucket.slots[bucket.head], b);
  }
  std::sort(moved_on.begin(), moved_on.end());
  active_.resize(kept);
  active_.insert(active_.end(), moved_on.begin(), moved_on.end());
  std::inplace_merge(active_.begin(),
                     active_.begin() + static_cast<ptrdiff_t>(kept),
                     active_.end());
  if (resolved_mid_round) {
    // The re-resolve bucketed blocks this round staged by their rows before
    // the flip; resolve afresh before the next pass trusts any bucket.
    dirty_ = true;
  }
  if (live_ == 0) {
    ClearQueue();
  }
  return moved;
}

}  // namespace scaddar
