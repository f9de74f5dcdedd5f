#ifndef SCADDAR_SERVER_MIGRATION_H_
#define SCADDAR_SERVER_MIGRATION_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/redistribution.h"
#include "core/types.h"
#include "placement/policy.h"
#include "storage/block_store.h"
#include "storage/disk_array.h"

namespace scaddar {

class BlockIoEngine;
class FaultInjector;
class MoveJournal;

/// Executes block redistribution *online*, using only bandwidth left over
/// after stream service (Section 1: scaling must not interrupt the CM
/// server). The queue holds block references, not (source, destination)
/// pairs: each block moves from wherever it currently is to the placement
/// layer's *latest* target, so overlapping scaling operations and full
/// redistributions compose correctly — stale queue entries become no-ops
/// instead of moving blocks to outdated locations. Serving asks the
/// executor nothing: reads go to the store rows, which its moves update in
/// place.
///
/// The queue is an indexed pending set. Every entry keeps its queue
/// position and is resolved once to a (source, target) pair: the store row
/// and a batch `AF()` pass per object. Entries are bucketed by that pair,
/// so a round merges, in queue order, only the buckets whose two disks
/// both still have budget; entries that retire for free (block already on
/// its target, object or block gone) leave when the round starts. A round
/// costs one look at each bucket that still holds entries plus the moves
/// it makes, not what is queued (RO1 caps the moves at `z_j`; the backlog
/// can be far larger). The buckets with entries left form a list kept in
/// queue order across rounds: a round walks the list, merging it with a
/// min-heap of only the buckets it re-enters, then merges the buckets it
/// moved through back in at their new first entries. A bucket whose
/// entries are all spent leaves the list. Resolution is redone, and
/// the retired slots compacted, only when the queue is stale: entries were
/// pushed, the placement changed (`PlacementPolicy::placement_key`), or
/// store rows changed through anything but the executor's own moves
/// (`BlockStore::mutation_revision`: `PlaceObject`/`DropObject`, journal
/// recovery, checkpoint restore). A resolve merges the queue's runs of
/// pushes, each already in block order, instead of sorting it. A block
/// queued more than once (overlapping reconciliations) keeps its
/// copies linked, so moving (journaled: staging) one copy retires the
/// others exactly when the per-entry pass the index replaced would have
/// (`tests/migration_oracle.h`).
///
/// With a `MoveJournal` attached, every transfer runs the crash-consistent
/// write-ahead protocol (intent -> stage -> copied -> flip -> commit) in
/// two passes: the round's pass logs each move's intent and stages its
/// copy, and a commit pass then marks each staged move copied, flips its
/// location and commits it, in stage order. The fault injector hanging off
/// the `DiskArray` can kill the executor at any phase boundary or fail
/// individual transfers. Without a journal the moves apply directly to the
/// store's metadata in one pass (a real backend always journals).
class MigrationExecutor {
 public:
  MigrationExecutor() = default;

  /// Attaches (or detaches, with null) the write-ahead journal. Journaled
  /// moves survive crashes: `MoveJournal::Recover` replays the journal
  /// against the store to a state where every move is fully applied or
  /// fully undone, and a reconciliation scan re-queues the undone ones.
  void AttachJournal(MoveJournal* journal) { journal_ = journal; }
  MoveJournal* journal() const { return journal_; }

  /// Attaches the real-I/O engine (requires a journal). Between a journaled
  /// round's two passes the engine lands the bytes of the round's staged
  /// copies in one read drain and one write drain
  /// (`BlockIoEngine::FinishMigrationRound`), so "copied" means durable
  /// bytes. Copies the backend failed (injected EIO, short write) are
  /// aborted and re-queued at the tail as transient errors — the real-I/O
  /// analogue of `FaultInjector::FailTransfer`.
  void AttachIoEngine(BlockIoEngine* io) { io_ = io; }
  BlockIoEngine* io_engine() const { return io_; }

  /// True after an injected crash killed a round mid-move. A crashed
  /// executor refuses further rounds until `Reset` — the in-memory process
  /// is dead; only `CmServer::SimulateCrashRestart` revives it.
  bool crashed() const { return crashed_; }

  /// Drops all volatile state (queue, crash latch) — exactly what a
  /// process restart loses. Durable state (journal, store)
  /// is untouched; callers re-seed the queue with a reconciliation scan.
  void Reset();

  /// Queues every block of an RF() plan.
  void EnqueuePlan(const MovePlan& plan);

  /// Queues every row (block copy) whose materialized location diverges
  /// from AF() — reconciliation after scaling operations and disk failures.
  /// One in-order pass over `policy.objects_view()`: targets come from the
  /// per-object batch AF() over the whole store row, copies included.
  void EnqueueReconciliation(const BlockStore& store,
                             const PlacementPolicy& policy);

  /// Spends leftover bandwidth. `budget` is indexed by physical id, as
  /// `DiskArray::BandwidthBudgets` builds it; a disk without a positive
  /// entry has none. Each transfer consumes one unit on the source and one
  /// on the destination disk, so per-destination in-flight moves are
  /// bounded by that disk's remaining budget. Decisions run in queue order;
  /// an entry whose disks have no budget left keeps its queue position.
  /// Blocks already at their current target retire for free. Returns
  /// blocks moved this round; entries queued during the round (by a fault
  /// hook) wait for the next one.
  int64_t RunRound(std::span<int64_t> budget, BlockStore& store,
                   DiskArray& disks, const PlacementPolicy& policy);

  int64_t pending() const { return live_; }

  bool idle() const { return live_ == 0; }
  int64_t total_moved() const { return total_moved_; }

  /// Transfers refused by injected transient errors (each burned its round
  /// bandwidth and stayed queued — retry in a later round is the backoff).
  int64_t transient_errors() const { return transient_errors_; }

  /// The queue contents in order (test introspection for the equivalence
  /// proofs).
  std::vector<BlockRef> QueueSnapshot() const;

 private:
  // `Entry::bucket` values other than a bucket index.
  static constexpr int32_t kRetired = -1;     // Left the queue.
  static constexpr int32_t kInPlace = -2;     // Retires for free.
  static constexpr int32_t kUnresolved = -3;  // Pushed since the last resolve.

  /// (slot, bucket): a queue position in a bucket, ordered by slot.
  using Head = std::pair<int32_t, int32_t>;

  /// One queue entry. Slots in `entries_` are queue positions.
  struct Entry {
    BlockRef ref;
    int32_t bucket = kUnresolved;
    int32_t next_copy = 0;  // Ring over the entries of the same block.
  };

  /// The entries resolved to one (source, via, target) triple, in queue
  /// order. `source` is where the row says the copy is; `via` is the disk
  /// read and charged for the transfer: the block's first copy not on a
  /// failed disk (every copy holds the same bytes), which for a one-copy
  /// object is the source itself. `slots` may still list entries that left
  /// the bucket since; they are dropped when a round passes them.
  struct Bucket {
    PhysicalDiskId source = 0;
    PhysicalDiskId via = 0;
    PhysicalDiskId target = 0;
    std::vector<int32_t> slots;
    size_t head = 0;  // slots[0, head) are spent.
    size_t next = 0;  // Round cursor into slots; `head` between rounds.
  };

  /// A journaled move the round's pass staged; the commit pass completes
  /// it.
  struct StagedMove {
    int64_t entry = 0;  // Journal id.
    BlockRef ref;
    PhysicalDiskId from = 0;
    PhysicalDiskId via = 0;
    PhysicalDiskId to = 0;
    int64_t ordinal = -1;  // Injector move ordinal at stage time.
  };

  void Push(BlockRef ref);
  void Retire(int32_t slot);
  bool Stale(const BlockStore& store, const PlacementPolicy& policy) const;
  /// Resolves every queued entry to its bucket, after dropping the
  /// retired slots when `compact`. A row with no healthy copy of its block
  /// left is lost: its entries retire, and its row keeps naming the failed
  /// disk, so reads of it hiccup.
  void Resolve(const BlockStore& store, const PlacementPolicy& policy,
               const DiskArray& disks, bool compact);
  /// Queue position of bucket `b`'s next entry at or after its cursor
  /// (INT32_MAX when none), skipping entries that left the bucket.
  int32_t PeekBucket(int32_t b);
  /// Retires the other entries of a block that just moved or staged: now
  /// for the copies in (`slot`, `end`), which the round's pass would reach,
  /// and at the next round's start for the rest (the pass already went by
  /// them, or they arrived mid-round).
  void RetireCopies(int32_t slot, int32_t end);
  /// Retires the kInPlace entries in (`after`, `end`); keeps the others
  /// for the next round.
  void RetireInPlace(int32_t after, int32_t end);
  void ClearQueue();

  std::vector<Entry> entries_;
  std::vector<Bucket> buckets_;
  /// The buckets with unspent slots, each at its first one (which may have
  /// left the bucket since), in queue order.
  std::vector<Head> active_;
  std::vector<int32_t> in_place_;  // kInPlace slots.
  std::vector<StagedMove> staged_;  // This round's, in stage order.
  int64_t live_ = 0;  // Entries not kRetired; the rest hold a slot until
                      // the next resolve compacts them.
  bool dirty_ = false;
  uint64_t placement_key_ = 0;
  int64_t store_revision_ = -1;
  MoveJournal* journal_ = nullptr;  // Not owned; may be null.
  BlockIoEngine* io_ = nullptr;     // Not owned; may be null.
  bool crashed_ = false;
  int64_t total_moved_ = 0;
  int64_t transient_errors_ = 0;
};

}  // namespace scaddar

#endif  // SCADDAR_SERVER_MIGRATION_H_
