#ifndef SCADDAR_STORAGE_BLOCK_IO_H_
#define SCADDAR_STORAGE_BLOCK_IO_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/types.h"
#include "storage/storage_backend.h"
#include "util/statusor.h"

namespace scaddar {

/// Engine-level transfer outcomes (the backend's `IoStats` counts raw ops;
/// these count what the server cares about).
struct EngineIoStats {
  int64_t serve_reads = 0;     // Serve reads that came back intact.
  int64_t serve_errors = 0;    // Serve reads lost to EIO/short/corruption.
  int64_t copy_failures = 0;   // Staged copies that failed and were reported
                               // back to the migration executor.
  int64_t blocks_placed = 0;   // Block images written by PlaceObject.
};

/// Bridges the placement layers' `(object, block) -> disk` world to a
/// `StorageBackend`'s `(disk, slot) -> bytes` world. The engine owns the
/// authoritative slot map (mirroring `BlockStore`'s location map one level
/// down), generates deterministic block images so any byte on any medium
/// can be re-derived and verified from `(content_seed, object, block)`
/// alone, and drives all I/O through the backend's batched submit/drain
/// contract:
///
///  - Serving: `EnqueueServeRead` per delivered block, `FinishServeRound`
///    once per round — a whole round's reads go down in one batched
///    submission (one for every disk on the io_uring backend).
///  - Migration: `StageCopy` just allocates the staged slot (metadata);
///    `FinishMigrationRound` performs every staged copy of the round —
///    batched source reads, then batched target writes, then one flush per
///    touched disk — and reports which copies failed so the executor can
///    abort and re-queue them. Staged bytes are therefore *volatile* until
///    `FinishMigrationRound` returns, which is exactly why
///    `MoveJournal::Recover` validates staged images before rolling a move
///    forward. This is the only way bytes move between disks.
///
/// Thread safety: none; the engine runs on the coordinator thread between
/// the scheduler's parallel phases, like every other mutation.
class BlockIoEngine {
 public:
  struct Options {
    std::string spec = "mem";    // MakeStorageBackend spec string.
    int64_t block_bytes = 4096;
    int queue_depth = 32;
    uint64_t content_seed = 0x5cadda;
  };

  static StatusOr<std::unique_ptr<BlockIoEngine>> Create(
      const Options& options);
  ~BlockIoEngine();

  BlockIoEngine(const BlockIoEngine&) = delete;
  BlockIoEngine& operator=(const BlockIoEngine&) = delete;

  /// Writes the canonical image of `ref` — 16-byte header (tagged object,
  /// block) plus a splitmix64 payload keyed on (seed, object, block) — into
  /// `out[0, len)`.
  static void FillImage(BlockRef ref, uint64_t seed, std::byte* out,
                        int64_t len);

  /// True when `data[0, len)` is exactly the canonical image of `ref`.
  static bool CheckImage(BlockRef ref, uint64_t seed, const std::byte* data,
                         int64_t len);

  StorageBackend& backend() { return *backend_; }
  const StorageBackend& backend() const { return *backend_; }
  const EngineIoStats& stats() const { return stats_; }
  uint64_t content_seed() const { return options_.content_seed; }
  int64_t block_bytes() const { return options_.block_bytes; }

  // --- Mutations (mirrors of the BlockStore operations). -----------------

  /// Writes block `i`'s image to a fresh slot on `locations[i]` for every
  /// block; batched with intermediate drains, synchronous overall.
  Status PlaceObject(ObjectId id, std::span<const PhysicalDiskId> locations);

  /// Releases every slot (authoritative and staged) the object holds.
  Status DropObject(ObjectId id);

  /// Allocates the staged slot on `to` and queues the copy for
  /// `FinishMigrationRound`. No bytes move yet.
  Status StageCopy(BlockRef ref, PhysicalDiskId from, PhysicalDiskId to);

  /// Promotes the staged slot to authoritative and frees the source slot.
  Status CommitStaged(BlockRef ref, PhysicalDiskId from, PhysicalDiskId to);

  /// Frees the staged slot (recovery rollback / failed copy).
  Status AbortStaged(BlockRef ref);

  /// Reads the staged copy of `ref` back and verifies it against the
  /// canonical image: false for torn, short or never-landed bytes. The
  /// recovery gate for rolling a kCopied journal entry forward.
  StatusOr<bool> ValidateStagedImage(BlockRef ref);

  // --- Round hooks. ------------------------------------------------------

  /// Queues the serve read for one delivered block into the registered
  /// arena. Auto-drains when the arena fills mid-round.
  Status EnqueueServeRead(BlockRef ref, PhysicalDiskId disk);

  /// Submits and drains the round's serve reads in one batch, verifying
  /// each returned image header.
  Status FinishServeRound();

  /// Executes every copy staged since the last call: batched source reads,
  /// then batched target writes (one drain each), then one flush per
  /// touched target disk. Appends the refs whose copy failed (injected
  /// EIO, short write, corrupt source) to `failed` — their staged slots
  /// still exist and the caller is expected to abort them.
  Status FinishMigrationRound(std::vector<BlockRef>* failed);

  // --- Introspection & recovery. -----------------------------------------

  /// Synchronous read of `ref`'s authoritative image (tests, tooling).
  StatusOr<std::vector<std::byte>> ReadImage(BlockRef ref);

  int64_t pending_copies() const {
    return static_cast<int64_t>(pending_copies_.size());
  }

  /// Text form of the slot layout ("layout-v1"); the durable metadata a
  /// real deployment would keep next to the journal.
  std::string SerializeLayout() const;
  Status RestoreLayout(std::string_view text);

  /// What a process crash does to the engine: queued-but-unexecuted staged
  /// copies vanish (their bytes never reached the medium), the slot layout
  /// round-trips through its serialized form, and every disk is closed and
  /// reopened through the backend.
  Status SimulateCrashRestart();

 private:
  struct SlotLoc {
    PhysicalDiskId disk = 0;
    int64_t slot = 0;
  };

  struct DiskLayout {
    int64_t next_slot = 0;
    std::vector<int64_t> free_slots;
  };

  struct FreeDeleter {
    void operator()(std::byte* p) const;
  };
  using AlignedPtr = std::unique_ptr<std::byte[], FreeDeleter>;

  struct PendingCopy {
    BlockRef ref;
    SlotLoc from;
    SlotLoc to;
    AlignedPtr buf;
    bool failed = false;
  };

  /// What one outstanding backend token means to the engine.
  struct PendingTag {
    enum class Kind { kServeRead, kCopyRead, kCopyWrite, kPlaceWrite, kSync };
    Kind kind = Kind::kSync;
    BlockRef ref;
    size_t index = 0;  // Arena buffer / pending-copy index.
  };

  explicit BlockIoEngine(const Options& options);
  Status Init();

  AlignedPtr AllocBlock() const;
  Status EnsureDisk(PhysicalDiskId disk);
  int64_t AllocSlot(PhysicalDiskId disk);
  void FreeSlot(SlotLoc loc);
  StatusOr<SlotLoc> AuthoritativeLoc(BlockRef ref) const;

  /// Drains the backend and routes every completion by its tag.
  Status DrainAndDispatch();

  /// Enqueue + submit + drain one read; returns ok(full transfer) or error.
  StatusOr<bool> SyncRead(SlotLoc loc, std::byte* buf);

  Options options_;
  std::unique_ptr<StorageBackend> backend_;
  AlignedPtr arena_;    // kServeArenaBlocks * block_bytes, registered.
  AlignedPtr scratch_;  // One block, for the synchronous reads.

  std::unordered_map<ObjectId, std::vector<SlotLoc>> objects_;
  std::unordered_map<ObjectId, std::unordered_map<BlockIndex, SlotLoc>>
      staged_;
  std::unordered_map<PhysicalDiskId, DiskLayout> layouts_;
  std::unordered_set<PhysicalDiskId> open_disks_;

  std::vector<PendingCopy> pending_copies_;
  std::unordered_map<int64_t, PendingTag> pending_;  // token -> meaning
  std::unordered_map<int64_t, IoCompletion> sync_results_;
  size_t serve_in_flight_ = 0;
  int64_t place_write_failures_ = 0;

  EngineIoStats stats_;
};

}  // namespace scaddar

#endif  // SCADDAR_STORAGE_BLOCK_IO_H_
