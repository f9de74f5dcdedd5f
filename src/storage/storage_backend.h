#ifndef SCADDAR_STORAGE_STORAGE_BACKEND_H_
#define SCADDAR_STORAGE_STORAGE_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "util/statusor.h"

namespace scaddar {

/// Opcode of one queued block-image transfer.
enum class IoOp { kRead, kWrite };

/// Injected outcome for one physical transfer, decided by the fault hook
/// *before* the backend executes it. `kEio` completes the op immediately
/// with an I/O error and never touches the medium; `kShort` executes the
/// transfer with roughly half the requested length, so the completion
/// reports fewer bytes than the block image needs — the torn/short-write
/// surface the crash-recovery protocol must survive.
enum class IoFault { kNone, kEio, kShort };

/// Interposition point on the backend's submission path. Installed by the
/// I/O engine and bound to the PR-5 `FaultInjector`, so real-backend runs
/// draw EIO and short-write faults from the same seeded, replayable
/// schedules as the simulation-level hooks.
using IoFaultHook = std::function<IoFault(PhysicalDiskId, IoOp)>;

/// One completed transfer: the token `EnqueueRead`/`EnqueueWrite` returned,
/// plus the outcome. `bytes` is what the medium actually transferred; a
/// short op reports `ok` status but `bytes < block_bytes` — callers decide
/// whether partial data is loss (the engine treats it as such).
struct IoCompletion {
  int64_t token = 0;
  Status status;
  int64_t bytes = 0;
};

/// Lifetime transfer counters (cheap, always on; the bench reads them).
struct IoStats {
  int64_t reads = 0;            // Read completions.
  int64_t writes = 0;           // Write completions.
  int64_t flushes = 0;          // Durability barriers executed.
  int64_t submit_batches = 0;   // Kernel/worker submissions (the batching
                                // win: ops per batch = ops / batches).
  int64_t injected_eio = 0;     // Fault-hook kEio outcomes delivered.
  int64_t injected_short = 0;   // Fault-hook kShort outcomes delivered.
};

/// Construction knobs shared by every backend.
struct BackendOptions {
  /// Bytes per block image. Real backends lay disks out as dense slot
  /// arrays with this stride; with O_DIRECT active it must be a multiple
  /// of the 4 KiB sector alignment (`MakeStorageBackend` enforces this for
  /// the file-backed specs).
  int64_t block_bytes = 4096;

  /// Per-disk queue depth: the io_uring backend caps each disk's ops
  /// queued or in flight at it, the sync backend dispatches a disk's queue
  /// to its worker once it holds this many ops, and the in-memory backend
  /// (which executes at enqueue) ignores it. Clamped to >= 1.
  int queue_depth = 32;
};

/// Where the bytes of every block image live. The placement layers above
/// think in `(object, block) -> physical disk`; this seam thinks in
/// `(disk, slot) -> block image` and nothing else. All transfer APIs are
/// *asynchronous and batched*: `Enqueue*` queues work and returns a token,
/// and `DrainCompletions` pushes every queued op down in one batch (one
/// submission for every disk on the io_uring backend, one worker batch per
/// disk on the sync backend) and waits for the in-flight set. Completion
/// order is unspecified; tokens tie completions back to requests.
///
/// Buffers passed to `Enqueue*` must stay valid until the op's completion
/// is drained. Backends may execute eagerly (the in-memory backend), on
/// submit (the sync backend) or truly in flight (io_uring) — callers must
/// not assume any particular overlap, only the token contract.
///
/// Thread safety: none. One owner (the `BlockIoEngine`) drives a backend;
/// the serving runtime's parallelism stays above this layer. The owner may
/// move between threads, as a cluster's pooled shard ticks do, provided a
/// thread drains what it issued before another thread issues.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual std::string_view name() const = 0;
  int64_t block_bytes() const { return options_.block_bytes; }
  int queue_depth() const { return options_.queue_depth; }

  /// Creates (or reopens) the backing region for `disk`. Idempotent.
  virtual Status OpenDisk(PhysicalDiskId disk) = 0;

  /// Releases the disk's runtime resources (fds, rings). The backing bytes
  /// survive for file-backed backends — `OpenDisk` reattaches them, which
  /// is how a crash restart reopens the farm.
  virtual Status CloseDisk(PhysicalDiskId disk) = 0;

  /// Queues a block-image read from `(disk, slot)` into `buf`
  /// (`block_bytes()` long). May auto-submit when the disk's queue fills.
  virtual StatusOr<int64_t> EnqueueRead(PhysicalDiskId disk, int64_t slot,
                                        std::byte* buf) = 0;

  /// Queues a block-image write of `buf` to `(disk, slot)`, growing the
  /// region as needed. Same batching contract as `EnqueueRead`.
  virtual StatusOr<int64_t> EnqueueWrite(PhysicalDiskId disk, int64_t slot,
                                         const std::byte* buf) = 0;

  /// Durability barrier: everything *completed* on `disk` before the call
  /// is durable when it returns (fdatasync semantics). Callers drain
  /// completions first; flushing with ops in flight is a checked bug.
  virtual Status Flush(PhysicalDiskId disk) = 0;

  /// Submits anything still queued, waits for every in-flight op and
  /// appends their completions to `out`.
  virtual Status DrainCompletions(std::vector<IoCompletion>& out) = 0;

  /// Registers a contiguous arena of `count` block-sized buffers starting
  /// at `base`. Backends that can pin memory (io_uring fixed buffers) use
  /// it to skip per-op mapping; others ignore it. Call before the arena is
  /// first used; re-registration replaces the previous arena.
  virtual Status RegisterBufferArena(std::byte* base, int64_t count) {
    (void)base;
    (void)count;
    return OkStatus();
  }

  /// True when the backend bypasses the page cache (O_DIRECT took).
  virtual bool direct_io() const { return false; }

  void set_fault_hook(IoFaultHook hook) { fault_hook_ = std::move(hook); }
  const IoStats& stats() const { return stats_; }

 protected:
  explicit StorageBackend(const BackendOptions& options) : options_(options) {
    if (options_.queue_depth < 1) {
      options_.queue_depth = 1;
    }
  }

  /// Consults the fault hook for one op; counts what it injects.
  IoFault NextFault(PhysicalDiskId disk, IoOp op) {
    if (!fault_hook_) {
      return IoFault::kNone;
    }
    const IoFault fault = fault_hook_(disk, op);
    if (fault == IoFault::kEio) {
      ++stats_.injected_eio;
    } else if (fault == IoFault::kShort) {
      ++stats_.injected_short;
    }
    return fault;
  }

  BackendOptions options_;
  IoFaultHook fault_hook_;
  IoStats stats_;
};

/// True when this kernel/container accepts `io_uring_setup` (the syscall
/// may be compiled out or seccomp-filtered; probed once, cached).
bool UringAvailable();

/// Creates `path` and any missing parents (mkdir -p semantics). Best
/// effort: callers surface real failures when the files inside refuse to
/// open. Shard-suffixed backend dirs ("file:<dir>/shard3") rely on this.
void MakeDirectories(std::string_view path);

/// Builds a backend from its config-string form:
///
///   "mem"          in-memory byte images (the simulation backend)
///   "file:<dir>"   one file per disk under <dir>, pread/pwrite on
///                  per-disk workers (the portable sync backend)
///   "uring:<dir>"  one file per disk under <dir>, one io_uring ring per
///                  issuing thread for all of them
///
/// The file-backed specs open with O_DIRECT and fall back to buffered I/O
/// where the filesystem refuses it (tmpfs). "uring:" falls back to the
/// sync backend when `UringAvailable()` is false, so scenarios stay
/// portable across kernels.
StatusOr<std::unique_ptr<StorageBackend>> MakeStorageBackend(
    std::string_view spec, const BackendOptions& options);

}  // namespace scaddar

#endif  // SCADDAR_STORAGE_STORAGE_BACKEND_H_
