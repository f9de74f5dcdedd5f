#ifndef SCADDAR_STORAGE_FILE_BACKEND_H_
#define SCADDAR_STORAGE_FILE_BACKEND_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/storage_backend.h"
#include "util/thread_pool.h"

namespace scaddar {

/// The portable real-I/O backend: one regular file per disk under a caller
/// directory, block images at `slot * block_bytes`, pread/pwrite executed
/// by per-disk worker tasks on a `ThreadPool`. Each disk's queue drains
/// serially (queue depth 1 at the medium — the baseline the io_uring
/// backend's ring depth is measured against); disks run concurrently,
/// which is the parallelism a real multi-spindle farm has anyway.
///
/// Files open O_DIRECT when the filesystem allows it and silently fall
/// back to buffered I/O where it doesn't (tmpfs); `direct_io()` reports
/// which mode took so benches can label their numbers.
class SyncFileBackend : public StorageBackend {
 public:
  SyncFileBackend(std::string directory, const BackendOptions& options);
  ~SyncFileBackend() override;

  std::string_view name() const override { return "file"; }

  Status OpenDisk(PhysicalDiskId disk) override;
  Status CloseDisk(PhysicalDiskId disk) override;
  StatusOr<int64_t> EnqueueRead(PhysicalDiskId disk, int64_t slot,
                                std::byte* buf) override;
  StatusOr<int64_t> EnqueueWrite(PhysicalDiskId disk, int64_t slot,
                                 const std::byte* buf) override;
  Status Flush(PhysicalDiskId disk) override;
  Status DrainCompletions(std::vector<IoCompletion>& out) override;
  bool direct_io() const override { return direct_; }

  const std::string& directory() const { return directory_; }

 private:
  struct PendingOp {
    IoOp op = IoOp::kRead;
    int64_t token = 0;
    int64_t offset = 0;
    std::byte* buf = nullptr;          // Read destination.
    const std::byte* src = nullptr;    // Write source.
    IoFault fault = IoFault::kNone;
  };

  struct DiskState {
    int fd = -1;
    std::vector<PendingOp> queued;     // Not yet dispatched.
    bool worker_busy = false;          // A pool task owns this disk's queue.
  };

  StatusOr<DiskState*> State(PhysicalDiskId disk);
  /// Executes one op against `fd`; returns its completion.
  IoCompletion Execute(int fd, const PendingOp& op);
  /// Dispatches `disk`'s queued ops to a pool worker (one batch).
  void DispatchLocked(PhysicalDiskId disk, DiskState& state);

  std::string directory_;
  bool direct_ = false;
  std::unique_ptr<ThreadPool> pool_;
  int64_t next_token_ = 0;

  // Everything below `mu_` is shared with the worker tasks.
  std::mutex mu_;
  std::condition_variable idle_;
  std::unordered_map<PhysicalDiskId, DiskState> disks_;
  std::vector<IoCompletion> completed_;
  int64_t in_flight_batches_ = 0;
};

}  // namespace scaddar

#endif  // SCADDAR_STORAGE_FILE_BACKEND_H_
