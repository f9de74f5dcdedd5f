#ifndef SCADDAR_STORAGE_URING_BACKEND_H_
#define SCADDAR_STORAGE_URING_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/storage_backend.h"

struct io_uring_sqe;
struct io_uring_cqe;

namespace scaddar {

/// The io_uring backend, built on raw `io_uring_setup` / `io_uring_enter`
/// syscalls (no liburing dependency). Each thread that issues I/O gets one
/// ring of its own, set up on its first op with `SINGLE_ISSUER |
/// DEFER_TASKRUN`, sized to the registered buffer arena (or the queue depth
/// if larger), with the arena registered as fixed buffers. Disks are plain
/// file descriptors. `DrainCompletions` submits every queued op, whatever
/// its disk, and waits for the whole in-flight set in one `io_uring_enter`,
/// so a round's reads cost one kernel crossing and one wakeup.
///
/// `queue_depth` stays a per-disk cap: each disk counts its outstanding
/// ops, and an op that would exceed the cap first submits and waits for
/// everything in flight.
///
/// Threads may take turns (a cluster's pool moves a shard's ticks between
/// workers, and ingest runs on the caller's thread), but a thread must
/// drain its ops before another thread issues: a `SINGLE_ISSUER` ring
/// refuses every thread but its owner. Rings are keyed by a process-unique
/// thread id and stay open until the backend is destroyed.
///
/// Files and layout are identical to `SyncFileBackend` (one `disk_<id>.img`
/// per disk, images at `slot * block_bytes`), so a directory written by one
/// backend is readable by the other.
class UringBackend : public StorageBackend {
 public:
  UringBackend(std::string directory, const BackendOptions& options);
  ~UringBackend() override;

  std::string_view name() const override { return "uring"; }

  Status OpenDisk(PhysicalDiskId disk) override;
  Status CloseDisk(PhysicalDiskId disk) override;
  StatusOr<int64_t> EnqueueRead(PhysicalDiskId disk, int64_t slot,
                                std::byte* buf) override;
  StatusOr<int64_t> EnqueueWrite(PhysicalDiskId disk, int64_t slot,
                                 const std::byte* buf) override;
  Status Flush(PhysicalDiskId disk) override;
  Status DrainCompletions(std::vector<IoCompletion>& out) override;
  Status RegisterBufferArena(std::byte* base, int64_t count) override;
  bool direct_io() const override { return direct_; }

  const std::string& directory() const { return directory_; }

 private:
  /// One mmapped ring pair, owned by the thread that set it up.
  struct Ring {
    uint64_t thread = 0;       // Issuing-thread id of the owner.
    int ring_fd = -1;
    void* sq_mem = nullptr;
    size_t sq_len = 0;
    void* cq_mem = nullptr;   // Null when IORING_FEAT_SINGLE_MMAP took.
    size_t cq_len = 0;
    io_uring_sqe* sqes = nullptr;
    size_t sqes_len = 0;
    // Kernel-shared ring pointers (into the mmapped regions).
    unsigned* sq_tail = nullptr;
    unsigned* sq_mask = nullptr;
    unsigned* sq_array = nullptr;
    unsigned* cq_head = nullptr;
    unsigned* cq_tail = nullptr;
    unsigned* cq_mask = nullptr;
    io_uring_cqe* cqes = nullptr;
    unsigned sq_entries = 0;
    unsigned to_submit = 0;    // SQEs filled since the last enter.
    int64_t in_flight = 0;     // Submitted, not yet reaped.
    bool buffers_registered = false;
  };

  struct Disk {
    int fd = -1;
    int64_t outstanding = 0;   // Ops queued or in flight on the ring.
  };

  StatusOr<Disk*> Lookup(PhysicalDiskId disk);
  /// The calling thread's ring, set up on its first op.
  StatusOr<Ring*> IssuingRing();
  Status SetupRing(Ring& ring);
  void TeardownRing(Ring& ring);
  StatusOr<int64_t> Enqueue(PhysicalDiskId disk, IoOp op, int64_t slot,
                            std::byte* buf);
  /// Submits everything queued on `ring`, then waits for and reaps every
  /// op in flight: one `io_uring_enter` unless a signal interrupts it.
  Status SubmitAndWait(Ring& ring);

  std::string directory_;
  bool direct_ = false;
  std::byte* arena_base_ = nullptr;
  int64_t arena_count_ = 0;
  std::vector<Ring> rings_;
  Ring* current_ = nullptr;                 // The ring that issued last.
  std::vector<Disk> disks_;                 // Indexed by physical id.
  std::vector<PhysicalDiskId> busy_disks_;  // Disks with outstanding ops.
  std::vector<IoCompletion> completed_;
  int64_t next_token_ = 0;
};

}  // namespace scaddar

#endif  // SCADDAR_STORAGE_URING_BACKEND_H_
