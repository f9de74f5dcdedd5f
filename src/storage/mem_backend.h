#ifndef SCADDAR_STORAGE_MEM_BACKEND_H_
#define SCADDAR_STORAGE_MEM_BACKEND_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/storage_backend.h"

namespace scaddar {

/// The in-memory simulation backend: block images live in per-disk byte
/// vectors, ops execute at enqueue time and completions queue until
/// drained. Zero latency, zero syscalls — the reference implementation
/// every real backend must be content-identical to, and the only one the
/// default simulation-only server ever needs.
class MemBackend : public StorageBackend {
 public:
  explicit MemBackend(const BackendOptions& options)
      : StorageBackend(options) {}

  std::string_view name() const override { return "mem"; }

  Status OpenDisk(PhysicalDiskId disk) override;
  Status CloseDisk(PhysicalDiskId disk) override;
  StatusOr<int64_t> EnqueueRead(PhysicalDiskId disk, int64_t slot,
                                std::byte* buf) override;
  StatusOr<int64_t> EnqueueWrite(PhysicalDiskId disk, int64_t slot,
                                 const std::byte* buf) override;
  Status Flush(PhysicalDiskId disk) override;
  Status DrainCompletions(std::vector<IoCompletion>& out) override;

 private:
  StatusOr<std::vector<std::byte>*> Region(PhysicalDiskId disk);

  std::unordered_map<PhysicalDiskId, std::vector<std::byte>> regions_;
  std::vector<IoCompletion> completed_;
  int64_t next_token_ = 0;
  bool batch_open_ = false;  // Ops enqueued since the last drain.
};

}  // namespace scaddar

#endif  // SCADDAR_STORAGE_MEM_BACKEND_H_
