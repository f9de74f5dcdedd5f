#include "storage/mem_backend.h"

#include <cstring>

namespace scaddar {

Status MemBackend::OpenDisk(PhysicalDiskId disk) {
  regions_.try_emplace(disk);
  return OkStatus();
}

Status MemBackend::CloseDisk(PhysicalDiskId disk) {
  // The bytes are the "medium" here; closing only drops runtime state, of
  // which the mem backend has none.
  (void)disk;
  return OkStatus();
}

StatusOr<std::vector<std::byte>*> MemBackend::Region(PhysicalDiskId disk) {
  const auto it = regions_.find(disk);
  if (it == regions_.end()) {
    return NotFoundError("disk not open");
  }
  return &it->second;
}

StatusOr<int64_t> MemBackend::EnqueueRead(PhysicalDiskId disk, int64_t slot,
                                          std::byte* buf) {
  SCADDAR_ASSIGN_OR_RETURN(std::vector<std::byte>* region, Region(disk));
  const int64_t token = next_token_++;
  IoCompletion completion;
  completion.token = token;
  const IoFault fault = NextFault(disk, IoOp::kRead);
  if (fault == IoFault::kEio) {
    completion.status = UnavailableError("injected EIO on read");
  } else {
    int64_t len = block_bytes();
    if (fault == IoFault::kShort) {
      len /= 2;
    }
    const int64_t offset = slot * block_bytes();
    if (offset + len > static_cast<int64_t>(region->size())) {
      completion.status = OutOfRangeError("read past end of region");
    } else {
      std::memcpy(buf, region->data() + offset, static_cast<size_t>(len));
      completion.bytes = len;
      ++stats_.reads;
    }
  }
  completed_.push_back(std::move(completion));
  batch_open_ = true;
  return token;
}

StatusOr<int64_t> MemBackend::EnqueueWrite(PhysicalDiskId disk, int64_t slot,
                                           const std::byte* buf) {
  SCADDAR_ASSIGN_OR_RETURN(std::vector<std::byte>* region, Region(disk));
  const int64_t token = next_token_++;
  IoCompletion completion;
  completion.token = token;
  const IoFault fault = NextFault(disk, IoOp::kWrite);
  if (fault == IoFault::kEio) {
    completion.status = UnavailableError("injected EIO on write");
  } else {
    int64_t len = block_bytes();
    if (fault == IoFault::kShort) {
      len /= 2;
    }
    const int64_t offset = slot * block_bytes();
    if (offset + block_bytes() > static_cast<int64_t>(region->size())) {
      region->resize(static_cast<size_t>(offset + block_bytes()));
    }
    std::memcpy(region->data() + offset, buf, static_cast<size_t>(len));
    completion.bytes = len;
    ++stats_.writes;
  }
  completed_.push_back(std::move(completion));
  batch_open_ = true;
  return token;
}

Status MemBackend::Flush(PhysicalDiskId disk) {
  SCADDAR_RETURN_IF_ERROR(Region(disk).status());
  ++stats_.flushes;
  return OkStatus();
}

Status MemBackend::DrainCompletions(std::vector<IoCompletion>& out) {
  if (batch_open_) {
    ++stats_.submit_batches;
    batch_open_ = false;
  }
  out.insert(out.end(), completed_.begin(), completed_.end());
  completed_.clear();
  return OkStatus();
}

}  // namespace scaddar
