#include "storage/file_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

namespace scaddar {

namespace {

/// Largest O_DIRECT-legal length <= `len` (sector granularity).
int64_t AlignDownToSector(int64_t len) { return len & ~int64_t{4095}; }

/// One per-disk executor worker per hardware thread, capped at 8.
int SyncWorkerCount() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    8);
}

}  // namespace

SyncFileBackend::SyncFileBackend(std::string directory,
                                 const BackendOptions& options)
    : StorageBackend(options),
      directory_(std::move(directory)),
      pool_(std::make_unique<ThreadPool>(SyncWorkerCount())) {
  MakeDirectories(directory_);
}

SyncFileBackend::~SyncFileBackend() {
  std::vector<IoCompletion> sink;
  (void)DrainCompletions(sink);  // Workers must not outlive the fds.
  for (auto& [id, state] : disks_) {
    if (state.fd >= 0) {
      ::close(state.fd);
    }
  }
}

Status SyncFileBackend::OpenDisk(PhysicalDiskId disk) {
  std::unique_lock<std::mutex> lock(mu_);
  DiskState& state = disks_[disk];
  if (state.fd >= 0) {
    return OkStatus();
  }
  const std::string path =
      directory_ + "/disk_" + std::to_string(disk) + ".img";
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_DIRECT, 0644);
  if (fd < 0 && (errno == EINVAL || errno == ENOTSUP)) {
    // tmpfs and friends refuse O_DIRECT; buffered I/O is the documented
    // fallback (the bench labels which mode produced its numbers).
    fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  } else if (fd >= 0) {
    direct_ = true;
  }
  if (fd < 0) {
    return UnavailableError("open(" + path + "): " + std::strerror(errno));
  }
  state.fd = fd;
  return OkStatus();
}

Status SyncFileBackend::CloseDisk(PhysicalDiskId disk) {
  std::vector<IoCompletion> sink;
  SCADDAR_RETURN_IF_ERROR(DrainCompletions(sink));
  std::unique_lock<std::mutex> lock(mu_);
  // Re-queue what the pre-close drain collected so callers still see it.
  completed_.insert(completed_.end(), sink.begin(), sink.end());
  const auto it = disks_.find(disk);
  if (it == disks_.end() || it->second.fd < 0) {
    return NotFoundError("disk not open");
  }
  ::close(it->second.fd);
  disks_.erase(it);
  return OkStatus();
}

StatusOr<SyncFileBackend::DiskState*> SyncFileBackend::State(
    PhysicalDiskId disk) {
  const auto it = disks_.find(disk);
  if (it == disks_.end() || it->second.fd < 0) {
    return NotFoundError("disk not open");
  }
  return &it->second;
}

StatusOr<int64_t> SyncFileBackend::EnqueueRead(PhysicalDiskId disk,
                                               int64_t slot, std::byte* buf) {
  std::unique_lock<std::mutex> lock(mu_);
  SCADDAR_ASSIGN_OR_RETURN(DiskState* state, State(disk));
  PendingOp op;
  op.op = IoOp::kRead;
  op.token = next_token_++;
  op.offset = slot * block_bytes();
  op.buf = buf;
  op.fault = NextFault(disk, IoOp::kRead);
  state->queued.push_back(op);
  if (static_cast<int>(state->queued.size()) >= queue_depth()) {
    DispatchLocked(disk, *state);
  }
  return op.token;
}

StatusOr<int64_t> SyncFileBackend::EnqueueWrite(PhysicalDiskId disk,
                                                int64_t slot,
                                                const std::byte* buf) {
  std::unique_lock<std::mutex> lock(mu_);
  SCADDAR_ASSIGN_OR_RETURN(DiskState* state, State(disk));
  PendingOp op;
  op.op = IoOp::kWrite;
  op.token = next_token_++;
  op.offset = slot * block_bytes();
  op.src = buf;
  op.fault = NextFault(disk, IoOp::kWrite);
  state->queued.push_back(op);
  if (static_cast<int>(state->queued.size()) >= queue_depth()) {
    DispatchLocked(disk, *state);
  }
  return op.token;
}

IoCompletion SyncFileBackend::Execute(int fd, const PendingOp& op) {
  IoCompletion completion;
  completion.token = op.token;
  if (op.fault == IoFault::kEio) {
    completion.status = UnavailableError(
        op.op == IoOp::kRead ? "injected EIO on read"
                             : "injected EIO on write");
    return completion;
  }
  int64_t len = block_bytes();
  if (op.fault == IoFault::kShort) {
    len /= 2;
    if (direct_) {
      len = AlignDownToSector(len);
    }
  }
  ssize_t res = 0;
  if (len > 0) {
    res = op.op == IoOp::kRead
              ? ::pread(fd, op.buf, static_cast<size_t>(len), op.offset)
              : ::pwrite(fd, op.src, static_cast<size_t>(len), op.offset);
  }
  if (res < 0) {
    completion.status = UnavailableError(
        std::string(op.op == IoOp::kRead ? "pread: " : "pwrite: ") +
        std::strerror(errno));
    return completion;
  }
  completion.bytes = res;
  return completion;
}

void SyncFileBackend::DispatchLocked(PhysicalDiskId disk, DiskState& state) {
  if (state.queued.empty() || state.worker_busy) {
    return;  // An active worker re-dispatches leftovers when it finishes.
  }
  state.worker_busy = true;
  ++in_flight_batches_;
  ++stats_.submit_batches;
  const int fd = state.fd;
  std::vector<PendingOp> batch = std::move(state.queued);
  state.queued.clear();
  pool_->Schedule([this, disk, fd, batch = std::move(batch)]() mutable {
    // The per-disk worker: drain this batch serially, then pick up anything
    // enqueued meanwhile — one logical queue-depth-1 executor per spindle.
    while (true) {
      std::vector<IoCompletion> done;
      done.reserve(batch.size());
      for (const PendingOp& op : batch) {
        done.push_back(Execute(fd, op));
      }
      std::unique_lock<std::mutex> lock(mu_);
      for (size_t i = 0; i < done.size(); ++i) {
        if (done[i].status.ok()) {
          (batch[i].op == IoOp::kRead ? stats_.reads : stats_.writes)++;
        }
        completed_.push_back(std::move(done[i]));
      }
      const auto it = disks_.find(disk);
      if (it != disks_.end() && !it->second.queued.empty()) {
        batch = std::move(it->second.queued);
        it->second.queued.clear();
        ++stats_.submit_batches;
        continue;
      }
      if (it != disks_.end()) {
        it->second.worker_busy = false;
      }
      --in_flight_batches_;
      if (in_flight_batches_ == 0) {
        idle_.notify_all();
      }
      return;
    }
  });
}

Status SyncFileBackend::Flush(PhysicalDiskId disk) {
  std::unique_lock<std::mutex> lock(mu_);
  SCADDAR_ASSIGN_OR_RETURN(DiskState* state, State(disk));
  SCADDAR_CHECK(state->queued.empty() && !state->worker_busy);
  const int fd = state->fd;
  lock.unlock();
  if (::fdatasync(fd) != 0) {
    return UnavailableError(std::string("fdatasync: ") +
                            std::strerror(errno));
  }
  lock.lock();
  ++stats_.flushes;
  return OkStatus();
}

Status SyncFileBackend::DrainCompletions(std::vector<IoCompletion>& out) {
  std::unique_lock<std::mutex> lock(mu_);
  for (auto& [disk, state] : disks_) {
    DispatchLocked(disk, state);
  }
  idle_.wait(lock, [this] { return in_flight_batches_ == 0; });
  for (IoCompletion& completion : completed_) {
    out.push_back(std::move(completion));
  }
  completed_.clear();
  return OkStatus();
}

}  // namespace scaddar
