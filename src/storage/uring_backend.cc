#include "storage/uring_backend.h"

#include <fcntl.h>
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

namespace scaddar {

namespace {

int UringSetup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_setup, entries, params));
}

int UringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
               unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

int UringRegister(int ring_fd, unsigned opcode, const void* arg,
                  unsigned nr_args) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_register, ring_fd, opcode, arg, nr_args));
}

int64_t AlignDownToSector(int64_t len) { return len & ~int64_t{4095}; }

template <typename T>
T* RingPtr(void* base, unsigned offset) {
  return reinterpret_cast<T*>(static_cast<char*>(base) + offset);
}

/// A process-unique id for the calling thread. `pthread_t` and
/// `std::thread::id` values are reused once a thread exits, and a reused
/// value would hand the new thread a ring that refuses it.
uint64_t ThisThreadId() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// io_uring_setup's limit on ring entries (IORING_MAX_ENTRIES).
constexpr int64_t kMaxRingEntries = 32768;

}  // namespace

bool UringAvailable() {
  static const bool available = [] {
    io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    const int fd = UringSetup(2, &params);
    if (fd < 0) {
      return false;
    }
    ::close(fd);
    return true;
  }();
  return available;
}

UringBackend::UringBackend(std::string directory,
                           const BackendOptions& options)
    : StorageBackend(options), directory_(std::move(directory)) {
  MakeDirectories(directory_);
}

UringBackend::~UringBackend() {
  if (current_ != nullptr) {
    (void)SubmitAndWait(*current_);
  }
  for (Ring& ring : rings_) {
    TeardownRing(ring);
  }
  for (const Disk& disk : disks_) {
    if (disk.fd >= 0) {
      ::close(disk.fd);
    }
  }
}

Status UringBackend::SetupRing(Ring& ring) {
  const unsigned entries = static_cast<unsigned>(std::min(
      std::max<int64_t>(arena_count_, queue_depth()), kMaxRingEntries));
  io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  // DEFER_TASKRUN runs completion work only when the owner waits, so a
  // drain is woken once for its whole batch instead of once per op. Both
  // flags are newer than io_uring itself; retry plain when the kernel
  // objects.
  params.flags = IORING_SETUP_SINGLE_ISSUER | IORING_SETUP_DEFER_TASKRUN;
  int fd = UringSetup(entries, &params);
  if (fd < 0 && errno == EINVAL) {
    std::memset(&params, 0, sizeof(params));
    fd = UringSetup(entries, &params);
  }
  if (fd < 0) {
    return UnavailableError(std::string("io_uring_setup: ") +
                            std::strerror(errno));
  }
  ring.ring_fd = fd;
  ring.sq_entries = params.sq_entries;

  ring.sq_len = params.sq_off.array + params.sq_entries * sizeof(unsigned);
  ring.cq_len = params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  const bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap && ring.cq_len > ring.sq_len) {
    ring.sq_len = ring.cq_len;
  }
  ring.sq_mem = ::mmap(nullptr, ring.sq_len, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
  if (ring.sq_mem == MAP_FAILED) {
    ring.sq_mem = nullptr;
    TeardownRing(ring);
    return UnavailableError("mmap sq ring failed");
  }
  void* cq_base = ring.sq_mem;
  if (!single_mmap) {
    ring.cq_mem = ::mmap(nullptr, ring.cq_len, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_CQ_RING);
    if (ring.cq_mem == MAP_FAILED) {
      ring.cq_mem = nullptr;
      TeardownRing(ring);
      return UnavailableError("mmap cq ring failed");
    }
    cq_base = ring.cq_mem;
  }
  ring.sqes_len = params.sq_entries * sizeof(io_uring_sqe);
  void* sqes = ::mmap(nullptr, ring.sqes_len, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES);
  if (sqes == MAP_FAILED) {
    TeardownRing(ring);
    return UnavailableError("mmap sqes failed");
  }
  ring.sqes = static_cast<io_uring_sqe*>(sqes);

  ring.sq_tail = RingPtr<unsigned>(ring.sq_mem, params.sq_off.tail);
  ring.sq_mask = RingPtr<unsigned>(ring.sq_mem, params.sq_off.ring_mask);
  ring.sq_array = RingPtr<unsigned>(ring.sq_mem, params.sq_off.array);
  ring.cq_head = RingPtr<unsigned>(cq_base, params.cq_off.head);
  ring.cq_tail = RingPtr<unsigned>(cq_base, params.cq_off.tail);
  ring.cq_mask = RingPtr<unsigned>(cq_base, params.cq_off.ring_mask);
  ring.cqes = RingPtr<io_uring_cqe>(cq_base, params.cq_off.cqes);

  if (arena_base_ != nullptr) {
    iovec vec;
    vec.iov_base = arena_base_;
    vec.iov_len = static_cast<size_t>(arena_count_ * block_bytes());
    // Registration is an optimization (locked-memory limits can refuse
    // it); unregistered READ/WRITE opcodes keep everything working.
    ring.buffers_registered =
        UringRegister(fd, IORING_REGISTER_BUFFERS, &vec, 1) == 0;
  }
  return OkStatus();
}

void UringBackend::TeardownRing(Ring& ring) {
  if (ring.sqes != nullptr) {
    ::munmap(ring.sqes, ring.sqes_len);
    ring.sqes = nullptr;
  }
  if (ring.cq_mem != nullptr) {
    ::munmap(ring.cq_mem, ring.cq_len);
    ring.cq_mem = nullptr;
  }
  if (ring.sq_mem != nullptr) {
    ::munmap(ring.sq_mem, ring.sq_len);
    ring.sq_mem = nullptr;
  }
  if (ring.ring_fd >= 0) {
    ::close(ring.ring_fd);
    ring.ring_fd = -1;
  }
}

Status UringBackend::RegisterBufferArena(std::byte* base, int64_t count) {
  // Each ring registers the arena when it is set up, so drop the rings and
  // let every thread's next op set its ring up around the new arena.
  for (Ring& ring : rings_) {
    SCADDAR_CHECK(ring.to_submit == 0 && ring.in_flight == 0);
    TeardownRing(ring);
  }
  rings_.clear();
  current_ = nullptr;
  arena_base_ = base;
  arena_count_ = count;
  return OkStatus();
}

StatusOr<UringBackend::Ring*> UringBackend::IssuingRing() {
  const uint64_t thread = ThisThreadId();
  if (current_ != nullptr && current_->thread == thread) {
    return current_;
  }
  // Another thread issued last. Its ring refuses this thread, so whatever
  // it left in flight could never be waited for from here.
  for (const Ring& ring : rings_) {
    SCADDAR_DCHECK(ring.to_submit == 0 && ring.in_flight == 0);
  }
  for (Ring& ring : rings_) {
    if (ring.thread == thread) {
      current_ = &ring;
      return current_;
    }
  }
  Ring ring;
  ring.thread = thread;
  SCADDAR_RETURN_IF_ERROR(SetupRing(ring));
  rings_.push_back(ring);
  current_ = &rings_.back();
  return current_;
}

Status UringBackend::OpenDisk(PhysicalDiskId disk) {
  if (disk < 0) {
    return InvalidArgumentError("negative disk id");
  }
  if (disk >= static_cast<PhysicalDiskId>(disks_.size())) {
    disks_.resize(static_cast<size_t>(disk) + 1);
  }
  Disk& state = disks_[static_cast<size_t>(disk)];
  if (state.fd >= 0) {
    return OkStatus();
  }
  const std::string path =
      directory_ + "/disk_" + std::to_string(disk) + ".img";
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_DIRECT, 0644);
  if (fd < 0 && (errno == EINVAL || errno == ENOTSUP)) {
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

Status UringBackend::CloseDisk(PhysicalDiskId disk) {
  SCADDAR_ASSIGN_OR_RETURN(Disk * state, Lookup(disk));
  // Completions stay queued for the caller's next drain.
  if (current_ != nullptr) {
    SCADDAR_RETURN_IF_ERROR(SubmitAndWait(*current_));
  }
  ::close(state->fd);
  state->fd = -1;
  return OkStatus();
}

StatusOr<UringBackend::Disk*> UringBackend::Lookup(PhysicalDiskId disk) {
  if (disk < 0 || disk >= static_cast<PhysicalDiskId>(disks_.size()) ||
      disks_[static_cast<size_t>(disk)].fd < 0) {
    return NotFoundError("disk not open");
  }
  return &disks_[static_cast<size_t>(disk)];
}

StatusOr<int64_t> UringBackend::Enqueue(PhysicalDiskId disk, IoOp op,
                                        int64_t slot, std::byte* buf) {
  SCADDAR_ASSIGN_OR_RETURN(Disk * state, Lookup(disk));
  SCADDAR_ASSIGN_OR_RETURN(Ring * ring, IssuingRing());
  const int64_t token = next_token_++;
  const IoFault fault = NextFault(disk, op);
  if (fault == IoFault::kEio) {
    IoCompletion completion;
    completion.token = token;
    completion.status = UnavailableError(op == IoOp::kRead
                                             ? "injected EIO on read"
                                             : "injected EIO on write");
    completed_.push_back(std::move(completion));
    return token;
  }
  int64_t len = block_bytes();
  if (fault == IoFault::kShort) {
    len /= 2;
    if (direct_) {
      len = AlignDownToSector(len);
    }
  }
  // A full ring or a disk at its queue depth: land everything in flight
  // first. Keeping in-flight ops within the SQ size also keeps the CQ
  // (at least as large) from overflowing.
  if (ring->in_flight + ring->to_submit >= ring->sq_entries ||
      state->outstanding >= queue_depth()) {
    SCADDAR_RETURN_IF_ERROR(SubmitAndWait(*ring));
  }
  const unsigned tail = *ring->sq_tail;
  const unsigned index = tail & *ring->sq_mask;
  io_uring_sqe& sqe = ring->sqes[index];
  std::memset(&sqe, 0, sizeof(sqe));
  const bool fixed = ring->buffers_registered && buf >= arena_base_ &&
                     buf < arena_base_ + arena_count_ * block_bytes();
  if (op == IoOp::kRead) {
    sqe.opcode = fixed ? IORING_OP_READ_FIXED : IORING_OP_READ;
  } else {
    sqe.opcode = fixed ? IORING_OP_WRITE_FIXED : IORING_OP_WRITE;
  }
  sqe.fd = state->fd;
  sqe.off = static_cast<__u64>(slot * block_bytes());
  sqe.addr = reinterpret_cast<__u64>(buf);
  sqe.len = static_cast<__u32>(len);
  sqe.buf_index = 0;  // The arena is registered as one iovec.
  // Low bit carries the opcode so reaping can split read/write stats.
  sqe.user_data =
      (static_cast<__u64>(token) << 1) | (op == IoOp::kWrite ? 1 : 0);
  ring->sq_array[index] = index;
  __atomic_store_n(ring->sq_tail, tail + 1, __ATOMIC_RELEASE);
  ++ring->to_submit;
  if (state->outstanding++ == 0) {
    busy_disks_.push_back(disk);
  }
  return token;
}

StatusOr<int64_t> UringBackend::EnqueueRead(PhysicalDiskId disk, int64_t slot,
                                            std::byte* buf) {
  return Enqueue(disk, IoOp::kRead, slot, buf);
}

StatusOr<int64_t> UringBackend::EnqueueWrite(PhysicalDiskId disk,
                                             int64_t slot,
                                             const std::byte* buf) {
  return Enqueue(disk, IoOp::kWrite, slot, const_cast<std::byte*>(buf));
}

Status UringBackend::SubmitAndWait(Ring& ring) {
  while (ring.to_submit > 0 || ring.in_flight > 0) {
    const unsigned submit = ring.to_submit;
    const unsigned wait = static_cast<unsigned>(ring.in_flight) + submit;
    const int res =
        UringEnter(ring.ring_fd, submit, wait, IORING_ENTER_GETEVENTS);
    if (res < 0) {
      if (errno == EINTR) {
        continue;
      }
      return UnavailableError(std::string("io_uring_enter: ") +
                              std::strerror(errno));
    }
    if (submit > 0) {
      if (res == 0) {
        return UnavailableError("io_uring_enter submitted nothing");
      }
      ring.in_flight += res;
      ring.to_submit -= static_cast<unsigned>(res);
      ++stats_.submit_batches;
    }
    // A signal can end the wait early; reap what landed and go round.
    unsigned head = *ring.cq_head;
    const unsigned tail = __atomic_load_n(ring.cq_tail, __ATOMIC_ACQUIRE);
    for (; head != tail; ++head) {
      const io_uring_cqe& cqe = ring.cqes[head & *ring.cq_mask];
      IoCompletion completion;
      completion.token = static_cast<int64_t>(cqe.user_data >> 1);
      if (cqe.res < 0) {
        completion.status = UnavailableError(std::string("io_uring op: ") +
                                             std::strerror(-cqe.res));
      } else {
        completion.bytes = cqe.res;
        ((cqe.user_data & 1) != 0 ? stats_.writes : stats_.reads)++;
      }
      completed_.push_back(std::move(completion));
      --ring.in_flight;
    }
    __atomic_store_n(ring.cq_head, head, __ATOMIC_RELEASE);
  }
  for (const PhysicalDiskId disk : busy_disks_) {
    disks_[static_cast<size_t>(disk)].outstanding = 0;
  }
  busy_disks_.clear();
  return OkStatus();
}

Status UringBackend::Flush(PhysicalDiskId disk) {
  SCADDAR_ASSIGN_OR_RETURN(Disk * state, Lookup(disk));
  SCADDAR_CHECK(state->outstanding == 0);
  if (::fdatasync(state->fd) != 0) {
    return UnavailableError(std::string("fdatasync: ") +
                            std::strerror(errno));
  }
  ++stats_.flushes;
  return OkStatus();
}

Status UringBackend::DrainCompletions(std::vector<IoCompletion>& out) {
  if (current_ != nullptr) {
    SCADDAR_RETURN_IF_ERROR(SubmitAndWait(*current_));
  }
  out.insert(out.end(), completed_.begin(), completed_.end());
  completed_.clear();
  return OkStatus();
}

}  // namespace scaddar
