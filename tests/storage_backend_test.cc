// Backend-seam coverage: the factory's spec grammar, the batched
// submit/drain token contract every backend implements, file persistence
// across close/reopen, the O_DIRECT fallback, and the fault hook's
// EIO/short-write surface. Backends under test: "mem", "file:<dir>", and
// "uring:<dir>" when the kernel accepts io_uring_setup (otherwise the
// uring spec's sync fallback is what gets exercised — also a contract).

#include "storage/storage_backend.h"

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"

namespace scaddar {
namespace {

constexpr int64_t kBlock = 4096;

std::string TempDir() {
  std::string templ = ::testing::TempDir() + "scaddar_backend_XXXXXX";
  char* made = ::mkdtemp(templ.data());
  EXPECT_NE(made, nullptr);
  return templ;
}

std::vector<std::byte> Pattern(uint8_t tag) {
  std::vector<std::byte> buf(static_cast<size_t>(kBlock));
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(
        static_cast<uint8_t>(tag + i * 131 + (i >> 8)));
  }
  return buf;
}

/// Drains and indexes completions by token.
std::unordered_map<int64_t, IoCompletion> Drain(StorageBackend& backend) {
  std::vector<IoCompletion> done;
  EXPECT_TRUE(backend.DrainCompletions(done).ok());
  std::unordered_map<int64_t, IoCompletion> by_token;
  for (const IoCompletion& completion : done) {
    by_token[completion.token] = completion;
  }
  EXPECT_EQ(by_token.size(), done.size()) << "duplicate completion tokens";
  return by_token;
}

TEST(StorageBackendFactory, ParsesSpecs) {
  BackendOptions options;
  EXPECT_EQ(MakeStorageBackend("mem", options).value()->name(), "mem");
  const std::string dir = TempDir();
  EXPECT_EQ(MakeStorageBackend("file:" + dir, options).value()->name(),
            "file");
  const auto uring = MakeStorageBackend("uring:" + dir, options);
  ASSERT_TRUE(uring.ok());
  if (UringAvailable()) {
    EXPECT_EQ((*uring)->name(), "uring");
  } else {
    EXPECT_EQ((*uring)->name(), "file");  // Documented fallback.
  }
  EXPECT_EQ(MakeStorageBackend("file:", options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeStorageBackend("uring:", options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeStorageBackend("nvme:/dev/nvme0", options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StorageBackendFactory, RejectsUnalignedBlockBytes) {
  const std::string dir = TempDir();
  BackendOptions options;
  options.block_bytes = 4000;  // Not a multiple of 4096.
  EXPECT_EQ(MakeStorageBackend("file:" + dir, options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeStorageBackend("uring:" + dir, options).status().code(),
            StatusCode::kInvalidArgument);
  // The in-memory backend has no sector constraint.
  EXPECT_TRUE(MakeStorageBackend("mem", options).ok());
}

class BackendContractTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<StorageBackend> Make(int queue_depth = 32) {
    BackendOptions options;
    options.block_bytes = kBlock;
    options.queue_depth = queue_depth;
    std::string spec = GetParam();
    if (spec != "mem") {
      dir_ = TempDir();
      spec += ":" + dir_;
    }
    return MakeStorageBackend(spec, options).value();
  }

  std::string dir_;
};

TEST_P(BackendContractTest, WriteReadRoundTrip) {
  auto backend = Make();
  ASSERT_TRUE(backend->OpenDisk(0).ok());
  ASSERT_TRUE(backend->OpenDisk(7).ok());

  // Aligned buffers keep the test valid under O_DIRECT.
  constexpr int kSlots = 9;
  std::vector<std::vector<std::byte>> images;
  std::vector<std::byte*> write_bufs;
  for (int slot = 0; slot < kSlots; ++slot) {
    images.push_back(Pattern(static_cast<uint8_t>(slot * 17 + 3)));
    void* aligned = std::aligned_alloc(4096, static_cast<size_t>(kBlock));
    ASSERT_NE(aligned, nullptr);
    std::memcpy(aligned, images.back().data(), static_cast<size_t>(kBlock));
    write_bufs.push_back(static_cast<std::byte*>(aligned));
  }
  std::vector<int64_t> tokens;
  for (int slot = 0; slot < kSlots; ++slot) {
    const PhysicalDiskId disk = slot % 2 == 0 ? 0 : 7;
    tokens.push_back(
        backend->EnqueueWrite(disk, slot, write_bufs[slot]).value());
  }
  auto done = Drain(*backend);
  ASSERT_EQ(done.size(), static_cast<size_t>(kSlots));
  for (const int64_t token : tokens) {
    ASSERT_TRUE(done.at(token).status.ok());
    EXPECT_EQ(done.at(token).bytes, kBlock);
  }
  ASSERT_TRUE(backend->Flush(0).ok());
  ASSERT_TRUE(backend->Flush(7).ok());

  std::vector<std::byte*> read_bufs;
  std::vector<int64_t> read_tokens;
  for (int slot = 0; slot < kSlots; ++slot) {
    void* aligned = std::aligned_alloc(4096, static_cast<size_t>(kBlock));
    ASSERT_NE(aligned, nullptr);
    read_bufs.push_back(static_cast<std::byte*>(aligned));
    const PhysicalDiskId disk = slot % 2 == 0 ? 0 : 7;
    read_tokens.push_back(
        backend->EnqueueRead(disk, slot, read_bufs[slot]).value());
  }
  done = Drain(*backend);
  ASSERT_EQ(done.size(), static_cast<size_t>(kSlots));
  for (int slot = 0; slot < kSlots; ++slot) {
    ASSERT_TRUE(done.at(read_tokens[slot]).status.ok());
    EXPECT_EQ(done.at(read_tokens[slot]).bytes, kBlock);
    EXPECT_EQ(std::memcmp(read_bufs[slot], images[slot].data(),
                          static_cast<size_t>(kBlock)),
              0)
        << "slot " << slot << " bytes differ after round trip";
  }
  const IoStats& stats = backend->stats();
  EXPECT_EQ(stats.reads, kSlots);
  EXPECT_EQ(stats.writes, kSlots);
  EXPECT_EQ(stats.flushes, 2);
  // The batching win this layer exists for: many ops, few submissions.
  EXPECT_GT(stats.submit_batches, 0);
  EXPECT_LT(stats.submit_batches, 2 * kSlots);
  for (std::byte* buf : write_bufs) std::free(buf);
  for (std::byte* buf : read_bufs) std::free(buf);
}

TEST_P(BackendContractTest, PersistsAcrossCloseAndReopen) {
  if (std::string_view(GetParam()) == "mem") {
    GTEST_SKIP() << "the in-memory backend persists only per process";
  }
  auto backend = Make();
  ASSERT_TRUE(backend->OpenDisk(3).ok());
  const std::vector<std::byte> image = Pattern(0xAB);
  void* aligned = std::aligned_alloc(4096, static_cast<size_t>(kBlock));
  std::memcpy(aligned, image.data(), static_cast<size_t>(kBlock));
  ASSERT_TRUE(
      backend->EnqueueWrite(3, 5, static_cast<std::byte*>(aligned)).ok());
  auto done = Drain(*backend);
  ASSERT_EQ(done.size(), 1u);
  ASSERT_TRUE(backend->Flush(3).ok());
  ASSERT_TRUE(backend->CloseDisk(3).ok());

  // Reopen — the crash-restart path — and read the image back.
  ASSERT_TRUE(backend->OpenDisk(3).ok());
  std::memset(aligned, 0, static_cast<size_t>(kBlock));
  ASSERT_TRUE(
      backend->EnqueueRead(3, 5, static_cast<std::byte*>(aligned)).ok());
  done = Drain(*backend);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done.begin()->second.status.ok());
  EXPECT_EQ(
      std::memcmp(aligned, image.data(), static_cast<size_t>(kBlock)), 0);
  std::free(aligned);
}

TEST_P(BackendContractTest, FaultHookInjectsEioAndShortWrites) {
  auto backend = Make();
  ASSERT_TRUE(backend->OpenDisk(0).ok());
  // Deterministic script: first op EIO, second short, rest clean.
  int op_index = 0;
  backend->set_fault_hook([&op_index](PhysicalDiskId, IoOp) {
    const int index = op_index++;
    if (index == 0) return IoFault::kEio;
    if (index == 1) return IoFault::kShort;
    return IoFault::kNone;
  });
  std::vector<std::byte*> bufs;
  std::vector<int64_t> tokens;
  for (int slot = 0; slot < 3; ++slot) {
    void* aligned = std::aligned_alloc(4096, static_cast<size_t>(kBlock));
    std::memcpy(aligned, Pattern(static_cast<uint8_t>(slot)).data(),
                static_cast<size_t>(kBlock));
    bufs.push_back(static_cast<std::byte*>(aligned));
    tokens.push_back(
        backend->EnqueueWrite(0, slot, bufs.back()).value());
  }
  auto done = Drain(*backend);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done.at(tokens[0]).status.code(), StatusCode::kUnavailable);
  ASSERT_TRUE(done.at(tokens[1]).status.ok());
  EXPECT_LT(done.at(tokens[1]).bytes, kBlock) << "short write not short";
  EXPECT_TRUE(done.at(tokens[2]).status.ok());
  EXPECT_EQ(done.at(tokens[2]).bytes, kBlock);
  EXPECT_EQ(backend->stats().injected_eio, 1);
  EXPECT_EQ(backend->stats().injected_short, 1);
  backend->set_fault_hook(nullptr);
  for (std::byte* buf : bufs) std::free(buf);
}

TEST_P(BackendContractTest, QueueDepthOneStillCompletesEverything) {
  auto backend = Make(/*queue_depth=*/1);
  ASSERT_TRUE(backend->OpenDisk(0).ok());
  ASSERT_TRUE(backend->OpenDisk(1).ok());
  // Two of every three ops go to disk 0, the rest to disk 1. The buffers
  // form a registered arena, which sizes the io_uring ring above the queue
  // depth, so only the per-disk cap keeps a disk's ops apart.
  constexpr int kOps = 12;
  constexpr int kBusiestDiskOps = 8;
  std::byte* arena = static_cast<std::byte*>(
      std::aligned_alloc(4096, static_cast<size_t>(kOps * kBlock)));
  ASSERT_NE(arena, nullptr);
  ASSERT_TRUE(backend->RegisterBufferArena(arena, kOps).ok());
  for (int slot = 0; slot < kOps; ++slot) {
    std::byte* buf = arena + slot * kBlock;
    std::memcpy(buf, Pattern(static_cast<uint8_t>(slot)).data(),
                static_cast<size_t>(kBlock));
    const PhysicalDiskId disk = slot % 3 == 2 ? 1 : 0;
    ASSERT_TRUE(backend->EnqueueWrite(disk, slot, buf).ok());
  }
  const auto done = Drain(*backend);
  EXPECT_EQ(done.size(), static_cast<size_t>(kOps));
  for (const auto& [token, completion] : done) {
    EXPECT_TRUE(completion.status.ok());
  }
  EXPECT_EQ(backend->stats().writes, kOps);
  if (backend->name() == "uring") {
    // The per-disk cap holds although one submission carries every disk's
    // ops: no disk ever has two ops in one submission. (The sync backend
    // runs each disk's batch serially, so its medium depth is always 1 and
    // a worker takes whatever queued while it was busy.)
    EXPECT_GE(backend->stats().submit_batches, kBusiestDiskOps);
  }
  std::free(arena);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendContractTest,
                         ::testing::Values("mem", "file", "uring"));

TEST(SyncFileBackend, BatchesSubmissions) {
  // One drain of 8 queued ops on one disk must go down as one worker
  // batch, not 8 — the submission amortization the seam promises.
  const std::string dir = TempDir();
  BackendOptions options;
  options.block_bytes = kBlock;
  options.queue_depth = 32;
  auto backend = MakeStorageBackend("file:" + dir, options).value();
  ASSERT_TRUE(backend->OpenDisk(0).ok());
  std::vector<std::byte*> bufs;
  for (int slot = 0; slot < 8; ++slot) {
    void* aligned = std::aligned_alloc(4096, static_cast<size_t>(kBlock));
    std::memcpy(aligned, Pattern(static_cast<uint8_t>(slot)).data(),
                static_cast<size_t>(kBlock));
    bufs.push_back(static_cast<std::byte*>(aligned));
    ASSERT_TRUE(backend->EnqueueWrite(0, slot, bufs.back()).ok());
  }
  std::vector<IoCompletion> done;
  ASSERT_TRUE(backend->DrainCompletions(done).ok());
  EXPECT_EQ(done.size(), 8u);
  EXPECT_EQ(backend->stats().submit_batches, 1);
  for (std::byte* buf : bufs) std::free(buf);
}

TEST(UringBackend, OneSubmissionPerDrainAcrossDisks) {
  // One ring serves every disk: a drain pushes all disks' ops down in a
  // single io_uring_enter instead of one per disk.
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  const std::string dir = TempDir();
  BackendOptions options;
  options.block_bytes = kBlock;
  options.queue_depth = 32;
  auto backend = MakeStorageBackend("uring:" + dir, options).value();
  ASSERT_EQ(backend->name(), "uring");
  std::vector<std::byte*> bufs;
  for (PhysicalDiskId disk = 0; disk < 4; ++disk) {
    ASSERT_TRUE(backend->OpenDisk(disk).ok());
    for (int slot = 0; slot < 2; ++slot) {
      void* aligned = std::aligned_alloc(4096, static_cast<size_t>(kBlock));
      const std::vector<std::byte> image =
          Pattern(static_cast<uint8_t>(disk * 2 + slot));
      std::memcpy(aligned, image.data(), static_cast<size_t>(kBlock));
      bufs.push_back(static_cast<std::byte*>(aligned));
      ASSERT_TRUE(backend->EnqueueWrite(disk, slot, bufs.back()).ok());
    }
  }
  const auto done = Drain(*backend);
  EXPECT_EQ(done.size(), 8u);
  for (const auto& [token, completion] : done) {
    EXPECT_TRUE(completion.status.ok());
    EXPECT_EQ(completion.bytes, kBlock);
  }
  EXPECT_EQ(backend->stats().writes, 8);
  EXPECT_EQ(backend->stats().submit_batches, 1);
  for (std::byte* buf : bufs) std::free(buf);
}

TEST(UringBackend, AvailabilityProbeIsStable) {
  const bool first = UringAvailable();
  EXPECT_EQ(UringAvailable(), first);  // Cached, not re-probed.
}

}  // namespace
}  // namespace scaddar
