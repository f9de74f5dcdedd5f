// Real-bytes coverage above the backend seam: the BlockIoEngine's image
// lifecycle (place / move / staged-copy / crash-restart), the acceptance
// oracle — a file-backed server is content-identical to the simulated
// default through scale-up and migration — and the headline recovery
// guarantee on real media: a crash mid-staged-copy rolls back torn bytes
// and converges to byte-identical block images.

#include "storage/block_io.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "faults/injector.h"
#include "server/server.h"
#include "storage/block_store.h"
#include "storage/move_journal.h"
#include "storage/storage_backend.h"

namespace scaddar {
namespace {

std::string TempDir() {
  std::string templ = ::testing::TempDir() + "scaddar_io_XXXXXX";
  char* made = ::mkdtemp(templ.data());
  EXPECT_NE(made, nullptr);
  return templ;
}

std::unique_ptr<BlockIoEngine> MakeEngine(const std::string& spec) {
  BlockIoEngine::Options options;
  options.spec = spec;
  options.block_bytes = 4096;
  options.queue_depth = 16;
  options.content_seed = 0xfeedface;
  auto engine = BlockIoEngine::Create(options);
  SCADDAR_CHECK(engine.ok());
  return std::move(engine).value();
}

/// Every authoritative block image of `object` re-read and verified
/// against its canonical form.
void ExpectImagesIntact(BlockIoEngine& engine, ObjectId object,
                        int64_t num_blocks) {
  for (int64_t block = 0; block < num_blocks; ++block) {
    const BlockRef ref{object, block};
    const auto image = engine.ReadImage(ref);
    ASSERT_TRUE(image.ok()) << "object " << object << " block " << block
                            << ": " << image.status().ToString();
    EXPECT_TRUE(BlockIoEngine::CheckImage(ref, engine.content_seed(),
                                          image->data(),
                                          static_cast<int64_t>(image->size())))
        << "object " << object << " block " << block << " bytes corrupt";
  }
}

TEST(BlockIoEngineTest, PlaceReadVerify) {
  auto engine = MakeEngine("file:" + TempDir());
  const std::vector<PhysicalDiskId> locations = {0, 1, 2, 1, 0, 3};
  ASSERT_TRUE(engine->PlaceObject(7, locations).ok());
  EXPECT_EQ(engine->stats().blocks_placed, 6);
  ExpectImagesIntact(*engine, 7, 6);
  // A wrong ref must not validate against another block's bytes.
  const auto image = engine->ReadImage({7, 0});
  ASSERT_TRUE(image.ok());
  EXPECT_FALSE(BlockIoEngine::CheckImage({7, 1}, engine->content_seed(),
                                         image->data(),
                                         static_cast<int64_t>(image->size())));
}

TEST(BlockIoEngineTest, StoreRefusesUnstagedMoveWhileEngineAttached) {
  auto engine = MakeEngine("file:" + TempDir());
  BlockStore store;
  store.AttachIoEngine(engine.get());
  ASSERT_TRUE(store.PlaceObject(1, {0, 0, 0}).ok());
  const int64_t revision = store.mutation_revision();
  EXPECT_EQ(store
                .ApplyMove(BlockMove{.block = {1, 1},
                                     .from_physical = 0,
                                     .to_physical = 5})
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(*store.LocationOf({1, 1}), 0);
  EXPECT_EQ(store.mutation_revision(), revision);
  ExpectImagesIntact(*engine, 1, 3);

  // Real bytes move one way: staged, copied, then committed.
  ASSERT_TRUE(store.StageCopy({1, 1}, 5).ok());
  std::vector<BlockRef> failed;
  ASSERT_TRUE(engine->FinishMigrationRound(&failed).ok());
  ASSERT_TRUE(failed.empty());
  ASSERT_TRUE(store.CommitStagedMove({1, 1}, 0, 5).ok());
  EXPECT_EQ(*store.LocationOf({1, 1}), 5);
  ExpectImagesIntact(*engine, 1, 3);
}

TEST(BlockIoEngineTest, StagedCopyFlowCommits) {
  auto engine = MakeEngine("file:" + TempDir());
  const std::vector<PhysicalDiskId> locations = {0, 1};
  ASSERT_TRUE(engine->PlaceObject(1, locations).ok());
  ASSERT_TRUE(engine->StageCopy({1, 0}, 0, 3).ok());
  EXPECT_EQ(engine->pending_copies(), 1);
  // No bytes have moved yet: the staged image cannot validate.
  ASSERT_TRUE(engine->ValidateStagedImage({1, 0}).ok());
  EXPECT_FALSE(*engine->ValidateStagedImage({1, 0}));
  std::vector<BlockRef> failed;
  ASSERT_TRUE(engine->FinishMigrationRound(&failed).ok());
  EXPECT_TRUE(failed.empty());
  EXPECT_EQ(engine->pending_copies(), 0);
  EXPECT_TRUE(*engine->ValidateStagedImage({1, 0}));
  ASSERT_TRUE(engine->CommitStaged({1, 0}, 0, 3).ok());
  ExpectImagesIntact(*engine, 1, 2);
}

TEST(BlockIoEngineTest, CrashRestartKeepsDurableImages) {
  const std::string dir = TempDir();
  auto engine = MakeEngine("file:" + dir);
  const std::vector<PhysicalDiskId> locations = {0, 1, 2, 3};
  ASSERT_TRUE(engine->PlaceObject(9, locations).ok());
  ASSERT_TRUE(engine->SimulateCrashRestart().ok());
  // Layout survived its serialize/restore round trip; bytes survived the
  // close/reopen of every disk.
  ExpectImagesIntact(*engine, 9, 4);
}

TEST(BlockIoEngineTest, CrashRestartDiscardsQueuedStagedBytes) {
  auto engine = MakeEngine("file:" + TempDir());
  const std::vector<PhysicalDiskId> locations = {0};
  ASSERT_TRUE(engine->PlaceObject(1, locations).ok());
  ASSERT_TRUE(engine->StageCopy({1, 0}, 0, 2).ok());
  ASSERT_TRUE(engine->SimulateCrashRestart().ok());
  // The queued copy's bytes never reached the medium; the staged slot
  // survives in the layout but its image must fail validation.
  EXPECT_EQ(engine->pending_copies(), 0);
  ASSERT_TRUE(engine->ValidateStagedImage({1, 0}).ok());
  EXPECT_FALSE(*engine->ValidateStagedImage({1, 0}));
  ExpectImagesIntact(*engine, 1, 1);  // The authoritative copy is fine.
}

// ---------------------------------------------------------------------------
// Recovery on real bytes: MoveJournal::Recover must refuse to roll a
// kCopied entry forward when the staged image is torn.

TEST(MoveJournalRealBytesTest, RecoverReleasesTornCopy) {
  auto engine = MakeEngine("file:" + TempDir());
  BlockStore store;
  store.AttachIoEngine(engine.get());
  ASSERT_TRUE(store.PlaceObject(1, {0, 1}).ok());

  // Protocol violation on purpose: log kCopied *without* executing the
  // batched copy (the natural executor only marks after
  // FinishMigrationRound). A crash between the mark and the medium is
  // exactly the torn window Recover must detect.
  MoveJournal journal;
  const int64_t id = journal.Begin({1, 0}, 0, 3);
  ASSERT_TRUE(store.StageCopy({1, 0}, 3).ok());
  journal.MarkCopied(id);
  ASSERT_TRUE(engine->SimulateCrashRestart().ok());  // Bytes vanish.

  const auto stats = journal.Recover(store);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->torn_copies_released, 1);
  EXPECT_EQ(stats->rolled_forward, 0);
  EXPECT_EQ(store.staged_blocks(), 0);
  EXPECT_EQ(*store.LocationOf({1, 0}), 0);  // Still at the source.
  ExpectImagesIntact(*engine, 1, 2);        // Source bytes untouched.
}

TEST(MoveJournalRealBytesTest, RecoverRollsForwardDurableCopy) {
  auto engine = MakeEngine("file:" + TempDir());
  BlockStore store;
  store.AttachIoEngine(engine.get());
  ASSERT_TRUE(store.PlaceObject(1, {0, 1}).ok());

  MoveJournal journal;
  const int64_t id = journal.Begin({1, 0}, 0, 3);
  ASSERT_TRUE(store.StageCopy({1, 0}, 3).ok());
  std::vector<BlockRef> failed;
  ASSERT_TRUE(engine->FinishMigrationRound(&failed).ok());
  ASSERT_TRUE(failed.empty());
  journal.MarkCopied(id);  // Bytes are durable; the flip was lost.
  ASSERT_TRUE(engine->SimulateCrashRestart().ok());

  const auto stats = journal.Recover(store);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rolled_forward, 1);
  EXPECT_EQ(stats->torn_copies_released, 0);
  EXPECT_EQ(*store.LocationOf({1, 0}), 3);  // Flip completed.
  ExpectImagesIntact(*engine, 1, 2);
}

// ---------------------------------------------------------------------------
// Server-level acceptance: file backend vs. simulated backend.

ServerConfig IoConfig() {
  ServerConfig config;
  config.initial_disks = 4;
  config.disk_spec = {.capacity_blocks = 50'000,
                      .bandwidth_blocks_per_round = 8};
  config.master_seed = 7701;
  return config;
}

/// Drives one server through the shared script: ingest, stream, scale up
/// mid-playback, then run until playback and migration both finish.
void DriveServer(CmServer& server) {
  ASSERT_TRUE(server.AddObject(1, 120).ok());
  ASSERT_TRUE(server.AddObject(2, 80).ok());
  ASSERT_TRUE(server.StartStream(1).ok());
  ASSERT_TRUE(server.StartStream(2).ok());
  for (int round = 0; round < 10; ++round) {
    server.Tick();
  }
  ASSERT_TRUE(server.ScaleAdd(2).ok());
  int rounds = 0;
  while (!server.migration().idle() || server.active_streams() > 0) {
    server.Tick();
    ASSERT_LT(++rounds, 10'000);
  }
  ASSERT_TRUE(server.VerifyIntegrity().ok());
}

TEST(FileBackendServerTest, ContentIdenticalToSimulatedBackend) {
  auto sim = CmServer::Create(IoConfig());
  ASSERT_TRUE(sim.ok());

  ServerConfig file_config = IoConfig();
  file_config.storage_backend = "file:" + TempDir();
  file_config.io_queue_depth = 16;
  auto file = CmServer::Create(file_config);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_NE((*file)->io_engine(), nullptr);

  DriveServer(**sim);
  DriveServer(**file);

  // Identical serving history and placement...
  EXPECT_EQ((*sim)->total_served(), (*file)->total_served());
  EXPECT_EQ((*sim)->total_hiccups(), (*file)->total_hiccups());
  EXPECT_EQ((*sim)->completed_streams(), (*file)->completed_streams());
  ASSERT_EQ((*sim)->store().total_blocks(), (*file)->store().total_blocks());
  for (const ObjectId object : (*sim)->catalog().object_ids()) {
    const auto obj = (*sim)->catalog().GetObject(object);
    ASSERT_TRUE(obj.ok());
    for (int64_t block = 0; block < obj->num_blocks; ++block) {
      EXPECT_EQ(*(*sim)->store().LocationOf({object, block}),
                *(*file)->store().LocationOf({object, block}))
          << "object " << object << " block " << block;
    }
  }

  // ...and every file-backed block image reads back byte-identical to its
  // canonical form (the round-trip read-back acceptance check).
  BlockIoEngine& engine = *(*file)->io_engine();
  EXPECT_GT(engine.stats().serve_reads, 0);
  EXPECT_EQ(engine.stats().serve_errors, 0);
  for (const ObjectId object : (*file)->catalog().object_ids()) {
    const auto obj = (*file)->catalog().GetObject(object);
    ASSERT_TRUE(obj.ok());
    ExpectImagesIntact(engine, object, obj->num_blocks);
  }
}

TEST(FileBackendServerTest, UringSpecServesIdentically) {
  // On kernels without io_uring this exercises the documented sync
  // fallback through the same spec — either way the scenario must hold.
  ServerConfig config = IoConfig();
  config.storage_backend = "uring:" + TempDir();
  config.io_queue_depth = 16;
  auto server = CmServer::Create(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  DriveServer(**server);
  BlockIoEngine& engine = *(*server)->io_engine();
  EXPECT_EQ(engine.stats().serve_errors, 0);
  for (const ObjectId object : (*server)->catalog().object_ids()) {
    const auto obj = (*server)->catalog().GetObject(object);
    ASSERT_TRUE(obj.ok());
    ExpectImagesIntact(engine, object, obj->num_blocks);
  }
}

/// Overlapping scaling ops: a second op issued before the first drains
/// re-queues blocks that are already queued, so a two-phase round can meet
/// a block it staged earlier in the same round. The mem backend must skip
/// that duplicate exactly as the one-phase sim round does and land the
/// same placement, serving history and move count in the same rounds.
TEST(MemBackendServerTest, OverlappingScalingOpsMatchSimulatedBackend) {
  struct Run {
    int64_t rounds = 0;
    int64_t served = 0;
    int64_t moved = 0;
    std::vector<PhysicalDiskId> placement;
    std::unordered_map<PhysicalDiskId, int64_t> per_disk;
  };
  const auto drive = [](const std::string& backend) {
    ServerConfig config;
    config.initial_disks = 8;
    config.master_seed = 0x5ce11ull;
    config.journal_migration = true;
    config.storage_backend = backend;
    auto server_or = CmServer::Create(config);
    SCADDAR_CHECK(server_or.ok());
    CmServer& server = **server_or;
    SCADDAR_CHECK(server.AddObject(1, 4000).ok());
    SCADDAR_CHECK(server.StartStream(1).ok());
    for (int round = 0; round < 5; ++round) {
      server.Tick();
    }
    SCADDAR_CHECK(server.ScaleAdd(2).ok());
    server.Tick();
    SCADDAR_CHECK(server.ScaleAdd(2).ok());
    while (!server.migration().idle()) {
      server.Tick();
      SCADDAR_CHECK(server.round() < 10'000);
    }
    EXPECT_TRUE(server.VerifyIntegrity().ok()) << backend;
    Run run;
    run.rounds = server.round();
    run.served = server.total_served();
    run.moved = server.migration().total_moved();
    const auto row = server.store().LocationsOf(1);
    SCADDAR_CHECK(row.ok());
    run.placement.assign(row->begin(), row->end());
    run.per_disk = server.store().per_disk_counts();
    return run;
  };
  const Run sim = drive("sim");
  const Run mem = drive("mem");
  EXPECT_EQ(sim.placement, mem.placement);
  EXPECT_EQ(sim.per_disk, mem.per_disk);
  EXPECT_EQ(sim.served, mem.served);
  EXPECT_EQ(sim.moved, mem.moved);
  EXPECT_EQ(sim.rounds, mem.rounds);
  EXPECT_GT(sim.moved, 0);
}

// ---------------------------------------------------------------------------
// Crash matrix on real media: tear the server down mid-staged-copy on each
// backend scheme; recovery must restore byte-identical images. The uring
// rows demand the real ring (skipped on kernels without io_uring) so the
// matrix never silently degrades into a second copy of the sync rows.

void CrashAtPhaseRecoversBytes(const std::string& scheme, MovePhase phase) {
  ServerConfig config = IoConfig();
  config.storage_backend = scheme + ":" + TempDir();
  auto server_or = CmServer::Create(config);
  ASSERT_TRUE(server_or.ok());
  CmServer& server = **server_or;
  ASSERT_TRUE(server.AddObject(1, 200).ok());
  ASSERT_TRUE(server.AddObject(2, 150).ok());

  FaultSchedule schedule;
  schedule.Add(
      FaultEvent{.kind = FaultKind::kCrash, .round = -1, .move = 5,
                 .phase = phase});
  FaultInjector injector(schedule);
  server.AttachFaultInjector(&injector);

  ASSERT_TRUE(server.ScaleAdd(2).ok());
  int rounds = 0;
  bool crashed_once = false;
  while (!server.migration().idle() || server.crashed()) {
    if (server.crashed()) {
      crashed_once = true;
      const auto stats = server.SimulateCrashRestart();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    }
    server.Tick();
    ASSERT_LT(++rounds, 20'000);
  }
  EXPECT_TRUE(crashed_once);
  ASSERT_TRUE(server.VerifyIntegrity().ok());
  BlockIoEngine& engine = *server.io_engine();
  for (const ObjectId object : server.catalog().object_ids()) {
    const auto obj = server.catalog().GetObject(object);
    ASSERT_TRUE(obj.ok());
    ExpectImagesIntact(engine, object, obj->num_blocks);
  }
}

TEST(FileBackendCrashTest, CrashAtCopyStagedRecoversBytes) {
  CrashAtPhaseRecoversBytes("file", MovePhase::kCopyStaged);
}

TEST(FileBackendCrashTest, CrashAtCopyLoggedRecoversBytes) {
  CrashAtPhaseRecoversBytes("file", MovePhase::kCopyLogged);
}

TEST(FileBackendCrashTest, CrashAtLocationFlippedRecoversBytes) {
  CrashAtPhaseRecoversBytes("file", MovePhase::kLocationFlipped);
}

#define SCADDAR_REQUIRE_URING()                                   \
  do {                                                            \
    if (!UringAvailable()) {                                      \
      GTEST_SKIP() << "io_uring unavailable on this kernel";      \
    }                                                             \
  } while (false)

TEST(UringBackendCrashTest, CrashAtCopyStagedRecoversBytes) {
  SCADDAR_REQUIRE_URING();
  CrashAtPhaseRecoversBytes("uring", MovePhase::kCopyStaged);
}

TEST(UringBackendCrashTest, CrashAtCopyLoggedRecoversBytes) {
  SCADDAR_REQUIRE_URING();
  CrashAtPhaseRecoversBytes("uring", MovePhase::kCopyLogged);
}

TEST(UringBackendCrashTest, CrashAtLocationFlippedRecoversBytes) {
  SCADDAR_REQUIRE_URING();
  CrashAtPhaseRecoversBytes("uring", MovePhase::kLocationFlipped);
}

// ---------------------------------------------------------------------------
// Backend fault injection end-to-end: seeded EIO under migration load.

TEST(FileBackendFaultTest, InjectedEioRetriesToConvergence) {
  ServerConfig config = IoConfig();
  config.storage_backend = "file:" + TempDir();
  auto server_or = CmServer::Create(config);
  ASSERT_TRUE(server_or.ok());
  CmServer& server = **server_or;
  ASSERT_TRUE(server.AddObject(1, 300).ok());

  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kBackendError,
                          .round = -1,
                          .disk = -1,
                          .probability = 0.2,
                          .backend = BackendFaultKind::kEio});
  FaultInjector injector(schedule);
  server.AttachFaultInjector(&injector);

  ASSERT_TRUE(server.ScaleAdd(2).ok());
  int rounds = 0;
  while (!server.migration().idle()) {
    server.Tick();
    ASSERT_LT(++rounds, 50'000);
  }
  server.AttachFaultInjector(nullptr);
  EXPECT_GT(injector.backend_faults_fired(), 0);
  EXPECT_GT(server.io_engine()->backend().stats().injected_eio, 0);
  ASSERT_TRUE(server.VerifyIntegrity().ok());
  for (const ObjectId object : server.catalog().object_ids()) {
    const auto obj = server.catalog().GetObject(object);
    ASSERT_TRUE(obj.ok());
    ExpectImagesIntact(*server.io_engine(), object, obj->num_blocks);
  }
}

}  // namespace
}  // namespace scaddar
