// Deterministic fault-injection coverage: the schedule engine itself, the
// write-ahead move journal, and the headline guarantee — a crash at ANY
// phase boundary of ANY journaled move recovers to a placement byte-
// identical to the uninterrupted run.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "faults/injector.h"
#include "placement/scaddar_policy.h"
#include "random/sequence.h"
#include "server/migration.h"
#include "server/scenario.h"
#include "server/server.h"
#include "storage/block_io.h"
#include "storage/move_journal.h"

namespace scaddar {
namespace {

// ---------------------------------------------------------------------------
// FaultSchedule: serialization + determinism.

TEST(FaultScheduleTest, SerializationRoundTrips) {
  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kCrash,
                          .round = -1,
                          .move = 7,
                          .phase = MovePhase::kCopyLogged});
  schedule.Add(FaultEvent{.kind = FaultKind::kDiskFail, .round = 12,
                          .disk = 3});
  schedule.Add(FaultEvent{.kind = FaultKind::kTransientError,
                          .round = -1,
                          .disk = -1,
                          .probability = 0.125});
  schedule.Add(FaultEvent{.kind = FaultKind::kHook, .round = 4, .move = 2});
  const StatusOr<FaultSchedule> parsed =
      FaultSchedule::Deserialize(schedule.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, schedule);
}

TEST(FaultScheduleTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(FaultSchedule::Deserialize("").ok());
  EXPECT_FALSE(FaultSchedule::Deserialize("wrong-header\n").ok());
  EXPECT_FALSE(FaultSchedule::Deserialize("faults-v1\ncrash 1 2 9\n").ok());
  EXPECT_FALSE(
      FaultSchedule::Deserialize("faults-v1\ntransient 1 0 1.5\n").ok());
  EXPECT_FALSE(FaultSchedule::Deserialize("faults-v1\nbogus 1\n").ok());
  // Comments and blank lines are fine.
  EXPECT_TRUE(FaultSchedule::Deserialize("# note\nfaults-v1\n\nhook 1 0\n")
                  .ok());
}

TEST(FaultScheduleTest, BackendLinesRoundTripAndRejectMalformedFields) {
  // Round trip both backend fault kinds through the text form.
  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kBackendError,
                          .round = -1,
                          .disk = 2,
                          .probability = 0.25,
                          .backend = BackendFaultKind::kEio});
  schedule.Add(FaultEvent{.kind = FaultKind::kBackendError,
                          .round = 9,
                          .disk = -1,
                          .probability = 1.0,
                          .backend = BackendFaultKind::kShort});
  const StatusOr<FaultSchedule> parsed =
      FaultSchedule::Deserialize(schedule.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, schedule);

  // Malformed fields must be rejected with a clear error, never silently
  // ignored: bad kind token, out-of-range/NaN probability, non-numeric
  // disk or round, wrong arity.
  const auto reject = [](std::string_view line) {
    const StatusOr<FaultSchedule> bad = FaultSchedule::Deserialize(
        "faults-v1\n" + std::string(line) + "\n");
    EXPECT_FALSE(bad.ok()) << "accepted: " << line;
    if (!bad.ok()) {
      EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(bad.status().message().empty());
    }
  };
  reject("backend -1 0 eio 1.5");     // Probability above 1.
  reject("backend -1 0 eio -0.25");   // Probability below 0.
  reject("backend -1 0 eio nan");     // NaN fails the range check too.
  reject("backend -1 0 torn 0.5");    // Unknown fault kind token.
  reject("backend -1 disk3 eio 0.5"); // Non-numeric disk.
  reject("backend oops 0 eio 0.5");   // Non-numeric round.
  reject("backend -1 0 eio");         // Missing probability.
  reject("backend -1 0 eio 0.5 9");   // Trailing junk.
  // The transient line shares the probability validation.
  reject("transient -1 0 nan");
}

TEST(FaultScheduleTest, SnapshotLinesRoundTrip) {
  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kSnapshotCrash,
                          .move = 3,
                          .snapshot_phase = SnapshotPhase::kPrimaryWritten});
  schedule.Add(FaultEvent{.kind = FaultKind::kSnapshotCorrupt,
                          .move = 5,
                          .disk = 1});
  const StatusOr<FaultSchedule> parsed =
      FaultSchedule::Deserialize(schedule.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, schedule);
  EXPECT_FALSE(
      FaultSchedule::Deserialize("faults-v1\nsnapcrash 0 3\n").ok());
  EXPECT_FALSE(
      FaultSchedule::Deserialize("faults-v1\nsnapcorrupt 0\n").ok());
}

TEST(FaultScheduleTest, RandomSchedulesAreSeedDeterministic) {
  RandomScheduleOptions options;
  options.crashes = 3;
  options.disk_failures = 2;
  options.transient_probability = 0.05;
  const FaultSchedule a = FaultSchedule::Random(42, options);
  const FaultSchedule b = FaultSchedule::Random(42, options);
  const FaultSchedule c = FaultSchedule::Random(43, options);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.num_events(), 6);
  // Disk failures respect the spacing floor.
  int64_t last_round = -1;
  for (const FaultEvent& event : a.events()) {
    if (event.kind != FaultKind::kDiskFail) {
      continue;
    }
    if (last_round >= 0) {
      EXPECT_GE(event.round, last_round + options.failure_spacing);
    }
    last_round = event.round;
  }
}

TEST(FaultInjectorTest, CrashAndHookEventsAreOneShot) {
  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kCrash,
                          .round = -1,
                          .move = 1,
                          .phase = MovePhase::kIntentLogged});
  schedule.Add(FaultEvent{.kind = FaultKind::kHook, .round = -1, .move = 0});
  FaultInjector injector(schedule);
  int hook_calls = 0;
  injector.SetHook([&] { ++hook_calls; });
  injector.BeginRound(0);
  injector.BeginMove();  // Ordinal 0: hook fires.
  EXPECT_EQ(hook_calls, 1);
  EXPECT_FALSE(injector.CrashAt(MovePhase::kIntentLogged));
  injector.BeginMove();  // Ordinal 1: crash arms here.
  EXPECT_FALSE(injector.CrashAt(MovePhase::kCopyStaged));  // Wrong phase.
  EXPECT_TRUE(injector.CrashAt(MovePhase::kIntentLogged));
  // Disarmed: the same (move, phase) never fires again, even after a
  // post-recovery ordinal reset replays the same sequence.
  injector.ResetMoveCount();
  injector.BeginMove();
  injector.BeginMove();
  EXPECT_FALSE(injector.CrashAt(MovePhase::kIntentLogged));
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(injector.crashes_fired(), 1);
  EXPECT_EQ(injector.hooks_fired(), 1);
}

TEST(FaultInjectorTest, DiskFailuresFireOnlyInTheirRound) {
  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kDiskFail, .round = 5,
                          .disk = 2});
  schedule.Add(FaultEvent{.kind = FaultKind::kDiskFail, .round = 5,
                          .disk = 4});
  FaultInjector injector(schedule);
  injector.BeginRound(4);
  EXPECT_TRUE(injector.TakeDiskFailures().empty());
  injector.BeginRound(5);
  EXPECT_EQ(injector.TakeDiskFailures(),
            (std::vector<PhysicalDiskId>{2, 4}));
  EXPECT_TRUE(injector.TakeDiskFailures().empty());  // Consumed.
}

TEST(FaultInjectorTest, TransientErrorsAreSeedDeterministic) {
  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kTransientError,
                          .round = -1,
                          .disk = -1,
                          .probability = 0.5});
  const auto draw = [&](uint64_t seed) {
    FaultInjector injector(schedule, seed);
    injector.BeginRound(0);
    std::vector<bool> hits;
    for (int i = 0; i < 64; ++i) {
      hits.push_back(injector.FailTransfer(0, 1));
    }
    return hits;
  };
  EXPECT_EQ(draw(7), draw(7));
  EXPECT_NE(draw(7), draw(8));
}

// ---------------------------------------------------------------------------
// MoveJournal: WAL mechanics and recovery semantics.

TEST(MoveJournalTest, PhasesAdvanceAndCompactDropsCommittedPrefix) {
  MoveJournal journal;
  const int64_t a = journal.Begin(BlockRef{1, 0}, 0, 2);
  const int64_t b = journal.Begin(BlockRef{1, 1}, 1, 3);
  EXPECT_EQ(journal.pending(), 2);
  journal.MarkCopied(a);
  journal.MarkCommitted(a);
  EXPECT_EQ(journal.pending(), 1);
  journal.Compact();
  ASSERT_EQ(journal.size(), 1);
  EXPECT_EQ(journal.entries().front().id, b);
  // Ids keep increasing after compaction.
  EXPECT_GT(journal.Begin(BlockRef{2, 0}, 0, 1), b);
}

TEST(MoveJournalTest, SerializationRoundTrips) {
  MoveJournal journal;
  const int64_t a = journal.Begin(BlockRef{9, 3}, 1, 4);
  journal.Begin(BlockRef{9, 4}, 2, 5);
  journal.MarkCopied(a);
  const StatusOr<MoveJournal> parsed =
      MoveJournal::Deserialize(journal.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->entries(), journal.entries());
  EXPECT_EQ(parsed->pending(), journal.pending());
  EXPECT_FALSE(MoveJournal::Deserialize("").ok());
  EXPECT_FALSE(MoveJournal::Deserialize("moves-v1\nmove 0 1 0 0 2 7\n").ok());
}

TEST(MoveJournalTest, DeserializeRejectsNonConsecutiveIds) {
  const auto code = [](std::string_view text) {
    return MoveJournal::Deserialize(text).status().code();
  };
  // A gap, a repeat and a step back: the phase marks index entries by id.
  EXPECT_EQ(code("moves-v1\nnext 3\nmove 0 1 0 0 2 0\nmove 2 1 1 1 3 0\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("moves-v1\nnext 1\nmove 0 1 0 0 2 0\nmove 0 1 1 1 3 0\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("moves-v1\nnext 5\nmove 4 1 0 0 2 0\nmove 3 1 1 1 3 0\n"),
            StatusCode::kInvalidArgument);
  // A `next` id that does not follow the entries would reissue an id.
  EXPECT_EQ(code("moves-v1\nnext 1\nmove 0 1 0 0 2 0\nmove 1 1 1 1 3 0\n"),
            StatusCode::kInvalidArgument);

  // A compacted journal starts past id 0 and still resolves its ids.
  StatusOr<MoveJournal> compacted = MoveJournal::Deserialize(
      "moves-v1\nnext 7\nmove 5 1 0 0 2 1\nmove 6 1 1 1 3 0\n");
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  compacted->MarkCommitted(5);
  compacted->MarkCopied(6);
  EXPECT_EQ(compacted->entries()[0].phase, JournalPhase::kCommitted);
  EXPECT_EQ(compacted->entries()[1].phase, JournalPhase::kCopied);
  EXPECT_EQ(compacted->Begin(BlockRef{1, 2}, 0, 1), 7);
}

// A tiny store with one 4-block object spread over disks 0..3.
BlockStore MakeStore() {
  BlockStore store;
  SCADDAR_CHECK(store.PlaceObject(7, {0, 1, 2, 3}).ok());
  return store;
}

TEST(MoveJournalTest, RecoverDiscardsBareIntents) {
  BlockStore store = MakeStore();
  MoveJournal journal;
  journal.Begin(BlockRef{7, 0}, 0, 2);  // Crash before any durable copy.
  const StatusOr<JournalRecoveryStats> stats = journal.Recover(store);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->discarded_intents, 1);
  EXPECT_EQ(journal.pending(), 0);
  EXPECT_EQ(store.LocationOf(BlockRef{7, 0}).value(), 0);  // Untouched.
}

TEST(MoveJournalTest, RecoverReleasesOrphanStagedCopies) {
  BlockStore store = MakeStore();
  MoveJournal journal;
  journal.Begin(BlockRef{7, 0}, 0, 2);
  // Crash landed between StageCopy and the copied record: durable stage,
  // journal still says kIntent.
  ASSERT_TRUE(store.StageCopy(BlockRef{7, 0}, 2).ok());
  const StatusOr<JournalRecoveryStats> stats = journal.Recover(store);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->discarded_intents, 1);
  EXPECT_EQ(stats->orphan_stages_released, 1);
  EXPECT_EQ(store.staged_blocks(), 0);
  EXPECT_EQ(store.LocationOf(BlockRef{7, 0}).value(), 0);
}

TEST(MoveJournalTest, RecoverRollsCopiedEntriesForward) {
  BlockStore store = MakeStore();
  MoveJournal journal;
  const int64_t id = journal.Begin(BlockRef{7, 1}, 1, 3);
  ASSERT_TRUE(store.StageCopy(BlockRef{7, 1}, 3).ok());
  journal.MarkCopied(id);
  // Crash after the copied record, before the flip.
  const StatusOr<JournalRecoveryStats> stats = journal.Recover(store);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rolled_forward, 1);
  EXPECT_EQ(store.LocationOf(BlockRef{7, 1}).value(), 3);
  EXPECT_EQ(store.staged_blocks(), 0);
  // Idempotent: a second recovery finds nothing to do.
  const StatusOr<JournalRecoveryStats> again = journal.Recover(store);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->scanned, 0);
}

TEST(MoveJournalTest, RecoverRecognizesDurableFlips) {
  BlockStore store = MakeStore();
  MoveJournal journal;
  const int64_t id = journal.Begin(BlockRef{7, 2}, 2, 0);
  ASSERT_TRUE(store.StageCopy(BlockRef{7, 2}, 0).ok());
  journal.MarkCopied(id);
  ASSERT_TRUE(store.CommitStagedMove(BlockRef{7, 2}, 2, 0).ok());
  // Crash after the flip, before the commit record.
  const StatusOr<JournalRecoveryStats> stats = journal.Recover(store);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->already_applied, 1);
  EXPECT_EQ(store.LocationOf(BlockRef{7, 2}).value(), 0);
  EXPECT_EQ(journal.pending(), 0);
}

TEST(MoveJournalTest, StagedCopiesFailPolicyVerification) {
  BlockStore store = MakeStore();
  ASSERT_TRUE(store.StageCopy(BlockRef{7, 0}, 2).ok());
  EXPECT_EQ(store.staged_blocks(), 1);
  EXPECT_EQ(store.StagedTarget(BlockRef{7, 0}).value(), 2);
  // Double-stage and commit-from-wrong-source are refused.
  EXPECT_FALSE(store.StageCopy(BlockRef{7, 0}, 3).ok());
  EXPECT_FALSE(store.CommitStagedMove(BlockRef{7, 0}, 1, 2).ok());
  ASSERT_TRUE(store.AbortStagedCopy(BlockRef{7, 0}).ok());
  EXPECT_EQ(store.staged_blocks(), 0);
}

// ---------------------------------------------------------------------------
// The crash-point matrix: ~100 seeded schedules x {scale-up, scale-down,
// failure-removal}, killed at every journal phase, restarted, and required
// to land byte-identical to the uninterrupted twin — on the simulated tier
// and on real staged bytes (the in-memory backend).

enum class MatrixOp { kScaleUp, kScaleDown, kFailureRemoval };

std::unique_ptr<CmServer> MakeMatrixServer(uint64_t seed,
                                           const std::string& backend) {
  ServerConfig config;
  config.initial_disks = 5;
  config.master_seed = seed;
  config.journal_migration = true;
  config.storage_backend = backend;
  auto server = std::move(CmServer::Create(config)).value();
  SCADDAR_CHECK(server->AddObject(1, 150).ok());
  SCADDAR_CHECK(server->AddObject(2, 90).ok());
  SCADDAR_CHECK(server->AddObject(3, 60).ok());
  return server;
}

void ApplyMatrixOp(CmServer& server, MatrixOp op) {
  switch (op) {
    case MatrixOp::kScaleUp:
      ASSERT_TRUE(server.ScaleAdd(2).ok());
      break;
    case MatrixOp::kScaleDown:
      ASSERT_TRUE(server.ScaleRemove({1, 3}).ok());
      break;
    case MatrixOp::kFailureRemoval:
      // An unplanned failure enters the op log as a single-slot removal
      // (Section 5's failure handling); the drain then rebuilds from the
      // survivors.
      ASSERT_TRUE(server.ScaleRemove({2}).ok());
      break;
  }
}

// Placement fingerprint: every object's full materialized row.
std::map<ObjectId, std::vector<PhysicalDiskId>> Placement(
    const CmServer& server) {
  std::map<ObjectId, std::vector<PhysicalDiskId>> out;
  for (const ObjectId id : server.catalog().object_ids()) {
    const auto row = server.store().LocationsOf(id).value();
    out[id] = std::vector<PhysicalDiskId>(row.begin(), row.end());
  }
  return out;
}

// Ticks until the migration drains, restarting the server whenever an
// injected crash kills it.
void DrainWithRestarts(CmServer& server) {
  int64_t guard = 0;
  while (!server.migration().idle() || server.crashed()) {
    if (server.crashed()) {
      const StatusOr<JournalRecoveryStats> stats =
          server.SimulateCrashRestart();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    }
    server.Tick();
    ASSERT_LT(++guard, 100000) << "drain did not converge";
  }
}

// With a real backend, every block's authoritative image reads back intact.
void ExpectImagesIntact(CmServer& server) {
  BlockIoEngine* const engine = server.io_engine();
  if (engine == nullptr) {
    return;
  }
  for (const ObjectId id : server.catalog().object_ids()) {
    const int64_t blocks = server.catalog().GetObject(id).value().num_blocks;
    for (BlockIndex block = 0; block < blocks; ++block) {
      const BlockRef ref{id, block};
      const StatusOr<std::vector<std::byte>> image = engine->ReadImage(ref);
      ASSERT_TRUE(image.ok()) << image.status().ToString();
      EXPECT_TRUE(BlockIoEngine::CheckImage(
          ref, engine->content_seed(), image->data(),
          static_cast<int64_t>(image->size())))
          << "object " << id << " block " << block << " bytes corrupt";
    }
  }
}

class CrashMatrixTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CrashMatrixTest, EveryCrashPointRecoversToIdenticalPlacement) {
  const std::string backend = GetParam();
  constexpr uint64_t kSeeds[] = {0xc0a1, 0xc0a2, 0xc0a3, 0xc0a4,
                                 0xc0a5, 0xc0a6, 0xc0a7};
  constexpr MatrixOp kOps[] = {MatrixOp::kScaleUp, MatrixOp::kScaleDown,
                               MatrixOp::kFailureRemoval};
  int64_t crashes_exercised = 0;
  for (const uint64_t seed : kSeeds) {
    for (const MatrixOp op : kOps) {
      // The uninterrupted twin defines the expected final placement.
      auto twin = MakeMatrixServer(seed, backend);
      ApplyMatrixOp(*twin, op);
      DrainWithRestarts(*twin);
      ExpectImagesIntact(*twin);
      const auto expected = Placement(*twin);
      const auto expected_counts = twin->store().per_disk_counts();

      for (int phase = 0; phase < kNumMovePhases; ++phase) {
        auto server = MakeMatrixServer(seed, backend);
        FaultSchedule schedule;
        schedule.Add(FaultEvent{
            .kind = FaultKind::kCrash,
            .round = -1,
            // Spread crash ordinals over the migration's lifetime; every
            // (seed, op, phase) triple is a distinct schedule.
            .move = static_cast<int64_t>((seed + 5 * phase) % 37),
            .phase = static_cast<MovePhase>(phase)});
        FaultInjector injector(schedule, seed);
        server->AttachFaultInjector(&injector);
        ApplyMatrixOp(*server, op);
        DrainWithRestarts(*server);
        crashes_exercised += injector.crashes_fired();

        EXPECT_EQ(Placement(*server), expected)
            << "seed " << seed << " op " << static_cast<int>(op)
            << " phase " << phase;
        EXPECT_EQ(server->store().per_disk_counts(), expected_counts);
        EXPECT_EQ(server->store().staged_blocks(), 0);
        EXPECT_EQ(server->journal().pending(), 0);
        EXPECT_TRUE(server->VerifyIntegrity().ok());
        ExpectImagesIntact(*server);
      }
    }
  }
  // The matrix must actually exercise crashes, not schedules that never
  // fire (the ordinal formula keeps most within the migration's length).
  EXPECT_GT(crashes_exercised, 50);
}

INSTANTIATE_TEST_SUITE_P(Backends, CrashMatrixTest,
                         ::testing::Values("sim", "mem"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------------
// Move ordinals count the moves the executor attempts: entries the round's
// bandwidth gate turns away do not advance the ordinal a crash keys on.

TEST(CrashOrdinalTest, StarvedEntriesDoNotAdvanceTheMoveOrdinal) {
  // `from_disk0` blocks leaving disk 0 are queued ahead of one leaving disk
  // 1; disk 0 gets `disk0_budget` units, so all but that many starve. The
  // crash is armed at the intent boundary of move `crash_move`, which must
  // be the disk-1 block.
  const auto run_case = [](int from_disk0, int64_t disk0_budget,
                           int64_t crash_move) {
    ScaddarPolicy policy(4);
    DiskArray disks(DiskSpec{.capacity_blocks = 1'000'000,
                             .bandwidth_blocks_per_round = 8});
    BlockStore store(&disks);
    const std::vector<uint64_t> x0 =
        X0Sequence::Create(PrngKind::kSplitMix64, 0x0d1, 64)
            .value()
            .Materialize(400);
    ASSERT_TRUE(policy.AddObject(1, x0).ok());
    ASSERT_TRUE(disks.SyncLiveSet(policy.log().physical_disks()).ok());
    std::vector<PhysicalDiskId> locations;
    policy.LocateAllBlocks(1, locations);
    ASSERT_TRUE(store.PlaceObject(1, locations).ok());
    ASSERT_TRUE(policy.ApplyOp(ScalingOp::Add(1).value()).ok());
    ASSERT_TRUE(disks.SyncLiveSet(policy.log().physical_disks()).ok());

    MovePlan plan;
    BlockRef movable{1, -1};
    int queued_from_disk0 = 0;
    for (BlockIndex i = 0; i < 400; ++i) {
      const PhysicalDiskId from = locations[static_cast<size_t>(i)];
      if (from == policy.Locate(1, i)) {
        continue;
      }
      if (from == 0 && queued_from_disk0 < from_disk0) {
        plan.Add(BlockMove{.block = {1, i}});
        ++queued_from_disk0;
      } else if (from == 1 && movable.block < 0) {
        movable = BlockRef{1, i};
      }
    }
    ASSERT_EQ(queued_from_disk0, from_disk0);
    ASSERT_GE(movable.block, 0);
    plan.Add(BlockMove{.block = movable});

    MoveJournal journal;
    MigrationExecutor migration;
    migration.AttachJournal(&journal);
    migration.EnqueuePlan(plan);
    FaultSchedule schedule;
    schedule.Add(FaultEvent{.kind = FaultKind::kCrash,
                            .round = -1,
                            .move = crash_move,
                            .phase = MovePhase::kIntentLogged});
    FaultInjector injector(schedule);
    disks.set_fault_injector(&injector);
    injector.BeginRound(0);

    std::vector<int64_t> budget = disks.BandwidthBudgets();
    budget[0] = disk0_budget;
    // No journaled move commits before its round's pass ends: the moves
    // ahead of the crash are staged, not moved.
    EXPECT_EQ(migration.RunRound(budget, store, disks, policy), 0);
    EXPECT_EQ(store.staged_blocks(), crash_move);
    EXPECT_TRUE(migration.crashed());
    EXPECT_EQ(injector.crashes_fired(), 1);
    EXPECT_EQ(injector.moves_seen(), crash_move + 1);
    ASSERT_EQ(journal.size(), crash_move + 1);
    EXPECT_EQ(journal.entries().back().block, movable);
    EXPECT_EQ(journal.entries().back().phase, JournalPhase::kIntent);
  };
  // Disk 0 starved from the start: the crash fires on the first journaled
  // intent.
  run_case(/*from_disk0=*/2, /*disk0_budget=*/0, /*crash_move=*/0);
  // Disk 0 runs dry after one move mid-round: the entries behind it wait
  // without counting, so move 1 is the disk-1 block.
  run_case(/*from_disk0=*/3, /*disk0_budget=*/1, /*crash_move=*/1);
}

// ---------------------------------------------------------------------------
// Crash-during-streaming: the recovery contract holds with live streams
// (which die with the process) and the serving path running each round.

TEST(CrashRecoveryTest, StreamsDieButPlacementConverges) {
  ServerConfig config;
  config.initial_disks = 6;
  config.master_seed = 0xbeef;
  config.journal_migration = true;
  auto server = std::move(CmServer::Create(config)).value();
  ASSERT_TRUE(server->AddObject(1, 400).ok());
  ASSERT_TRUE(server->StartStream(1).ok());

  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kCrash,
                          .round = -1,
                          .move = 9,
                          .phase = MovePhase::kCopyLogged});
  FaultInjector injector(schedule, 0xbeef);
  server->AttachFaultInjector(&injector);

  ASSERT_TRUE(server->ScaleAdd(2).ok());
  while (!server->crashed()) {
    server->Tick();
  }
  EXPECT_EQ(injector.crashes_fired(), 1);
  // The crashed process ignores ticks.
  const int64_t round_before = server->round();
  server->Tick();
  EXPECT_EQ(server->round(), round_before);

  const StatusOr<JournalRecoveryStats> stats = server->SimulateCrashRestart();
  ASSERT_TRUE(stats.ok());
  // The crash hit the commit pass after the interrupted move's copied
  // record, so it rolls forward. The round's later moves were staged
  // behind bare intents: each intent is discarded and its stage released.
  EXPECT_EQ(stats->rolled_forward, 1);
  EXPECT_EQ(stats->discarded_intents, stats->scanned - 1);
  EXPECT_EQ(stats->orphan_stages_released, stats->scanned - 1);
  EXPECT_EQ(server->active_streams(), 0);  // Streams are volatile.
  DrainWithRestarts(*server);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

// ---------------------------------------------------------------------------
// Epoch guard: a scaling operation racing a migration round (injected via a
// hook at a move boundary) forces the remaining moves to re-plan; no move
// may target the superseded epoch's AF().

TEST(EpochGuardTest, MidRoundScalingOpRetargetsRemainingMoves) {
  ServerConfig config;
  config.initial_disks = 4;
  config.master_seed = 0x39a2;
  config.journal_migration = true;
  auto server = std::move(CmServer::Create(config)).value();
  ASSERT_TRUE(server->AddObject(1, 300).ok());

  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kHook, .round = -1, .move = 3});
  FaultInjector injector(schedule, 0x39a2);
  server->AttachFaultInjector(&injector);
  int64_t journal_size_at_hook = -1;
  injector.SetHook([&] {
    journal_size_at_hook = server->journal().size();
    // A second scaling operation lands while round moves are executing.
    ASSERT_TRUE(server->ScaleAdd(1).ok());
  });

  ASSERT_TRUE(server->ScaleAdd(1).ok());
  DrainWithRestarts(*server);
  ASSERT_EQ(injector.hooks_fired(), 1);
  ASSERT_GE(journal_size_at_hook, 0);
  EXPECT_TRUE(server->VerifyIntegrity().ok());

  // Every move journaled after the racing op committed must have targeted
  // the new epoch's AF() — re-planned, not executed against stale targets.
  const auto& entries = server->journal().entries();
  int64_t checked = 0;
  for (const JournalEntry& entry : entries) {
    if (entry.id < journal_size_at_hook) {
      continue;
    }
    EXPECT_EQ(entry.to,
              server->policy().Locate(entry.block.object, entry.block.block))
        << "move " << entry.id << " targeted a stale epoch";
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------------
// Transient migration errors: refused transfers burn bandwidth, re-queue,
// and the migration still converges exactly.

TEST(TransientErrorTest, MigrationConvergesThroughInjectedErrors) {
  ServerConfig config;
  config.initial_disks = 5;
  config.master_seed = 0x7e57;
  config.journal_migration = true;
  auto server = std::move(CmServer::Create(config)).value();
  ASSERT_TRUE(server->AddObject(1, 350).ok());

  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kTransientError,
                          .round = -1,
                          .disk = -1,
                          .probability = 0.3});
  FaultInjector injector(schedule, 0x7e57);
  server->AttachFaultInjector(&injector);

  ASSERT_TRUE(server->ScaleAdd(2).ok());
  DrainWithRestarts(*server);
  EXPECT_GT(server->migration().transient_errors(), 0);
  EXPECT_EQ(server->migration().transient_errors(),
            injector.transient_errors_fired());
  // Both endpoint disks record each refused transfer.
  int64_t recorded = 0;
  for (const PhysicalDiskId id : server->disks().live_ids()) {
    recorded += server->disks().GetDisk(id).value()->transient_errors();
  }
  EXPECT_EQ(recorded, 2 * server->migration().transient_errors());
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

// ---------------------------------------------------------------------------
// The chaos-soak scenario script (scenarios/chaos_soak.scn mirrors this
// flow) driven through the scenario interpreter's `crash` command.

TEST(ScenarioCrashTest, CrashCommandRecoversMidScript) {
  ServerConfig config;
  config.initial_disks = 6;
  config.master_seed = 0x50a7;
  config.journal_migration = true;
  auto server = std::move(CmServer::Create(config)).value();
  const StatusOr<ScenarioResult> result = RunScenario(*server, R"(
addobject 1 500
stream 1
scale add 2
tick 2
crash
drain
verify
scale remove 1
tick 1
crash
crash
drain
verify
)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->crashes, 3);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

}  // namespace
}  // namespace scaddar
