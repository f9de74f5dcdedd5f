// Multi-level checkpoint/restart coverage: the checksummed snapshot
// format, the CheckpointManager's L1/L2 write and fallback-load paths
// (torn sets, corrupted fragments, whole-location loss), and the headline
// guarantee — a kill/restart mid-traffic loses no committed move and lands
// byte-identical to an uninterrupted twin, with streams resuming at their
// saved positions. Cluster-mode capture/restore rides the same format.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cluster/cluster_server.h"
#include "faults/injector.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/snapshot.h"
#include "server/scenario.h"
#include "server/server.h"

namespace scaddar {
namespace {

// ---------------------------------------------------------------------------
// Snapshot format: checksummed framing + encode/decode round trips.

TEST(SnapshotFormatTest, ChecksummedFramingRejectsTamperedBytes) {
  const std::string document = WrapChecksummed("test-v1", "hello payload");
  const auto ok = UnwrapChecksummed("test-v1", document);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, "hello payload");

  EXPECT_FALSE(UnwrapChecksummed("other-v1", document).ok());
  std::string flipped = document;
  flipped.back() ^= 0x20;  // Last payload byte.
  EXPECT_FALSE(UnwrapChecksummed("test-v1", flipped).ok());
  std::string truncated = document.substr(0, document.size() - 3);
  EXPECT_FALSE(UnwrapChecksummed("test-v1", truncated).ok());
}

TEST(SnapshotFormatTest, ServerSnapshotRoundTrips) {
  ServerSnapshot snapshot;
  snapshot.policy = "scaddar";
  snapshot.oplog = "oplog text";
  snapshot.journal = "journal text";
  snapshot.objects.push_back(
      SnapshotObject{7, 3, 2, 5, 1, {0, 4, 2}});
  snapshot.staged.emplace_back(BlockRef{7, 1}, 9);
  snapshot.streams.push_back(SnapshotStream{42, 7, 2, 1, 10, 3, true, true});
  snapshot.startup_latencies = {1, 2, 2};
  snapshot.round = 123;
  snapshot.next_stream_id = 43;
  snapshot.completed_streams = 5;
  snapshot.total_served = 999;
  snapshot.total_hiccups = 3;

  const std::string document = EncodeServerSnapshot(snapshot);
  const auto decoded = DecodeServerSnapshot(document);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->policy, snapshot.policy);
  EXPECT_EQ(decoded->oplog, snapshot.oplog);
  EXPECT_EQ(decoded->journal, snapshot.journal);
  ASSERT_EQ(decoded->objects.size(), 1u);
  EXPECT_EQ(decoded->objects[0].row, snapshot.objects[0].row);
  EXPECT_EQ(decoded->staged, snapshot.staged);
  ASSERT_EQ(decoded->streams.size(), 1u);
  EXPECT_EQ(decoded->streams[0], snapshot.streams[0]);
  EXPECT_EQ(decoded->startup_latencies, snapshot.startup_latencies);
  EXPECT_EQ(decoded->round, snapshot.round);
  EXPECT_EQ(decoded->total_served, snapshot.total_served);

  // A flipped byte anywhere must fail the document checksum.
  std::string corrupt = document;
  corrupt[corrupt.size() / 3] ^= 0x01;
  EXPECT_FALSE(DecodeServerSnapshot(corrupt).ok());
}

// A small server state with every kind of section: rows of each width (an
// id outside [0, 2^32) included), a staged copy, a stream, latencies and
// the governor lines.
ServerSnapshot SmallSnapshot() {
  ServerSnapshot snapshot;
  snapshot.policy = "scaddar";
  snapshot.oplog = "oplog text\nover two lines";
  snapshot.journal = "moves-v1\nnext 12\n";
  snapshot.objects.push_back(SnapshotObject{1, 4, 1, 0, 0, {0, 10, 3, 255}});
  snapshot.objects.push_back(SnapshotObject{2, 3, 2, 1, 0, {256, 10, 65535}});
  snapshot.objects.push_back(SnapshotObject{3, 2, 1, 0, 1, {65536, 7}});
  snapshot.objects.push_back(
      SnapshotObject{4, 3, 1, 0, 1, {-1, int64_t{1} << 32, 2}});
  snapshot.objects.push_back(SnapshotObject{5, 0, 1, 0, 1, {}});
  snapshot.staged.emplace_back(BlockRef{1, 2}, 9);
  snapshot.streams.push_back(SnapshotStream{42, 1, 2, 1, 10, 3, false, true});
  snapshot.startup_latencies = {1, 2, 2};
  snapshot.round = 123;
  snapshot.governor_bits = 24;
  snapshot.governor_eps = 0.05;
  snapshot.reorg_triggers.push_back(ReorgTrigger{7, ReorgReason::kCov, 0.4});
  return snapshot;
}

std::string SmallClusterDocument() {
  ClusterSnapshot cluster;
  cluster.seats = {0, 1};
  cluster.next_member = 2;
  cluster.owners = {{1, 0}, {2, 1}};
  cluster.shards.push_back(
      ClusterSnapshotShard{0, false, EncodeServerSnapshot(SmallSnapshot())});
  cluster.shards.push_back(
      ClusterSnapshotShard{1, false, EncodeServerSnapshot(SmallSnapshot())});
  return EncodeClusterSnapshot(cluster);
}

// A cluster document decodes only if every nested shard document does.
bool ClusterDecodes(std::string_view document) {
  const auto cluster = DecodeClusterSnapshot(document);
  if (!cluster.ok()) {
    return false;
  }
  for (const ClusterSnapshotShard& shard : cluster->shards) {
    if (!DecodeServerSnapshot(shard.document).ok()) {
      return false;
    }
  }
  return true;
}

TEST(SnapshotFormatTest, EveryRowWidthRoundTrips) {
  const ServerSnapshot snapshot = SmallSnapshot();
  const auto decoded = DecodeServerSnapshot(EncodeServerSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->objects, snapshot.objects);
  EXPECT_EQ(decoded->staged, snapshot.staged);
  EXPECT_EQ(decoded->streams, snapshot.streams);
  EXPECT_EQ(decoded->journal, snapshot.journal);
  EXPECT_EQ(decoded->oplog, snapshot.oplog);
  EXPECT_EQ(decoded->reorg_triggers, snapshot.reorg_triggers);
  EXPECT_TRUE(ClusterDecodes(SmallClusterDocument()));
}

TEST(SnapshotFormatTest, EverySingleByteChangeFailsToDecode) {
  // Header line, text lines and binary rows alike: any one byte changed to
  // any other value is caught, for the document and for a cluster document
  // that nests it.
  std::string server = EncodeServerSnapshot(SmallSnapshot());
  for (char& byte : server) {
    for (int mask = 1; mask < 256; ++mask) {
      byte = static_cast<char>(byte ^ mask);
      ASSERT_FALSE(DecodeServerSnapshot(server).ok())
          << "offset " << &byte - server.data() << " mask " << mask;
      byte = static_cast<char>(byte ^ mask);
    }
  }
  std::string cluster = SmallClusterDocument();
  for (char& byte : cluster) {
    for (int mask = 1; mask < 256; ++mask) {
      byte = static_cast<char>(byte ^ mask);
      ASSERT_FALSE(ClusterDecodes(cluster))
          << "offset " << &byte - cluster.data() << " mask " << mask;
      byte = static_cast<char>(byte ^ mask);
    }
  }
}

TEST(SnapshotFormatTest, EveryTruncationFailsToDecode) {
  const std::string server = EncodeServerSnapshot(SmallSnapshot());
  for (size_t size = 0; size < server.size(); ++size) {
    ASSERT_FALSE(DecodeServerSnapshot(server.substr(0, size)).ok())
        << "size " << size;
  }
  const std::string cluster = SmallClusterDocument();
  for (size_t size = 0; size < cluster.size(); ++size) {
    ASSERT_FALSE(ClusterDecodes(cluster.substr(0, size))) << "size " << size;
  }
}

// Re-signs `document` with object 1's row length and width replaced: a
// checksum-valid document whose only fault is in that `object` line.
std::string WithObjectLine(std::string_view document, std::string_view len,
                           std::string_view width) {
  std::string payload(UnwrapChecksummed("scaddar-ckpt-v2", document).value());
  const std::string old_line = "object 1 4 1 0 0 4 1\n";
  const size_t at = payload.find(old_line);
  SCADDAR_CHECK(at != std::string::npos);
  payload.replace(at, old_line.size(),
                  "object 1 4 1 0 0 " + std::string(len) + " " +
                      std::string(width) + "\n");
  return WrapChecksummed("scaddar-ckpt-v2", payload);
}

TEST(SnapshotFormatTest, HostileRowLengthsAndWidthsAreRejected) {
  const std::string server = EncodeServerSnapshot(SmallSnapshot());
  // The unedited line decodes, so every failure below is the edit's.
  ASSERT_TRUE(DecodeServerSnapshot(WithObjectLine(server, "4", "1")).ok());
  const auto rejected = [](const std::string& document) {
    const auto decoded = DecodeServerSnapshot(document);
    return !decoded.ok() &&
           decoded.status().code() == StatusCode::kInvalidArgument;
  };
  const std::string bytes_left = std::to_string(server.size());
  // Length times width overflows int64, or runs past the payload.
  for (const auto& [len, width] :
       std::vector<std::pair<std::string, std::string>>{
           {"9223372036854775807", "8"},
           {"2305843009213693952", "8"},  // 2^61: 2^64 bytes.
           {"4611686018427387904", "4"},  // 2^62: 2^64 bytes.
           {"9223372036854775807", "1"},
           {bytes_left, "1"},
           {bytes_left, "8"},
           {"5", "1"},
           {"-1", "1"},
           {"-4611686018427387904", "2"}}) {
    EXPECT_TRUE(rejected(WithObjectLine(server, len, width)))
        << "len " << len << " width " << width;
  }
  for (const char* width : {"0", "3", "5", "6", "7", "9", "16", "-1", "-8"}) {
    EXPECT_TRUE(rejected(WithObjectLine(server, "4", width)))
        << "width " << width;
  }
  // Nested in a cluster document, the same line still fails.
  ClusterSnapshot cluster;
  cluster.seats = {0};
  cluster.next_member = 1;
  cluster.shards.push_back(ClusterSnapshotShard{
      0, false, WithObjectLine(server, "9223372036854775807", "8")});
  EXPECT_FALSE(ClusterDecodes(EncodeClusterSnapshot(cluster)));
}

// ---------------------------------------------------------------------------
// CheckpointManager: write levels, fallback load, redundancy.

TEST(CheckpointManagerTest, NewestValidSetWins) {
  CheckpointManager manager;
  ASSERT_TRUE(manager.Write("set one", 1, 10).ok());
  ASSERT_TRUE(manager.Write("set two", 2, 20).ok());
  const auto loaded = manager.LoadNewestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->payload, "set two");
  EXPECT_EQ(loaded->info.level, 2);
  EXPECT_EQ(loaded->info.round, 20);
  EXPECT_EQ(loaded->sets_rejected, 0);
  EXPECT_EQ(manager.stats().l1_written, 1);
  EXPECT_EQ(manager.stats().l2_written, 1);
}

TEST(CheckpointManagerTest, EmptyManagerReportsNotFound) {
  CheckpointManager manager;
  EXPECT_EQ(manager.LoadNewestValid().status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(manager.Write("payload", 3, 0).ok());  // Bad level.
}

TEST(CheckpointManagerTest, CorruptedNewestFallsBackToPreviousSet) {
  CheckpointManager manager;
  ASSERT_TRUE(manager.Write("good", 1, 1).ok());
  ASSERT_TRUE(manager.Write("newer", 1, 2).ok());
  // L1 has no redundancy: corrupting its only fragment kills the set.
  // Walk locations newest-first — `CorruptNewestAt` always prefers the
  // newest set present at a location, so the first success hits "newer".
  bool corrupted = false;
  for (int64_t loc = manager.num_locations() - 1; loc >= 0; --loc) {
    if (manager.CorruptNewestAt(loc).ok()) {
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  const auto loaded = manager.LoadNewestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->payload, "good");
  EXPECT_EQ(loaded->sets_rejected, 1);
}

class RedundancyTest
    : public ::testing::TestWithParam<CheckpointRedundancy> {};

TEST_P(RedundancyTest, LevelTwoSurvivesLossOfAnyOneLocation) {
  // Acceptance criterion: an L2 set restores correctly after deletion of
  // one snapshot location — whichever location it is.
  const std::string payload(1000, 'x');
  for (int64_t victim = 0; victim < 4; ++victim) {
    CheckpointManager manager(
        CheckpointOptions{.num_locations = 4, .redundancy = GetParam()});
    ASSERT_TRUE(manager.Write(payload, 2, 7).ok());
    ASSERT_TRUE(manager.DropLocation(victim).ok());
    const auto loaded = manager.LoadNewestValid();
    ASSERT_TRUE(loaded.ok())
        << "victim " << victim << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->payload, payload) << "victim " << victim;
  }
}

TEST_P(RedundancyTest, LevelTwoSurvivesOneCorruptedFragment) {
  const std::string payload(777, 'y');
  CheckpointManager manager(
      CheckpointOptions{.num_locations = 4, .redundancy = GetParam()});
  ASSERT_TRUE(manager.Write(payload, 2, 7).ok());
  bool corrupted = false;
  for (int64_t loc = 0; loc < manager.num_locations() && !corrupted; ++loc) {
    corrupted = manager.CorruptNewestAt(loc).ok();
  }
  ASSERT_TRUE(corrupted);
  const auto loaded = manager.LoadNewestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Schemes, RedundancyTest,
                         ::testing::Values(CheckpointRedundancy::kPartner,
                                           CheckpointRedundancy::kXor));

TEST(CheckpointManagerTest, XorRebuildIsCountedAndTrimmed) {
  // An awkward payload size (not divisible by the piece count) exercises
  // the parity trim path.
  const std::string payload(1001, 'z');
  CheckpointManager manager(CheckpointOptions{
      .num_locations = 5, .redundancy = CheckpointRedundancy::kXor});
  ASSERT_TRUE(manager.Write(payload, 2, 1).ok());
  ASSERT_TRUE(manager.DropLocation(2).ok());
  const auto loaded = manager.LoadNewestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->payload, payload);
  EXPECT_EQ(loaded->rebuilt_from_parity,
            manager.stats().parity_rebuilds > 0);
}

TEST(CheckpointManagerTest, ParseRedundancyTokens) {
  EXPECT_EQ(ParseCheckpointRedundancy("partner").value(),
            CheckpointRedundancy::kPartner);
  EXPECT_EQ(ParseCheckpointRedundancy("xor").value(),
            CheckpointRedundancy::kXor);
  EXPECT_FALSE(ParseCheckpointRedundancy("raid6").ok());
}

// ---------------------------------------------------------------------------
// Injected snapshot faults: a kill mid-write leaves a torn set the loader
// rejects; injected fragment corruption is caught by checksum.

TEST(SnapshotFaultTest, KillMidWriteLeavesTornSetAndLoaderFallsBack) {
  CheckpointManager manager(CheckpointOptions{
      .num_locations = 4, .redundancy = CheckpointRedundancy::kXor});
  ASSERT_TRUE(manager.Write("stable", 2, 1).ok());

  FaultSchedule schedule;
  // Ordinals count the *injector's* snapshots: the first write above ran
  // without one, so this write is ordinal 0. It dies after its primary
  // fragment: some fragments are durable, the set recorded but incomplete.
  schedule.Add(FaultEvent{.kind = FaultKind::kSnapshotCrash,
                          .move = 0,
                          .snapshot_phase = SnapshotPhase::kPrimaryWritten});
  FaultInjector injector(schedule);
  const auto written = manager.Write("torn", 2, 2, &injector);
  EXPECT_EQ(written.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(injector.snapshot_crashes_fired(), 1);

  const auto loaded = manager.LoadNewestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->payload, "stable");
  EXPECT_EQ(loaded->sets_rejected, 1);
}

TEST(SnapshotFaultTest, KillBeforeAnyFragmentLeavesNothingBehind) {
  CheckpointManager manager;
  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kSnapshotCrash,
                          .move = 0,
                          .snapshot_phase = SnapshotPhase::kCaptured});
  FaultInjector injector(schedule);
  EXPECT_EQ(manager.Write("doomed", 1, 1, &injector).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(manager.LoadNewestValid().status().code(), StatusCode::kNotFound);
}

TEST(SnapshotFaultTest, InjectedCorruptionIsCaughtByChecksum) {
  CheckpointManager manager;
  ASSERT_TRUE(manager.Write("good", 1, 1).ok());
  FaultSchedule schedule;
  // Corrupt whatever fragment snapshot ordinal 0 writes, at any location.
  schedule.Add(FaultEvent{.kind = FaultKind::kSnapshotCorrupt,
                          .move = 0,
                          .disk = -1});
  FaultInjector injector(schedule);
  ASSERT_TRUE(manager.Write("silently damaged", 1, 2, &injector).ok());
  EXPECT_EQ(injector.snapshot_corruptions_fired(), 1);
  const auto loaded = manager.LoadNewestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->payload, "good");  // The damaged set was rejected.
  EXPECT_EQ(loaded->sets_rejected, 1);
}

// ---------------------------------------------------------------------------
// Server-level kill/restart: the twin-server oracle.

ServerConfig RecoveryConfig(uint64_t seed) {
  ServerConfig config;
  config.initial_disks = 6;
  config.master_seed = seed;
  config.journal_migration = true;
  return config;
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

TEST(KillRestartTest, MidMigrationKillLosesNoCommittedMove) {
  // The uninterrupted twin defines the expected final placement; the
  // killed server must converge to the byte-identical state.
  auto twin = std::move(CmServer::Create(RecoveryConfig(0xabc1))).value();
  auto server = std::move(CmServer::Create(RecoveryConfig(0xabc1))).value();
  CheckpointManager manager;

  for (CmServer* s : {twin.get(), server.get()}) {
    ASSERT_TRUE(s->AddObject(1, 300).ok());
    ASSERT_TRUE(s->AddObject(2, 200).ok());
  }
  ASSERT_TRUE(server->EnableCheckpoints(&manager, 3).ok());

  for (CmServer* s : {twin.get(), server.get()}) {
    ASSERT_TRUE(s->ScaleAdd(2).ok());
    for (int i = 0; i < 4; ++i) {
      s->Tick();  // Part-way into the migration.
    }
  }

  // Kill mid-migration. Committed moves newer than the last checkpoint
  // must be replayed from the journal — none may be lost.
  const auto stats = server->KillRestartFromCheckpoint();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->set_id, 0);

  int64_t guard = 0;
  while (!twin->migration().idle()) {
    twin->Tick();
    ASSERT_LT(++guard, 10'000);
  }
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++guard, 10'000);
  }

  EXPECT_EQ(Placement(*server), Placement(*twin));
  EXPECT_EQ(server->store().per_disk_counts(), twin->store().per_disk_counts());
  EXPECT_EQ(server->store().staged_blocks(), 0);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
  EXPECT_TRUE(twin->VerifyIntegrity().ok());
}

TEST(KillRestartTest, RepeatedKillsConvergeAcrossScalingChurn) {
  auto twin = std::move(CmServer::Create(RecoveryConfig(0xabc2))).value();
  auto server = std::move(CmServer::Create(RecoveryConfig(0xabc2))).value();
  CheckpointManager manager(CheckpointOptions{
      .num_locations = 4, .redundancy = CheckpointRedundancy::kXor});

  for (CmServer* s : {twin.get(), server.get()}) {
    ASSERT_TRUE(s->AddObject(1, 250).ok());
    ASSERT_TRUE(s->AddObject(2, 150).ok());
    ASSERT_TRUE(s->AddObject(3, 100).ok());
  }
  ASSERT_TRUE(server->EnableCheckpoints(&manager, 4, 12).ok());

  const auto drive = [](CmServer& s, int op) {
    switch (op) {
      case 0:
        ASSERT_TRUE(s.ScaleAdd(2).ok());
        break;
      case 1:
        ASSERT_TRUE(s.ScaleRemove({1}).ok());
        break;
      case 2:
        ASSERT_TRUE(s.RemoveObject(3).ok());
        break;
    }
    for (int i = 0; i < 6; ++i) {
      s.Tick();
    }
  };
  for (int op = 0; op < 3; ++op) {
    drive(*twin, op);
    drive(*server, op);
    const auto stats = server->KillRestartFromCheckpoint();
    ASSERT_TRUE(stats.ok()) << "op " << op << ": "
                            << stats.status().ToString();
  }
  int64_t guard = 0;
  while (!twin->migration().idle() || !server->migration().idle()) {
    twin->Tick();
    server->Tick();
    ASSERT_LT(++guard, 10'000);
  }
  EXPECT_EQ(Placement(*server), Placement(*twin));
  EXPECT_TRUE(server->VerifyIntegrity().ok());
  EXPECT_GT(manager.stats().l2_written, 0);
}

TEST(KillRestartTest, StreamsResumeAtSavedPositions) {
  auto server = std::move(CmServer::Create(RecoveryConfig(0xabc3))).value();
  CheckpointManager manager;
  ASSERT_TRUE(server->AddObject(1, 500).ok());
  ASSERT_TRUE(server->AddObject(2, 400).ok());
  const int64_t stream_a = server->StartStream(1).value();
  const int64_t stream_b = server->StartStream(2).value();
  ASSERT_TRUE(server->EnableCheckpoints(&manager, 5).ok());
  for (int i = 0; i < 7; ++i) {
    server->Tick();
  }
  // Pause lands before the round-10 checkpoint, so the captured cursor for
  // stream B is frozen mid-object.
  ASSERT_TRUE(server->PauseStream(stream_b).ok());
  for (int i = 0; i < 3; ++i) {
    server->Tick();
  }
  server->Tick();  // Round 11: one past the round-10 checkpoint.

  // Capture the stream cursors as of the last checkpoint by re-reading the
  // newest set directly.
  const auto loaded = manager.LoadNewestValid();
  ASSERT_TRUE(loaded.ok());
  const auto snapshot = DecodeServerSnapshot(loaded->payload);
  ASSERT_TRUE(snapshot.ok());
  std::map<int64_t, SnapshotStream> saved;
  for (const SnapshotStream& s : snapshot->streams) {
    saved[s.id] = s;
  }
  ASSERT_TRUE(saved.contains(stream_a));
  ASSERT_TRUE(saved.contains(stream_b));
  const int64_t served_at_capture = snapshot->total_served;

  const auto stats = server->KillRestartFromCheckpoint();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->streams_restored, 2);

  // Both streams survived the restart at their checkpointed positions.
  ASSERT_EQ(server->active_streams(), 2);
  EXPECT_EQ(server->total_served(), served_at_capture);
  for (const Stream& stream : server->streams()) {
    const SnapshotStream& expect = saved.at(stream.id());
    EXPECT_EQ(stream.next_block(), expect.next_block) << stream.id();
    EXPECT_EQ(stream.paused(), expect.paused) << stream.id();
    EXPECT_EQ(stream.hiccups(), expect.hiccups) << stream.id();
  }
  // Serving continues: the unpaused stream advances, the paused one holds.
  const BlockIndex a_before = saved.at(stream_a).next_block;
  const BlockIndex b_before = saved.at(stream_b).next_block;
  server->Tick();
  for (const Stream& stream : server->streams()) {
    if (stream.id() == stream_a) {
      EXPECT_GT(stream.next_block(), a_before);
    } else {
      EXPECT_EQ(stream.next_block(), b_before);
    }
  }
}

TEST(KillRestartTest, MetadataMutationsSurviveViaBarrierCheckpoints) {
  auto server = std::move(CmServer::Create(RecoveryConfig(0xabc4))).value();
  CheckpointManager manager;
  ASSERT_TRUE(server->EnableCheckpoints(&manager, 1000).ok());
  // No periodic set will be due; the barrier after each metadata mutation
  // must still make it durable immediately.
  ASSERT_TRUE(server->AddObject(1, 120).ok());
  ASSERT_TRUE(server->AddObject(2, 80).ok());
  ASSERT_TRUE(server->RemoveObject(2).ok());
  const auto stats = server->KillRestartFromCheckpoint();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(server->catalog().Contains(1));
  EXPECT_FALSE(server->catalog().Contains(2));
  int64_t guard = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++guard, 10'000);
  }
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

TEST(KillRestartTest, ColdRestoreBuildsAFreshServer) {
  ServerConfig config = RecoveryConfig(0xabc5);
  auto server = std::move(CmServer::Create(config)).value();
  CheckpointManager manager;
  ASSERT_TRUE(server->AddObject(1, 200).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  ASSERT_TRUE(server->EnableCheckpoints(&manager, 5).ok());
  for (int i = 0; i < 10; ++i) {
    server->Tick();
  }
  const auto expected = Placement(*server);

  // The original process is gone; a new one restores from the manager.
  // The restart config carries the periodic-checkpoint knob (the original
  // enabled it programmatically; `config_` does not survive the process).
  server.reset();
  config.checkpoint_every = 5;
  const auto restored = CmServer::RestoreFromCheckpoint(config, manager);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(Placement(**restored), expected);
  EXPECT_EQ((*restored)->active_streams(), 1);
  EXPECT_EQ((*restored)->checkpoint_manager(), &manager);
  // Periodic checkpointing keeps running on the restored server.
  const int64_t sets_before = manager.num_sets();
  for (int i = 0; i < 10; ++i) {
    (*restored)->Tick();
  }
  EXPECT_GT(manager.num_sets(), sets_before);
}

// Blocks with at least two committed moves in `server`'s live journal.
int64_t BlocksMovedTwice(const CmServer& server) {
  std::map<std::pair<ObjectId, BlockIndex>, int> commits;
  int64_t moved_twice = 0;
  for (const JournalEntry& entry : server.journal().entries()) {
    if (entry.phase == JournalPhase::kCommitted &&
        ++commits[{entry.block.object, entry.block.block}] == 2) {
      ++moved_twice;
    }
  }
  return moved_twice;
}

TEST(KillRestartTest, ColdRestoreOfBlocksThatMovedTwice) {
  // No manager: the live journal never compacts, and holds blocks that
  // moved onto disk 8 and off it again. The document embeds only the
  // unfinished suffix, so a restore never replays a finished move over rows
  // that already record a later one.
  ServerConfig config;
  config.initial_disks = 8;
  config.journal_migration = true;
  auto server = std::move(CmServer::Create(config)).value();
  for (ObjectId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(server->AddObject(id, 500).ok());
  }
  const auto drain = [](CmServer& s) {
    int64_t guard = 0;
    while (!s.migration().idle()) {
      s.Tick();
      ASSERT_LT(++guard, 10'000);
    }
  };
  ASSERT_TRUE(server->ScaleAdd(2).ok());
  drain(*server);
  ASSERT_TRUE(server->ScaleRemove({8}).ok());
  drain(*server);
  ASSERT_GT(BlocksMovedTwice(*server), 0);

  const auto restored = CmServer::FromSnapshotDocument(
      config, EncodeServerSnapshot(server->CaptureState()));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(Placement(**restored), Placement(*server));
  EXPECT_TRUE((*restored)->VerifyIntegrity().ok());
}

TEST(KillRestartTest, RefusedWithoutManagerAndWithRealIoBackend) {
  auto server = std::move(CmServer::Create(RecoveryConfig(0xabc6))).value();
  EXPECT_EQ(server->KillRestartFromCheckpoint().status().code(),
            StatusCode::kFailedPrecondition);
  // The real-I/O engine persists its own layout + journal (PR 8); the
  // checkpoint tier covers the simulated backend only.
  ASSERT_TRUE(server->SelectBackend("mem").ok());
  CheckpointManager manager;
  EXPECT_EQ(server->AttachCheckpointManager(&manager).code(),
            StatusCode::kFailedPrecondition);
}

TEST(KillRestartTest, SnapshotKillPointMarksServerCrashed) {
  auto server = std::move(CmServer::Create(RecoveryConfig(0xabc7))).value();
  CheckpointManager manager;
  ASSERT_TRUE(server->AddObject(1, 150).ok());

  FaultSchedule schedule;
  // The bootstrap set is ordinal 0; the first periodic set (ordinal 1)
  // dies between capture and its primary fragment.
  schedule.Add(FaultEvent{.kind = FaultKind::kSnapshotCrash,
                          .move = 1,
                          .snapshot_phase = SnapshotPhase::kCaptured});
  FaultInjector injector(schedule);
  server->AttachFaultInjector(&injector);
  ASSERT_TRUE(server->EnableCheckpoints(&manager, 2).ok());

  while (!server->crashed()) {
    server->Tick();
  }
  EXPECT_EQ(injector.snapshot_crashes_fired(), 1);
  const int64_t round_when_killed = server->round();
  server->Tick();  // A crashed server ignores ticks.
  EXPECT_EQ(server->round(), round_when_killed);

  // Restart from the bootstrap set; the server rewinds and serves on.
  const auto stats = server->KillRestartFromCheckpoint();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(server->crashed());
  int64_t guard = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++guard, 10'000);
  }
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

TEST(KillRestartTest, MidReorgKillResumesPendingRedistributionWithoutRetrigger) {
  // The adaptive driver's recovery contract: a kill landing between a
  // self-triggered redistribution and its convergence must RESUME the
  // pending reorganization (replaying from the barrier checkpoint + the
  // journal), not count a fresh trigger — the restored trigger history is
  // the one that was captured, and the CoV watch stays quiet while the
  // resumed migration is in flight.
  ServerConfig config = RecoveryConfig(0xabc8);
  config.initial_disks = 4;
  config.bits = 10;           // Narrow generator: the layout drifts.
  config.governor_bits = 64;  // Budget effectively infinite: CoV-only.
  config.governor_eps = 0.05;
  config.reorg_cov_threshold = 0.35;
  config.reorg_check_every = 2;
  config.auto_reorg = true;
  auto server = std::move(CmServer::Create(config)).value();
  CheckpointManager manager;
  ASSERT_TRUE(server->AddObject(1, 1'200).ok());
  ASSERT_TRUE(server->AddObject(2, 800).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  ASSERT_TRUE(server->EnableCheckpoints(&manager, 1000).ok());

  // Churn on settled layouts until the watch fires; the triggered
  // FullRedistribution's own metadata barrier makes the trigger durable
  // before a single reorg move lands.
  int64_t guard = 0;
  bool triggered = false;
  for (int i = 0; i < 30 && !triggered; ++i) {
    ASSERT_TRUE(server->ScaleAdd(1).ok());
    while (!server->migration().idle()) {
      server->Tick();
      ASSERT_LT(++guard, 100'000);
    }
    for (int tick = 0; tick < 2 && !triggered; ++tick) {
      server->Tick();
      triggered = !server->reorg_triggers().empty();
    }
  }
  ASSERT_TRUE(triggered) << "CoV never crossed the threshold";
  const std::vector<ReorgTrigger> recorded = server->reorg_triggers();
  ASSERT_FALSE(server->migration().idle());  // Mid-reorg, by construction.

  // Kill mid-reorg and restart from the barrier checkpoint.
  const auto stats = server->KillRestartFromCheckpoint();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // Resumed, not re-triggered: the restored history is exactly the
  // captured one, and convergence adds nothing to it.
  EXPECT_EQ(server->reorg_triggers(), recorded);
  EXPECT_TRUE(server->reorg_driver().enabled());
  EXPECT_EQ(server->reorg_driver().cov_threshold(),
            config.reorg_cov_threshold);
  ASSERT_FALSE(server->migration().idle());
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++guard, 100'000);
  }
  EXPECT_EQ(server->reorg_triggers(), recorded);
  // And a few settled rounds after convergence stay quiet too: the
  // redistribution restored the balance the threshold asks for.
  for (int i = 0; i < 6; ++i) {
    server->Tick();
  }
  EXPECT_EQ(server->reorg_triggers(), recorded);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

// ---------------------------------------------------------------------------
// Scenario DSL: `checkpoint` + `killrestart` through the interpreter.

TEST(ScenarioCheckpointTest, KillRestartCommandDrivesTheFullPath) {
  auto server =
      std::move(CmServer::Create(RecoveryConfig(0x5ce9a))).value();
  const auto result = RunScenario(*server, R"(
addobject 1 300
stream 1
checkpoint 4 8 xor
tick 9
killrestart
scale add 2
tick 2
killrestart
drain
verify
)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->kill_restarts, 2);
  EXPECT_EQ(result->crashes, 2);
  // The scenario-owned manager was detached on exit.
  EXPECT_EQ(server->checkpoint_manager(), nullptr);
}

TEST(ScenarioCheckpointTest, KillRestartWithoutCheckpointIsALineError) {
  auto server =
      std::move(CmServer::Create(RecoveryConfig(0x5ce9b))).value();
  const auto result = RunScenario(*server, "killrestart\n");
  EXPECT_FALSE(result.ok());
}

TEST(ScenarioCheckpointTest, BadCheckpointArgumentsAreLineErrors) {
  auto server =
      std::move(CmServer::Create(RecoveryConfig(0x5ce9c))).value();
  EXPECT_FALSE(RunScenario(*server, "checkpoint 0\n").ok());
  EXPECT_FALSE(RunScenario(*server, "checkpoint 5 10 raid6\n").ok());
}

// ---------------------------------------------------------------------------
// Cluster mode: ShardMap + per-shard state through one checkpoint set.

TEST(ShardMapFromPartsTest, ValidatesAndRestoresRouting) {
  ShardMap original(3);
  original.AddMember();
  ASSERT_TRUE(original.RemoveMember(1).ok());

  const auto restored = ShardMap::FromParts(
      original.seats(), original.next_member(), original.epoch());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->seats(), original.seats());
  EXPECT_EQ(restored->epoch(), original.epoch());
  for (uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(restored->MemberOf(key), original.MemberOf(key));
  }
  // Ids stay never-reused: the next handout matches the original's.
  ShardMap grown = *restored;
  EXPECT_EQ(grown.AddMember(), original.next_member());

  EXPECT_FALSE(ShardMap::FromParts({}, 1, 0).ok());
  EXPECT_FALSE(ShardMap::FromParts({0, 0}, 2, 0).ok());
  EXPECT_FALSE(ShardMap::FromParts({0, -2}, 2, 0).ok());
  EXPECT_FALSE(ShardMap::FromParts({0, 5}, 3, 0).ok());
  EXPECT_FALSE(ShardMap::FromParts({0, 1}, 2, -1).ok());
}

ClusterConfig RecoveryClusterConfig() {
  ClusterConfig config;
  config.shard = RecoveryConfig(0xc1a5);
  config.shard.initial_disks = 4;
  config.initial_shards = 3;
  return config;
}

TEST(ClusterCheckpointTest, ShardBlocksThatMovedTwiceRestore) {
  // A shard has no manager and never compacts its journal; blocks that
  // moved twice on it must not break the cluster's cold restore.
  const ClusterConfig config = RecoveryClusterConfig();
  auto cluster = std::move(ClusterServer::Create(config)).value();
  for (ObjectId id = 1; id <= 9; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 200).ok());
  }
  const int member = cluster->members().front();
  CmServer& shard = *cluster->shard(member);
  const auto drain = [&] {
    int64_t guard = 0;
    while (!cluster->MigrationIdle()) {
      cluster->Tick();
      ASSERT_LT(++guard, 10'000);
    }
  };
  ASSERT_TRUE(shard.ScaleAdd(2).ok());
  drain();
  ASSERT_TRUE(shard.ScaleRemove({4}).ok());
  drain();
  ASSERT_GT(BlocksMovedTwice(shard), 0);

  CheckpointManager manager;
  ASSERT_TRUE(cluster->WriteCheckpoint(manager, 1).ok());
  const auto restored = ClusterServer::RestoreFromCheckpoint(config, manager);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (const int id : cluster->members()) {
    EXPECT_EQ(Placement(*(*restored)->shard(id)),
              Placement(*cluster->shard(id)))
        << "shard " << id;
  }
  EXPECT_TRUE((*restored)->VerifyIntegrity().ok());
}

TEST(ClusterCheckpointTest, RestoreRebuildsRoutingOwnersAndShards) {
  const ClusterConfig config = RecoveryClusterConfig();
  auto cluster = std::move(ClusterServer::Create(config)).value();
  for (ObjectId id = 1; id <= 9; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 40 + 10 * id).ok());
  }
  ASSERT_TRUE(cluster->StartStream(2).ok());
  ASSERT_TRUE(cluster->StartStream(5).ok());
  for (int i = 0; i < 6; ++i) {
    cluster->Tick();
  }
  // A membership change mid-flight: some transfers are queued at capture.
  ASSERT_TRUE(cluster->AddServerShard().ok());
  cluster->Tick();

  CheckpointManager manager(CheckpointOptions{
      .num_locations = 4, .redundancy = CheckpointRedundancy::kXor});
  ASSERT_TRUE(cluster->WriteCheckpoint(manager, 2).ok());
  // One snapshot location dies after the write; the XOR set must carry it.
  ASSERT_TRUE(manager.DropLocation(1).ok());

  const auto restored = ClusterServer::RestoreFromCheckpoint(config, manager);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ClusterServer& twin = **restored;
  EXPECT_EQ(twin.round(), cluster->round());
  EXPECT_EQ(twin.num_shards(), cluster->num_shards());
  EXPECT_EQ(twin.map().seats(), cluster->map().seats());
  EXPECT_EQ(twin.objects(), cluster->objects());
  for (const ObjectId id : cluster->objects()) {
    EXPECT_EQ(twin.OwnerOf(id), cluster->OwnerOf(id)) << "object " << id;
  }
  EXPECT_EQ(twin.active_streams(), cluster->active_streams());
  EXPECT_EQ(twin.total_served(), cluster->total_served());
  EXPECT_TRUE(twin.VerifyIntegrity().ok());

  // Both drive to convergence and agree object-for-object.
  int64_t guard = 0;
  while (!cluster->MigrationIdle() || !twin.MigrationIdle()) {
    cluster->Tick();
    twin.Tick();
    ASSERT_LT(++guard, 10'000);
  }
  EXPECT_TRUE(twin.VerifyIntegrity().ok());
  for (const ObjectId id : cluster->objects()) {
    EXPECT_EQ(twin.OwnerOf(id), cluster->OwnerOf(id)) << "object " << id;
  }
}

}  // namespace
}  // namespace scaddar
