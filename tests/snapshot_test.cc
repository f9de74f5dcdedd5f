#include <gtest/gtest.h>

#include "recovery/snapshot.h"
#include "server/server.h"

namespace scaddar {
namespace {

ServerConfig Config(const char* policy = "scaddar") {
  ServerConfig config;
  config.initial_disks = 5;
  config.policy = policy;
  config.master_seed = 424242;
  return config;
}

std::unique_ptr<CmServer> Make(const ServerConfig& config) {
  return std::move(CmServer::Create(config)).value();
}

void DrainMigration(CmServer& server) {
  int rounds = 0;
  while (!server.migration().idle()) {
    server.Tick();
    SCADDAR_CHECK(++rounds < 100000);
  }
  server.Tick();
}

/// Restores a fresh server from `server`'s encoded snapshot document.
StatusOr<std::unique_ptr<CmServer>> RoundTrip(const CmServer& server,
                                              const ServerConfig& config) {
  return CmServer::FromSnapshotDocument(
      config, EncodeServerSnapshot(server.CaptureState()));
}

TEST(SnapshotTest, RoundTripPreservesEveryBlockLocation) {
  auto server = Make(Config());
  ASSERT_TRUE(server->AddObject(1, 800).ok());
  ASSERT_TRUE(server->ScaleAdd(2).ok());
  DrainMigration(*server);
  ASSERT_TRUE(server->AddObject(2, 400, 3).ok());  // Registered at epoch 1.
  ASSERT_TRUE(server->ScaleRemove({3}).ok());
  DrainMigration(*server);

  const auto restored = RoundTrip(*server, Config());
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ((*restored)->policy().current_disks(),
            server->policy().current_disks());
  EXPECT_EQ((*restored)->policy().log().Serialize(),
            server->policy().log().Serialize());
  EXPECT_EQ((*restored)->policy().epoch_added(2), 1);
  for (const ObjectId id : {1, 2}) {
    const int64_t blocks = server->catalog().GetObject(id)->num_blocks;
    for (BlockIndex i = 0; i < blocks; ++i) {
      ASSERT_EQ((*restored)->policy().Locate(id, i),
                server->policy().Locate(id, i))
          << "object " << id << " block " << i;
    }
  }
  EXPECT_TRUE((*restored)->migration().idle());
  EXPECT_TRUE((*restored)->VerifyIntegrity().ok());
  EXPECT_EQ((*restored)->store().total_blocks(),
            server->store().total_blocks());
}

TEST(SnapshotTest, PreservesSeedGenerations) {
  auto server = Make(Config());
  ASSERT_TRUE(server->AddObject(1, 300).ok());
  ASSERT_TRUE(server->FullRedistribution().ok());
  DrainMigration(*server);
  ASSERT_EQ(server->catalog().GetObject(1)->seed_generation, 1);

  const auto restored = RoundTrip(*server, Config());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->catalog().GetObject(1)->seed_generation, 1);
  for (BlockIndex i = 0; i < 300; ++i) {
    ASSERT_EQ((*restored)->policy().Locate(1, i),
              server->policy().Locate(1, i));
  }
  EXPECT_TRUE((*restored)->VerifyIntegrity().ok());
}

TEST(SnapshotTest, RejectsCorruptedInput) {
  const ServerConfig config = Config();
  EXPECT_FALSE(CmServer::FromSnapshotDocument(config, "").ok());
  EXPECT_FALSE(CmServer::FromSnapshotDocument(config, "garbage\n").ok());

  auto server = Make(config);
  ASSERT_TRUE(server->AddObject(1, 50).ok());
  const std::string document = EncodeServerSnapshot(server->CaptureState());
  ASSERT_TRUE(CmServer::FromSnapshotDocument(config, document).ok());
  // Torn: the header's byte count no longer matches.
  EXPECT_FALSE(CmServer::FromSnapshotDocument(
                   config, document.substr(0, document.size() - 3))
                   .ok());
  // Corrupt: one payload byte flipped under an intact header.
  std::string flipped = document;
  flipped[flipped.size() - 2] ^= 0x01;
  EXPECT_FALSE(CmServer::FromSnapshotDocument(config, flipped).ok());
  // Checksummed, but not a snapshot payload.
  EXPECT_FALSE(CmServer::FromSnapshotDocument(
                   config, WrapChecksummed("scaddar-ckpt-v2", "unknown 1\n"))
                   .ok());
  EXPECT_FALSE(CmServer::FromSnapshotDocument(
                   config, WrapChecksummed("scaddar-ckpt-v2", ""))
                   .ok());
}

TEST(SnapshotTest, RejectsOutOfRangeRegistrationEpoch) {
  auto server = Make(Config());
  ASSERT_TRUE(server->AddObject(1, 10).ok());
  ASSERT_TRUE(server->ScaleAdd(1).ok());
  DrainMigration(*server);
  for (const Epoch epoch : {Epoch{2}, Epoch{-1}}) {
    ServerSnapshot snapshot = server->CaptureState();
    ASSERT_EQ(snapshot.objects.size(), 1u);
    snapshot.objects[0].epoch_added = epoch;
    EXPECT_EQ(CmServer::FromSnapshotDocument(Config(),
                                             EncodeServerSnapshot(snapshot))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "epoch " << epoch;
  }
}

TEST(SnapshotTest, RejectsPolicyMismatch) {
  auto server = Make(Config());
  ASSERT_TRUE(server->AddObject(1, 10).ok());
  EXPECT_EQ(RoundTrip(*server, Config("mod")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, StatefulPoliciesAreUnimplemented) {
  auto server = Make(Config("directory"));
  ASSERT_TRUE(server->AddObject(1, 10).ok());
  EXPECT_EQ(RoundTrip(*server, Config("directory")).status().code(),
            StatusCode::kUnimplemented);
}

TEST(SnapshotTest, DeterministicPoliciesAllRoundTrip) {
  for (const char* name : {"scaddar", "naive", "mod", "roundrobin"}) {
    auto server = Make(Config(name));
    ASSERT_TRUE(server->AddObject(1, 300).ok());
    ASSERT_TRUE(server->ScaleAdd(1).ok());
    DrainMigration(*server);
    const auto restored = RoundTrip(*server, Config(name));
    ASSERT_TRUE(restored.ok()) << name << ": " << restored.status();
    for (BlockIndex i = 0; i < 300; ++i) {
      ASSERT_EQ((*restored)->policy().Locate(1, i),
                server->policy().Locate(1, i))
          << name << " block " << i;
    }
    EXPECT_TRUE((*restored)->VerifyIntegrity().ok()) << name;
  }
}

}  // namespace
}  // namespace scaddar
