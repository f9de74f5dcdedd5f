// EXP-I2 (extension) — replication end to end on `CmServer`: repair time
// after an unplanned failure as a function of disk bandwidth and replica
// count, and the data-loss table for overlapping failures. Section 6's
// "data mirroring may be a simple solution with SCADDAR", operationalized.

#include <cstdio>
#include <cmath>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "server/server.h"

namespace scaddar {
namespace {

constexpr int64_t kBlocks = 20000;

std::unique_ptr<CmServer> Build(int64_t disks, int64_t replicas,
                                int64_t bandwidth) {
  ServerConfig config;
  config.initial_disks = disks;
  config.disk_spec = {.capacity_blocks = 500'000,
                      .bandwidth_blocks_per_round = bandwidth};
  config.master_seed = 0xdeadull;
  auto server = std::move(CmServer::Create(config)).value();
  SCADDAR_CHECK(server->AddObject(1, kBlocks, 1, replicas).ok());
  return server;
}

void RepairTimePanel() {
  std::printf("\n--- repair time after one failure (10 disks, %lld blocks, "
              "20 streams) ---\n",
              static_cast<long long>(kBlocks));
  std::printf("%-4s %-12s %-14s %-14s %-12s %-10s\n", "R", "disk-bw",
              "repair-rounds", "copies-moved", "degraded", "hiccups");
  for (const int64_t replicas : {2, 3}) {
    for (const int64_t bandwidth : {8, 16, 32}) {
      auto server = Build(10, replicas, bandwidth);
      for (int s = 0; s < 20; ++s) {
        (void)server->StartStream(1);
      }
      for (int round = 0; round < 10; ++round) {
        server->Tick();
      }
      SCADDAR_CHECK(server->FailDisk(3).ok());
      int64_t rounds = 0;
      int64_t degraded = 0;
      int64_t hiccups = 0;
      while (!server->migration().idle() && rounds < 100000) {
        const RoundMetrics metrics = server->Tick();
        degraded += metrics.served_degraded;
        hiccups += metrics.hiccups;
        ++rounds;
      }
      std::printf("%-4lld %-12lld %-14lld %-14lld %-12lld %-10lld\n",
                  static_cast<long long>(replicas),
                  static_cast<long long>(bandwidth),
                  static_cast<long long>(rounds),
                  static_cast<long long>(server->migration().total_moved()),
                  static_cast<long long>(degraded),
                  static_cast<long long>(hiccups));
    }
  }
}

void DataLossPanel() {
  // Replica offsets at N=10: R=2 -> {0, 5}; R=3 -> {0, 3, 6}. Failing a
  // full offset coset before any repair is the adversarial case; failing
  // the same number of unrelated disks loses nothing.
  struct Case {
    int64_t replicas;
    std::vector<PhysicalDiskId> failed;
    const char* label;
  };
  const std::vector<Case> cases = {
      {2, {0}, "single disk"},
      {2, {0, 1}, "two unrelated disks"},
      {2, {0, 5}, "a mirror PAIR (0, 0+N/2)"},
      {3, {0, 3}, "two of a triple"},
      {3, {0, 1, 2}, "three unrelated disks"},
      {3, {0, 3, 6}, "a full replica TRIPLE"},
  };
  std::printf("\n--- overlapping failures before any repair (10 disks) ---\n");
  std::printf("%-4s %-28s %-18s\n", "R", "failure set", "unreadable blocks");
  for (const Case& c : cases) {
    auto server = Build(10, c.replicas, 16);
    for (const PhysicalDiskId disk : c.failed) {
      SCADDAR_CHECK(server->FailDisk(disk).ok());
    }
    std::printf("%-4lld %-28s %-18lld\n",
                static_cast<long long>(c.replicas), c.label,
                static_cast<long long>(server->UnreadableBlocks()));
  }
}

// Popularity-aware partial replication: with Zipf popularity, replicating
// only the hottest objects buys most of the availability at a fraction of
// the storage — mirror budget goes where the requests are.
void PartialReplicationPanel() {
  constexpr int64_t kObjects = 10;
  constexpr int64_t kBlocksPerObject = 2000;
  constexpr double kTheta = 0.729;  // Classic VoD skew.
  // Zipf request share of rank i.
  double harmonic = 0.0;
  std::vector<double> share(static_cast<size_t>(kObjects));
  for (int64_t i = 0; i < kObjects; ++i) {
    share[static_cast<size_t>(i)] =
        1.0 / std::pow(static_cast<double>(i + 1), kTheta);
    harmonic += share[static_cast<size_t>(i)];
  }
  for (double& s : share) {
    s /= harmonic;
  }
  std::printf("\n--- popularity-aware partial replication "
              "(10 objects, Zipf %.3f, 10 disks) ---\n",
              kTheta);
  std::printf("%-14s %-10s %-22s %-22s\n", "replicated", "storage",
              "blocks-at-risk", "requests-at-risk");
  for (const int64_t hot : {0, 2, 5, 10}) {
    ServerConfig config;
    config.initial_disks = 10;
    config.master_seed = 0x909ull;
    auto server = std::move(CmServer::Create(config)).value();
    for (ObjectId id = 0; id < kObjects; ++id) {
      SCADDAR_CHECK(server
                        ->AddObject(id, kBlocksPerObject, 1,
                                    id < hot ? 2 : 1)
                        .ok());
    }
    SCADDAR_CHECK(server->FailDisk(4).ok());
    const int64_t lost = server->UnreadableBlocks();
    // Requests-at-risk: weight each object's lost fraction by popularity.
    double requests_at_risk = 0.0;
    for (ObjectId id = 0; id < kObjects; ++id) {
      if (id >= hot) {
        // Unreplicated object: ~1/10 of its blocks were on the dead disk.
        requests_at_risk += share[static_cast<size_t>(id)] * 0.1;
      }
    }
    const double storage =
        1.0 + static_cast<double>(hot) / static_cast<double>(kObjects);
    std::printf("top %-10lld %-10.2f %-22lld %-22.4f\n",
                static_cast<long long>(hot), storage,
                static_cast<long long>(lost), requests_at_risk);
  }
}

}  // namespace
}  // namespace scaddar

int main() {
  scaddar::bench::PrintHeader(
      "EXP-I2", "replicated server: online repair and data-loss envelope");
  scaddar::RepairTimePanel();
  scaddar::DataLossPanel();
  scaddar::PartialReplicationPanel();
  scaddar::bench::PrintRule();
  std::printf(
      "Expected shape: repair rounds scale ~1/bandwidth; R=3 repairs move\n"
      "~1.7x the copies of R=2 (more offsets re-aim). Degraded serves and\n"
      "hiccups appear only when bandwidth is tight: the failed disk's\n"
      "read share folds onto its offset partners until repair completes.\n"
      "Without repair, data is lost only when a FULL replica coset fails\n"
      "(the mirror pair / triple rows); the same number of unrelated\n"
      "failures loses nothing.\n");
  return 0;
}
