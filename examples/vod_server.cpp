// Video-on-demand scenario: a CM server keeps serving hundreds of
// streams while a 2-disk group is added online. This is the paper's
// motivating use case — no downtime, no broken streams, background
// migration paid for with leftover bandwidth.
//
// Run: ./build/examples/vod_server

#include <cstdio>

#include "server/server.h"
#include "server/workload/traffic_engine.h"
#include "storage/disk_model.h"

using scaddar::CmServer;
using scaddar::ObjectId;
using scaddar::RoundMetrics;
using scaddar::ServerConfig;
using scaddar::TrafficEngine;

int main() {
  // Hardware: an array of 2001-era 10k-rpm drives; the round length is one
  // block's playback time, so bandwidth-in-blocks/round comes from drive
  // physics (seek + half rotation + transfer), not from a magic number.
  const scaddar::DiskParameters drive = scaddar::Year2001Disk();
  const scaddar::RoundParameters round{.round_seconds = 1.0,
                                       .block_kb = 512};
  ServerConfig config;
  config.initial_disks = 8;
  config.disk_spec = scaddar::MakeDiskSpec(drive, round).value();
  config.master_seed = 20260704;
  config.admission_utilization_cap = 0.8;
  std::printf("drive model: %.0f rpm, %.1f ms seek, %.0f MB/s -> "
              "%lld blocks/round, %lld blocks capacity\n",
              drive.rpm, drive.avg_seek_ms, drive.transfer_mb_per_s,
              static_cast<long long>(
                  config.disk_spec.bandwidth_blocks_per_round),
              static_cast<long long>(config.disk_spec.capacity_blocks));
  auto server = std::move(CmServer::Create(config)).value();

  // A small library of movies: 2-hour titles at one block per round.
  for (ObjectId id = 1; id <= 12; ++id) {
    SCADDAR_CHECK(server->AddObject(id, 1500).ok());
  }
  std::printf("catalog: 12 objects, %lld blocks total on %lld disks\n",
              static_cast<long long>(server->store().total_blocks()),
              static_cast<long long>(server->disks().num_live()));

  // Zipf-popular arrivals, Poisson at 1.2 clients/round.
  TrafficEngine traffic(
      {.seed = 99, .arrivals_per_round = 1.2, .zipf_theta = 0.729});
  traffic.SetObjects({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});

  int64_t rejected = 0;
  for (int round = 0; round < 1200; ++round) {
    for (const ObjectId id :
         traffic.NextRound(server->round(), server->streams()).arrivals) {
      if (!server->StartStream(id).ok()) {
        ++rejected;
      }
    }
    if (round == 400) {
      std::printf("\n>>> round 400: adding a 2-disk group ONLINE\n\n");
      SCADDAR_CHECK(server->ScaleAdd(2).ok());
    }
    const RoundMetrics metrics = server->Tick();
    if (round % 100 == 0) {
      std::printf(
          "round %4lld: streams=%3lld served=%3lld hiccups=%lld "
          "migrating=%lld\n",
          static_cast<long long>(metrics.round),
          static_cast<long long>(metrics.active_streams),
          static_cast<long long>(metrics.served),
          static_cast<long long>(metrics.hiccups),
          static_cast<long long>(metrics.pending_migration));
    }
  }

  std::printf("\nsummary after 1200 rounds:\n");
  std::printf("  completed streams : %lld\n",
              static_cast<long long>(server->completed_streams()));
  std::printf("  blocks served     : %lld\n",
              static_cast<long long>(server->total_served()));
  std::printf("  hiccups           : %lld\n",
              static_cast<long long>(server->total_hiccups()));
  std::printf("  admission rejects : %lld\n",
              static_cast<long long>(rejected));
  std::printf("  blocks migrated   : %lld\n",
              static_cast<long long>(server->migration().total_moved()));
  std::printf("  migration pending : %lld\n",
              static_cast<long long>(server->migration().pending()));
  if (server->migration().idle()) {
    SCADDAR_CHECK(server->VerifyIntegrity().ok());
    std::printf("  integrity         : store matches AF() exactly\n");
  }
  return 0;
}
