// EXP-H (extension) — online scaling on the CM server simulation: hiccup
// rate and migration completion time as a function of the bandwidth
// headroom left for reorganization. This exercises the paper's core
// motivation: scaling without taking the server down.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "server/server.h"
#include "server/workload/traffic_engine.h"

namespace scaddar {
namespace {

struct Outcome {
  int64_t migration_rounds = -1;  // -1: did not finish in the horizon.
  int64_t served = 0;
  int64_t hiccups = 0;
};

Outcome RunScenario(double utilization_cap, int64_t extra_budget) {
  ServerConfig config;
  config.initial_disks = 8;
  config.disk_spec = {.capacity_blocks = 500'000,
                      .bandwidth_blocks_per_round = 10};
  config.master_seed = 0xbeefull;
  config.admission_utilization_cap = utilization_cap;
  config.migration_extra_budget = extra_budget;
  auto server = std::move(CmServer::Create(config)).value();
  for (ObjectId id = 1; id <= 10; ++id) {
    SCADDAR_CHECK(server->AddObject(id, 2000).ok());
  }
  // Fill to the admission cap so leftover bandwidth is scarce.
  TrafficEngine traffic(
      {.seed = 17, .arrivals_per_round = 50.0, .zipf_theta = 0.729});
  traffic.SetObjects({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  for (const ObjectId id :
       traffic.NextRound(server->round(), server->streams()).arrivals) {
    (void)server->StartStream(id);  // Admission decides.
  }
  while (server->StartStream(1).ok()) {
  }
  // Warm up, then scale online.
  for (int round = 0; round < 20; ++round) {
    server->Tick();
  }
  SCADDAR_CHECK(server->ScaleAdd(2).ok());
  Outcome outcome;
  constexpr int kHorizon = 4000;
  for (int round = 0; round < kHorizon;) {
    const RoundMetrics metrics = server->Tick();
    // Keep the stream population topped up (VoD arrivals continue).
    while (server->StartStream(1 + round % 10).ok()) {
    }
    ++round;
    outcome.served += metrics.served;
    outcome.hiccups += metrics.hiccups;
    if (metrics.pending_migration == 0 && outcome.migration_rounds < 0) {
      outcome.migration_rounds = round;
    }
  }
  return outcome;
}

void Run() {
  std::printf("%-12s %-12s %-16s %-12s %-12s %-12s\n", "admit-cap",
              "extra-bw", "migr-rounds", "served", "hiccups",
              "hiccup-rate");
  for (const double cap : {0.5, 0.7, 0.9}) {
    for (const int64_t extra : {int64_t{0}, int64_t{2}}) {
      const Outcome outcome = RunScenario(cap, extra);
      std::printf("%-12.2f %-12lld %-16lld %-12lld %-12lld %-12.6f\n", cap,
                  static_cast<long long>(extra),
                  static_cast<long long>(outcome.migration_rounds),
                  static_cast<long long>(outcome.served),
                  static_cast<long long>(outcome.hiccups),
                  outcome.served == 0
                      ? 0.0
                      : static_cast<double>(outcome.hiccups) /
                            static_cast<double>(outcome.served));
    }
  }
  bench::PrintRule();
  std::printf(
      "Expected shape: lower admission caps leave more leftover bandwidth,\n"
      "so migration finishes in fewer rounds, and extra migration budget\n"
      "shortens it further. Hiccups are governed by the utilization\n"
      "headroom (random placement gives statistical guarantees: per-disk\n"
      "demand is ~Binomial(streams, 1/N), so a 0.9 cap has a fat overload\n"
      "tail) — compare rows with equal caps to see that the background\n"
      "migration itself adds virtually no hiccups: the server never goes\n"
      "down for reorganization.\n");
}

}  // namespace
}  // namespace scaddar

int main() {
  scaddar::bench::PrintHeader(
      "EXP-H", "online scaling: migration time vs. service headroom");
  scaddar::Run();
  return 0;
}
