// Disk-retirement scenario: planned removal of an aging disk group —
// "disk removal is known a priori", so the server drains the group online
// and retires it only after the last block left. Also shows the Lemma 4.3
// tolerance gate and the full-redistribution fallback when a 32-bit
// generator runs out of randomness.
//
// Run: ./build/examples/disk_retirement

#include <cstdio>

#include "server/server.h"

using scaddar::CmServer;
using scaddar::ObjectId;
using scaddar::PrngKind;
using scaddar::ScalingOp;
using scaddar::ServerConfig;

int main() {
  ServerConfig config;
  config.initial_disks = 10;
  config.bits = 32;            // Paper-era generator: range is precious.
  config.prng_kind = PrngKind::kPcg32;
  config.governor_eps = 0.05;
  config.master_seed = 77;
  auto server = std::move(CmServer::Create(config)).value();
  for (ObjectId id = 1; id <= 6; ++id) {
    SCADDAR_CHECK(server->AddObject(id, 3000).ok());
  }

  // Retire the two oldest disks (slots 0 and 1).
  std::printf("retiring disk group {slot 0, slot 1}...\n");
  SCADDAR_CHECK(server->ScaleRemove({0, 1}).ok());
  std::printf("  placement now targets %lld disks; physical disks live "
              "(incl. draining): %lld\n",
              static_cast<long long>(server->policy().current_disks()),
              static_cast<long long>(server->disks().num_live()));

  int64_t rounds = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ++rounds;
  }
  server->Tick();  // Retirement check.
  std::printf("  drained in %lld rounds; live disks now: %lld; blocks on "
              "retired disk 0: %lld\n",
              static_cast<long long>(rounds),
              static_cast<long long>(server->disks().num_live()),
              static_cast<long long>(server->store().CountOn(0)));
  SCADDAR_CHECK(server->VerifyIntegrity().ok());

  // Keep scaling until the 32-bit random range is exhausted, then rebase.
  std::printf("\nscaling until the Lemma 4.3 gate trips (b=32, eps=5%%):\n");
  int performed = 0;
  while (true) {
    const ScalingOp op = ScalingOp::Add(1).value();
    if (server->WouldExceedTolerance(op)) {
      std::printf("  gate tripped after %d further ops -> full "
                  "redistribution (fresh seeds, empty op log)\n",
                  performed);
      SCADDAR_CHECK(server->FullRedistribution().ok());
      break;
    }
    SCADDAR_CHECK(server->ScaleAdd(1).ok());
    ++performed;
  }
  while (!server->migration().idle()) {
    server->Tick();
  }
  SCADDAR_CHECK(server->VerifyIntegrity().ok());
  std::printf("  rebased placement verified on %lld disks; op log: \"%s\"\n",
              static_cast<long long>(server->policy().current_disks()),
              server->policy().log().Serialize().c_str());
  std::printf("  object 1 seed generation is now %lld\n",
              static_cast<long long>(
                  server->catalog().GetObject(1)->seed_generation));
  return 0;
}
