// The traffic engine's contract: deterministic, replayable traces from a
// fixed seed; Zipf popularity skew; diurnal modulation; scheduled flash
// crowds; VCR event generation — plus the scenario DSL hooks that expose
// all of it to script files.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/scenario.h"
#include "server/server.h"
#include "server/workload/traffic_engine.h"
#include "stats/accumulator.h"

namespace scaddar {
namespace {

std::unique_ptr<CmServer> MakeServer() {
  ServerConfig config;
  config.initial_disks = 6;
  config.disk_spec = {.capacity_blocks = 100'000,
                      .bandwidth_blocks_per_round = 6};
  auto server = CmServer::Create(config);
  SCADDAR_CHECK(server.ok());
  return std::move(server).value();
}

TEST(TrafficEngineTest, SameSeedSameTrace) {
  TrafficConfig config;
  config.seed = 42;
  config.arrivals_per_round = 3.0;
  config.seek_probability = 0.1;
  config.pause_probability = 0.05;
  config.resume_probability = 0.5;
  TrafficEngine a(config);
  TrafficEngine b(config);
  const std::vector<ObjectId> objects = {1, 2, 3, 4, 5};
  a.SetObjects(objects);
  b.SetObjects(objects);
  std::vector<Stream> active;
  active.emplace_back(0, 1, 100, 0);
  active.emplace_back(1, 2, 100, 0);
  active.back().Pause();
  for (int64_t round = 0; round < 50; ++round) {
    const RoundTraffic ta = a.NextRound(round, active);
    const RoundTraffic tb = b.NextRound(round, active);
    ASSERT_EQ(ta.arrivals, tb.arrivals) << "round " << round;
    ASSERT_EQ(ta.pauses, tb.pauses) << "round " << round;
    ASSERT_EQ(ta.resumes, tb.resumes) << "round " << round;
    ASSERT_EQ(ta.seeks.size(), tb.seeks.size()) << "round " << round;
    for (size_t i = 0; i < ta.seeks.size(); ++i) {
      ASSERT_EQ(ta.seeks[i].stream_id, tb.seeks[i].stream_id);
      ASSERT_EQ(ta.seeks[i].block, tb.seeks[i].block);
    }
  }
  // A different seed diverges (sanity that the seed actually feeds in).
  config.seed = 43;
  TrafficEngine c(config);
  c.SetObjects(objects);
  int64_t diffs = 0;
  TrafficConfig reseeded = config;
  reseeded.seed = 42;
  TrafficEngine a2(reseeded);
  a2.SetObjects(objects);
  for (int64_t round = 0; round < 50; ++round) {
    if (c.NextRound(round, active).arrivals !=
        a2.NextRound(round, active).arrivals) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST(TrafficEngineTest, ZipfSkewsTowardLowRanks) {
  TrafficConfig config;
  config.arrivals_per_round = 20.0;
  config.zipf_theta = 0.729;
  TrafficEngine engine(config);
  std::vector<ObjectId> objects;
  for (ObjectId id = 1; id <= 20; ++id) {
    objects.push_back(id);
  }
  engine.SetObjects(objects);
  std::map<ObjectId, int64_t> counts;
  const std::vector<Stream> none;
  for (int64_t round = 0; round < 500; ++round) {
    for (const ObjectId object : engine.NextRound(round, none).arrivals) {
      ++counts[object];
    }
  }
  // Rank 0 (object 1) must dominate the tail object decisively.
  EXPECT_GT(counts[1], 3 * counts[20]);

  // However steep the skew, only registered objects are requested (ids
  // that are not ranks, so an index/id mix-up would show).
  TrafficEngine steep({.seed = 13, .arrivals_per_round = 5.0,
                       .zipf_theta = 1.0});
  steep.SetObjects({100, 200, 300});
  for (int64_t round = 0; round < 200; ++round) {
    for (const ObjectId object : steep.NextRound(round, none).arrivals) {
      EXPECT_TRUE(object == 100 || object == 200 || object == 300)
          << "round " << round << " requested " << object;
    }
  }
}

TEST(TrafficEngineTest, DiurnalCurveModulatesArrivalMean) {
  TrafficConfig config;
  config.arrivals_per_round = 10.0;
  config.diurnal_amplitude = 0.5;
  config.diurnal_period = 100;
  TrafficEngine engine(config);
  engine.SetObjects({1});
  // Peak at a quarter period, trough at three quarters.
  EXPECT_NEAR(engine.ModulatedArrivalMean(25), 15.0, 1e-9);
  EXPECT_NEAR(engine.ModulatedArrivalMean(75), 5.0, 1e-9);
  EXPECT_NEAR(engine.ModulatedArrivalMean(0), 10.0, 1e-9);

  // Without the curve, the sampled Poisson arrivals average the configured
  // mean.
  TrafficEngine flat({.seed = 11, .arrivals_per_round = 2.5,
                      .zipf_theta = 0.0});
  flat.SetObjects({1, 2, 3, 4});
  const std::vector<Stream> none;
  Accumulator arrivals;
  for (int64_t round = 0; round < 20000; ++round) {
    arrivals.Add(
        static_cast<double>(flat.NextRound(round, none).arrivals.size()));
  }
  EXPECT_NEAR(arrivals.mean(), 2.5, 0.05);
}

TEST(TrafficEngineTest, FlashCrowdFiresOnScheduleAtItsRank) {
  TrafficConfig config;
  config.arrivals_per_round = 0.0;  // Isolate the crowd.
  config.flash_crowds.push_back(
      FlashCrowd{.start_round = 10, .duration = 3, .rank = 1, .boost = 7});
  TrafficEngine engine(config);
  engine.SetObjects({5, 6, 7});
  const std::vector<Stream> none;
  // A zero arrival rate draws nothing outside the crowd, round after round.
  for (int64_t round = 0; round < 100; ++round) {
    const RoundTraffic traffic = engine.NextRound(round, none);
    if (round >= 10 && round < 13) {
      ASSERT_EQ(traffic.arrivals.size(), 7u) << "round " << round;
      for (const ObjectId object : traffic.arrivals) {
        EXPECT_EQ(object, 6) << "crowd must target rank 1";
      }
    } else {
      EXPECT_TRUE(traffic.arrivals.empty()) << "round " << round;
    }
  }
}

TEST(TrafficEngineTest, DriveRoundReplaysIdenticallyOnTwinServers) {
  TrafficConfig config;
  config.seed = 7;
  config.arrivals_per_round = 2.0;
  config.zipf_theta = 0.5;
  config.seek_probability = 0.05;
  auto a = MakeServer();
  auto b = MakeServer();
  for (CmServer* server : {a.get(), b.get()}) {
    ASSERT_TRUE(server->AddObject(1, 200).ok());
    ASSERT_TRUE(server->AddObject(2, 300).ok());
  }
  TrafficEngine ea(config);
  TrafficEngine eb(config);
  ea.SetObjects(a->catalog().object_ids());
  eb.SetObjects(b->catalog().object_ids());
  for (int round = 0; round < 100; ++round) {
    const RoundMetrics ma = ea.DriveRound(*a);
    const RoundMetrics mb = eb.DriveRound(*b);
    ASSERT_EQ(ma.requests, mb.requests) << "round " << round;
    ASSERT_EQ(ma.served, mb.served) << "round " << round;
  }
  EXPECT_EQ(a->total_served(), b->total_served());
  EXPECT_EQ(ea.rejected_arrivals(), eb.rejected_arrivals());
  EXPECT_GT(a->total_served(), 0);
}

/// The scenario DSL drives the same machinery: `traffic` settings plus
/// `ticktraffic` produce deterministic, replayable runs.
TEST(TrafficEngineTest, ScenarioHooksAreDeterministic) {
  constexpr const char* kScript = R"(
    addobject 1 300
    addobject 2 200
    addobject 3 150
    traffic seed 99
    traffic arrivals 1.5
    traffic zipf 0.729
    traffic vcr 0.02 0.4 0.05
    traffic flash 20 5 0 4
    ticktraffic 80
  )";
  auto a = MakeServer();
  auto b = MakeServer();
  const auto ra = RunScenario(*a, kScript);
  const auto rb = RunScenario(*b, kScript);
  ASSERT_TRUE(ra.ok()) << ra.status().message();
  ASSERT_TRUE(rb.ok()) << rb.status().message();
  EXPECT_EQ(ra->rounds, 80);
  EXPECT_EQ(ra->streams_started, rb->streams_started);
  EXPECT_EQ(ra->served, rb->served);
  EXPECT_EQ(ra->hiccups, rb->hiccups);
  EXPECT_GT(ra->streams_started, 0);
  EXPECT_GT(ra->served, 0);
  EXPECT_EQ(a->total_served(), b->total_served());
}

TEST(TrafficEngineTest, ScenarioRejectsMalformedTrafficCommands) {
  auto server = MakeServer();
  EXPECT_FALSE(RunScenario(*server, "traffic bogus 1\n").ok());
  EXPECT_FALSE(RunScenario(*server, "traffic zipf not-a-number\n").ok());
  EXPECT_FALSE(RunScenario(*server, "ticktraffic 5\n").ok())
      << "ticktraffic with an empty catalog must fail";
  // Out-of-range settings fail their own line; none reaches the engine.
  for (const char* setting :
       {"traffic arrivals -1", "traffic arrivals nan", "traffic arrivals inf",
        "traffic zipf -0.5", "traffic diurnal 1.5 100",
        "traffic diurnal 0.5 0", "traffic flash 10 5 0 -3",
        "traffic vcr 2 0 0", "traffic vcr 0 0 nan"}) {
    const auto result = RunScenario(
        *server,
        "addobject 9 50\n" + std::string(setting) + "\nticktraffic 5\n");
    ASSERT_FALSE(result.ok()) << setting;
    EXPECT_TRUE(result.status().message().starts_with("line 2: traffic"))
        << setting << ": " << result.status().message();
    ASSERT_TRUE(server->RemoveObject(9).ok());
  }
}

}  // namespace
}  // namespace scaddar
