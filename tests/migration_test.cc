#include "server/migration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>

#include "migration_oracle.h"
#include "placement/scaddar_policy.h"
#include "random/sequence.h"
#include "server/server.h"
#include "storage/move_journal.h"

namespace scaddar {
namespace {

std::vector<uint64_t> MakeX0(uint64_t seed, int64_t n) {
  return X0Sequence::Create(PrngKind::kSplitMix64, seed, 64)
      .value()
      .Materialize(n);
}

struct Fixture {
  Fixture(int64_t n0, int64_t blocks)
      : policy(n0),
        disks(DiskSpec{.capacity_blocks = 1'000'000,
                       .bandwidth_blocks_per_round = 8}),
        store(&disks) {
    SCADDAR_CHECK(policy.AddObject(1, MakeX0(1, blocks)).ok());
    SCADDAR_CHECK(disks.SyncLiveSet(policy.log().physical_disks()).ok());
    std::vector<PhysicalDiskId> locations;
    for (BlockIndex i = 0; i < blocks; ++i) {
      locations.push_back(policy.Locate(1, i));
    }
    SCADDAR_CHECK(store.PlaceObject(1, locations).ok());
  }

  std::vector<int64_t> Budget(int64_t per_disk) {
    std::vector<int64_t> budget = disks.BandwidthBudgets();
    for (int64_t& units : budget) {
      if (units != kNotLive) {
        units = per_disk;
      }
    }
    return budget;
  }

  ScaddarPolicy policy;
  DiskArray disks;
  BlockStore store;
  MigrationExecutor migration;
};

TEST(MigrationTest, ReconciliationFindsExactDivergence) {
  Fixture fx(4, 2000);
  ASSERT_TRUE(fx.policy.ApplyOp(ScalingOp::Add(1).value()).ok());
  ASSERT_TRUE(fx.disks.SyncLiveSet(fx.policy.log().physical_disks()).ok());
  fx.migration.EnqueueReconciliation(fx.store, fx.policy);
  int64_t divergent = 0;
  for (BlockIndex i = 0; i < 2000; ++i) {
    if (*fx.store.LocationOf({1, i}) != fx.policy.Locate(1, i)) {
      ++divergent;
    }
  }
  EXPECT_EQ(fx.migration.pending(), divergent);
  EXPECT_GT(divergent, 0);
}

TEST(MigrationTest, RunRoundRespectsBudget) {
  Fixture fx(4, 4000);
  ASSERT_TRUE(fx.policy.ApplyOp(ScalingOp::Add(1).value()).ok());
  ASSERT_TRUE(fx.disks.SyncLiveSet(fx.policy.log().physical_disks()).ok());
  fx.migration.EnqueueReconciliation(fx.store, fx.policy);
  auto budget = fx.Budget(2);
  const int64_t moved =
      fx.migration.RunRound(budget, fx.store, fx.disks, fx.policy);
  // Every move consumes a unit at the destination (the single new disk has
  // budget 2), so at most 2 transfers can land there this round.
  EXPECT_LE(moved, 2);
  EXPECT_GT(moved, 0);
}

TEST(MigrationTest, ConvergesOverRounds) {
  Fixture fx(4, 3000);
  ASSERT_TRUE(fx.policy.ApplyOp(ScalingOp::Add(2).value()).ok());
  ASSERT_TRUE(fx.disks.SyncLiveSet(fx.policy.log().physical_disks()).ok());
  fx.migration.EnqueueReconciliation(fx.store, fx.policy);
  int rounds = 0;
  while (!fx.migration.idle()) {
    auto budget = fx.Budget(50);
    fx.migration.RunRound(budget, fx.store, fx.disks, fx.policy);
    ASSERT_LT(++rounds, 1000) << "migration failed to converge";
  }
  EXPECT_TRUE(fx.store.VerifyAgainstPolicy(fx.policy).ok());
  EXPECT_GT(fx.migration.total_moved(), 0);
}

TEST(MigrationTest, ZeroBudgetMakesNoProgress) {
  Fixture fx(4, 1000);
  ASSERT_TRUE(fx.policy.ApplyOp(ScalingOp::Add(1).value()).ok());
  ASSERT_TRUE(fx.disks.SyncLiveSet(fx.policy.log().physical_disks()).ok());
  fx.migration.EnqueueReconciliation(fx.store, fx.policy);
  const int64_t pending_before = fx.migration.pending();
  auto budget = fx.Budget(0);
  EXPECT_EQ(fx.migration.RunRound(budget, fx.store, fx.disks, fx.policy), 0);
  EXPECT_EQ(fx.migration.pending(), pending_before);
}

TEST(MigrationTest, StaleEntriesRetireForFree) {
  Fixture fx(4, 1000);
  // Enqueue blocks that are already at their targets.
  MovePlan noop_plan;
  for (BlockIndex i = 0; i < 100; ++i) {
    noop_plan.Add(BlockMove{.block = {1, i}});
  }
  fx.migration.EnqueuePlan(noop_plan);
  EXPECT_EQ(fx.migration.pending(), 100);
  auto budget = fx.Budget(0);  // No bandwidth needed for stale entries.
  EXPECT_EQ(fx.migration.RunRound(budget, fx.store, fx.disks, fx.policy), 0);
  EXPECT_TRUE(fx.migration.idle());
}

TEST(MigrationTest, EnqueuePlanDrivesTheSameConvergence) {
  Fixture fx(4, 1500);
  ASSERT_TRUE(fx.policy.ApplyOp(ScalingOp::Add(1).value()).ok());
  ASSERT_TRUE(fx.disks.SyncLiveSet(fx.policy.log().physical_disks()).ok());
  const std::vector<uint64_t>& x0 = fx.policy.objects_view()[0].second;
  const MovePlan plan = PlanOperation(fx.policy.log(), 1, {{1, &x0}});
  fx.migration.EnqueuePlan(plan);
  EXPECT_EQ(fx.migration.pending(), plan.num_moves());
  while (!fx.migration.idle()) {
    auto budget = fx.Budget(100);
    fx.migration.RunRound(budget, fx.store, fx.disks, fx.policy);
  }
  EXPECT_TRUE(fx.store.VerifyAgainstPolicy(fx.policy).ok());
  EXPECT_EQ(fx.migration.total_moved(), plan.num_moves());
}

TEST(MigrationTest, DeletedObjectEntriesAreDroppedGracefully) {
  Fixture fx(4, 500);
  ASSERT_TRUE(fx.policy.ApplyOp(ScalingOp::Add(1).value()).ok());
  ASSERT_TRUE(fx.disks.SyncLiveSet(fx.policy.log().physical_disks()).ok());
  fx.migration.EnqueueReconciliation(fx.store, fx.policy);
  ASSERT_GT(fx.migration.pending(), 0);
  // Remove the object from both layers; queued refs become dangling.
  ASSERT_TRUE(fx.store.DropObject(1).ok());
  ASSERT_TRUE(fx.policy.RemoveObject(1).ok());
  auto budget = fx.Budget(100);
  EXPECT_EQ(fx.migration.RunRound(budget, fx.store, fx.disks, fx.policy), 0);
  EXPECT_TRUE(fx.migration.idle());
}

TEST(MigrationTest, OverlappingOpsConvergeToLatestTargets) {
  Fixture fx(4, 2000);
  ASSERT_TRUE(fx.policy.ApplyOp(ScalingOp::Add(1).value()).ok());
  ASSERT_TRUE(fx.disks.SyncLiveSet(fx.policy.log().physical_disks()).ok());
  fx.migration.EnqueueReconciliation(fx.store, fx.policy);
  // Second op lands while the first migration is still pending.
  ASSERT_TRUE(fx.policy.ApplyOp(ScalingOp::Remove({1}).value()).ok());
  std::vector<PhysicalDiskId> live = fx.policy.log().physical_disks();
  live.push_back(1);  // Disk 1 is retiring but still holds blocks.
  ASSERT_TRUE(fx.disks.SyncLiveSet(live).ok());
  fx.migration.EnqueueReconciliation(fx.store, fx.policy);
  int rounds = 0;
  while (!fx.migration.idle()) {
    auto budget = fx.Budget(50);
    budget[1] = 50;  // The retiring disk can still move blocks out.
    fx.migration.RunRound(budget, fx.store, fx.disks, fx.policy);
    ASSERT_LT(++rounds, 1000);
  }
  EXPECT_TRUE(fx.store.VerifyAgainstPolicy(fx.policy).ok());
  EXPECT_EQ(fx.store.CountOn(1), 0);  // Retiring disk fully drained.
}

TEST(MigrationTest, TransferCountersChargedToBothEnds) {
  Fixture fx(2, 500);
  ASSERT_TRUE(fx.policy.ApplyOp(ScalingOp::Add(1).value()).ok());
  ASSERT_TRUE(fx.disks.SyncLiveSet(fx.policy.log().physical_disks()).ok());
  fx.migration.EnqueueReconciliation(fx.store, fx.policy);
  while (!fx.migration.idle()) {
    auto budget = fx.Budget(100);
    fx.migration.RunRound(budget, fx.store, fx.disks, fx.policy);
  }
  const int64_t moved = fx.migration.total_moved();
  int64_t charged = 0;
  for (const PhysicalDiskId id : fx.disks.live_ids()) {
    charged += (*fx.disks.GetDisk(id))->migration_transfers();
  }
  EXPECT_EQ(charged, 2 * moved);
}

/// One side of the oracle property test: policy, disks and store driven
/// through the same random operations as its twin.
struct PropertySide {
  explicit PropertySide(int64_t n0)
      : policy(std::make_unique<ScaddarPolicy>(n0)),
        disks(DiskSpec{.capacity_blocks = 1'000'000,
                       .bandwidth_blocks_per_round = 8}),
        store(&disks) {
    SyncDisks();
  }

  void AddObject(ObjectId id, int64_t blocks, uint64_t seed) {
    SCADDAR_CHECK(policy->AddObject(id, MakeX0(seed, blocks)).ok());
    std::vector<PhysicalDiskId> locations;
    policy->LocateAllBlocks(id, locations);
    SCADDAR_CHECK(store.PlaceObject(id, locations).ok());
  }

  /// Live set = placement disks plus every disk still holding blocks
  /// (retiring disks serve until drained).
  void SyncDisks() {
    std::vector<PhysicalDiskId> live = policy->log().physical_disks();
    for (const auto& [disk, count] : store.per_disk_counts()) {
      if (count > 0) {
        live.push_back(disk);
      }
    }
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    SCADDAR_CHECK(disks.SyncLiveSet(live).ok());
  }

  /// A fresh policy over the current disks with new seeds for every object
  /// (the full-redistribution fallback). Its op log restarts at revision 0.
  void Rebase(uint64_t generation) {
    auto fresh = std::make_unique<ScaddarPolicy>(
        OpLog::CreateWithIds(policy->log().physical_disks()).value());
    for (const auto& [id, x0] : policy->objects_view()) {
      SCADDAR_CHECK(fresh
                        ->AddObject(id, MakeX0(static_cast<uint64_t>(id) ^
                                                   (generation << 20),
                                               static_cast<int64_t>(x0.size())))
                        .ok());
    }
    policy = std::move(fresh);
    SyncDisks();
  }

  std::unique_ptr<PlacementPolicy> policy;
  DiskArray disks;
  BlockStore store;
};

/// Random overlapping add, remove and rebase operations, objects removed
/// and re-added while their moves are queued, and per-disk budgets of 0–3:
/// after every round the indexed executor, one-phase and with a
/// `MoveJournal` attached (the write-ahead path), must agree with the
/// per-entry scalar pass on everything a caller can observe, and the
/// journal must hold no move left open.
TEST(MigrationPropertyTest, MatchesScalarOracleUnderRandomOperations) {
  for (const uint64_t seed : {0x5ca1ull, 0x5ca2ull, 0x5ca3ull, 0x5ca4ull}) {
    std::mt19937_64 rng(seed);
    const auto draw = [&rng](int64_t lo, int64_t hi) {
      return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
    };
    PropertySide indexed(5);
    PropertySide journaled(5);
    PropertySide scalar(5);
    MigrationExecutor executor;
    MigrationExecutor journaled_executor;
    MoveJournal journal;
    journaled_executor.AttachJournal(&journal);
    ScalarMigrationOracle oracle;
    std::map<ObjectId, int64_t> objects = {{1, 600}, {2, 350}, {3, 900}};
    for (const auto& [id, blocks] : objects) {
      indexed.AddObject(id, blocks, static_cast<uint64_t>(id));
      journaled.AddObject(id, blocks, static_cast<uint64_t>(id));
      scalar.AddObject(id, blocks, static_cast<uint64_t>(id));
    }

    const auto each = [&](const auto& apply) {
      apply(indexed);
      apply(journaled);
      apply(scalar);
    };
    const auto reconcile = [&] {
      executor.EnqueueReconciliation(indexed.store, *indexed.policy);
      journaled_executor.EnqueueReconciliation(journaled.store,
                                               *journaled.policy);
      oracle.EnqueueReconciliation(scalar.store, *scalar.policy);
    };
    const auto run_round = [&](int round) {
      std::vector<int64_t> budget = indexed.disks.BandwidthBudgets();
      for (int64_t& units : budget) {
        if (units != kNotLive) {
          units = draw(0, 3);
        }
      }
      std::vector<int64_t> journaled_budget = budget;
      std::vector<int64_t> oracle_budget = budget;
      const int64_t moved = executor.RunRound(budget, indexed.store,
                                              indexed.disks, *indexed.policy);
      const int64_t journaled_moved =
          journaled_executor.RunRound(journaled_budget, journaled.store,
                                      journaled.disks, *journaled.policy);
      const int64_t oracle_moved = oracle.RunRound(
          oracle_budget, scalar.store, scalar.disks, *scalar.policy);
      const std::vector<BlockRef> oracle_queue = oracle.QueueSnapshot();
      const auto matches_oracle = [&](const char* name,
                                      const MigrationExecutor& side_executor,
                                      const PropertySide& side,
                                      int64_t side_moved,
                                      const std::vector<int64_t>& side_budget) {
        SCOPED_TRACE(testing::Message() << name << " seed " << seed
                                        << " round " << round);
        ASSERT_EQ(side_moved, oracle_moved);
        ASSERT_EQ(side_executor.QueueSnapshot(), oracle_queue);
        ASSERT_EQ(side_executor.pending(), oracle.pending());
        ASSERT_EQ(side_budget, oracle_budget);
        for (const auto& [id, blocks] : objects) {
          const auto row = side.store.LocationsOf(id);
          const auto oracle_row = scalar.store.LocationsOf(id);
          ASSERT_EQ(row.ok(), oracle_row.ok());
          if (row.ok()) {
            ASSERT_TRUE(std::equal(row->begin(), row->end(),
                                   oracle_row->begin(), oracle_row->end()))
                << "object " << id;
          }
        }
      };
      matches_oracle("one-phase", executor, indexed, moved, budget);
      if (HasFatalFailure()) {
        return;
      }
      matches_oracle("journaled", journaled_executor, journaled,
                     journaled_moved, journaled_budget);
      if (HasFatalFailure()) {
        return;
      }
      ASSERT_EQ(journal.pending(), 0) << "seed " << seed << " round " << round;
      if (moved > 0) {
        // Drained retiring disks leave the live set.
        each([](PropertySide& side) { side.SyncDisks(); });
      }
    };

    int round = 0;
    for (int step = 0; step < 40; ++step) {
      const int64_t action = draw(0, 9);
      if (action <= 2) {
        const ScalingOp op = ScalingOp::Add(draw(1, 2)).value();
        each([&](PropertySide& side) {
          SCADDAR_CHECK(side.policy->ApplyOp(op).ok());
          side.SyncDisks();
        });
      } else if (action <= 4 && indexed.policy->current_disks() > 3) {
        const int64_t n = indexed.policy->current_disks();
        std::vector<DiskSlot> slots = {draw(0, n - 1)};
        if (draw(0, 1) == 1) {
          const DiskSlot other = draw(0, n - 1);
          if (other != slots[0]) {
            slots.push_back(other);
          }
        }
        const ScalingOp op = ScalingOp::Remove(slots).value();
        each([&](PropertySide& side) {
          SCADDAR_CHECK(side.policy->ApplyOp(op).ok());
          side.SyncDisks();
        });
      } else if (action == 5) {
        // Rebase; a fresh op log restarts at revision 0, and a scaling op
        // right after brings it back to revisions the old log had.
        const auto generation = static_cast<uint64_t>(step + 1);
        each([&](PropertySide& side) { side.Rebase(generation); });
        if (draw(0, 1) == 1) {
          const ScalingOp op = ScalingOp::Add(1).value();
          each([&](PropertySide& side) {
            SCADDAR_CHECK(side.policy->ApplyOp(op).ok());
            side.SyncDisks();
          });
        }
      } else if (action <= 7) {
        // Remove an object with queued moves, maybe run a round while it
        // is gone, then add it back with new seeds and a new length, placed
        // on arbitrary disks: its queued entries must re-resolve.
        const std::vector<BlockRef> queued = executor.QueueSnapshot();
        if (queued.empty()) {
          continue;
        }
        const ObjectId victim =
            std::min_element(queued.begin(), queued.end(),
                             [](const BlockRef& a, const BlockRef& b) {
                               return a.object < b.object;
                             })
                ->object;
        each([&](PropertySide& side) {
          SCADDAR_CHECK(side.store.DropObject(victim).ok());
          SCADDAR_CHECK(side.policy->RemoveObject(victim).ok());
          side.SyncDisks();
        });
        if (draw(0, 2) == 0) {
          run_round(round++);
          if (HasFatalFailure()) {
            return;
          }
        }
        const int64_t blocks = objects[victim] * draw(5, 10) / 10;
        const std::vector<PhysicalDiskId> disks =
            indexed.policy->log().physical_disks();
        std::vector<PhysicalDiskId> locations;
        for (int64_t i = 0; i < blocks; ++i) {
          locations.push_back(disks[static_cast<size_t>(
              draw(0, static_cast<int64_t>(disks.size()) - 1))]);
        }
        const auto x0_seed = static_cast<uint64_t>(victim * 1000 + step);
        each([&](PropertySide& side) {
          SCADDAR_CHECK(side.policy->AddObject(victim, MakeX0(x0_seed, blocks))
                            .ok());
          SCADDAR_CHECK(side.store.PlaceObject(victim, locations).ok());
          side.SyncDisks();
        });
        objects[victim] = blocks;
      } else if (action == 8 && objects.size() < 4) {
        objects[4] = 450;
        each([&](PropertySide& side) { side.AddObject(4, 450, 4); });
      } else if (action == 9) {
        // Rows change behind the executor's back (as journal recovery
        // rolls a move forward or back): queued entries must re-resolve
        // their sources.
        for (int k = 0; k < 8; ++k) {
          const auto it = std::next(
              objects.begin(),
              static_cast<ptrdiff_t>(
                  draw(0, static_cast<int64_t>(objects.size()) - 1)));
          const BlockRef ref{it->first, draw(0, it->second - 1)};
          const std::vector<PhysicalDiskId> disks =
              indexed.policy->log().physical_disks();
          const PhysicalDiskId to = disks[static_cast<size_t>(
              draw(0, static_cast<int64_t>(disks.size()) - 1))];
          const PhysicalDiskId from = indexed.store.LocationOf(ref).value();
          if (from == to) {
            continue;
          }
          each([&](PropertySide& side) {
            SCADDAR_CHECK(side.store
                              .ApplyMove(BlockMove{.block = ref,
                                                   .from_physical = from,
                                                   .to_physical = to})
                              .ok());
          });
        }
        each([](PropertySide& side) { side.SyncDisks(); });
      }
      // Usually queue the divergence right away; sometimes let the rounds
      // run against a placement the queue has not caught up with.
      if (draw(0, 3) != 0) {
        reconcile();
      }
      for (int64_t r = draw(0, 3); r > 0; --r) {
        run_round(round++);
        if (HasFatalFailure()) {
          return;
        }
      }
    }
    reconcile();
    while (!executor.idle() || !journaled_executor.idle() || !oracle.idle()) {
      run_round(round++);
      if (HasFatalFailure()) {
        return;
      }
      ASSERT_LT(round, 100'000) << "migration failed to converge";
    }
    EXPECT_EQ(executor.total_moved(), oracle.total_moved());
    EXPECT_EQ(journaled_executor.total_moved(), oracle.total_moved());
    EXPECT_EQ(journal.size(), oracle.total_moved());
    EXPECT_TRUE(indexed.store.VerifyAgainstPolicy(*indexed.policy).ok());
    EXPECT_TRUE(journaled.store.VerifyAgainstPolicy(*journaled.policy).ok());
  }
}

/// A full redistribution swaps in a fresh policy whose op log restarts at
/// revision 0; one scaling op later it is back at the revision the old
/// policy had. Queued moves must still chase the new AF(), never targets
/// resolved against the old policy.
TEST(MigrationTest, PolicySwapRetargetsQueuedMoves) {
  ServerConfig config;
  config.initial_disks = 4;
  config.master_seed = 0x5a4b;
  config.journal_migration = true;
  auto server = std::move(CmServer::Create(config)).value();
  ASSERT_TRUE(server->AddObject(1, 800).ok());
  ASSERT_TRUE(server->AddObject(2, 500).ok());
  ASSERT_TRUE(server->ScaleAdd(1).ok());
  for (int round = 0; round < 3; ++round) {
    server->Tick();
  }
  ASSERT_FALSE(server->migration().idle());
  ASSERT_GT(server->journal().size(), 0);
  const int64_t revision_before = server->policy().log().revision();
  const int64_t journal_at_swap = server->journal().size();

  ASSERT_TRUE(server->FullRedistribution().ok());
  ASSERT_TRUE(server->ScaleAdd(1).ok());
  ASSERT_EQ(server->policy().log().revision(), revision_before);
  int rounds = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++rounds, 20'000);
  }
  ASSERT_TRUE(server->VerifyIntegrity().ok());

  int64_t checked = 0;
  for (const JournalEntry& entry : server->journal().entries()) {
    if (entry.id < journal_at_swap) {
      continue;
    }
    EXPECT_EQ(entry.to,
              server->policy().Locate(entry.block.object, entry.block.block))
        << "move " << entry.id << " targeted the replaced policy";
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace scaddar
