#include "faults/replication.h"

#include <set>

#include <gtest/gtest.h>

#include "random/distributions.h"
#include "random/sequence.h"
#include "stats/chi_square.h"

namespace scaddar {
namespace {

std::vector<uint64_t> MakeX0(uint64_t seed, int64_t n) {
  return X0Sequence::Create(PrngKind::kSplitMix64, seed, 64)
      .value()
      .Materialize(n);
}

TEST(ReplicaOffsetTest, DistinctWhenDisksSuffice) {
  for (const int64_t n : {3, 4, 7, 10, 16}) {
    for (const int64_t replicas : {2, 3}) {
      if (n < replicas) {
        continue;
      }
      std::set<int64_t> offsets;
      for (int64_t r = 0; r < replicas; ++r) {
        offsets.insert(ReplicaOffset(n, replicas, r));
      }
      EXPECT_EQ(static_cast<int64_t>(offsets.size()), replicas)
          << "n=" << n << " R=" << replicas;
    }
  }
}

TEST(ReplicaOffsetTest, PrimaryHasZeroOffset) {
  EXPECT_EQ(ReplicaOffset(10, 3, 0), 0);
  EXPECT_EQ(ReplicaOffset(10, 3, 1), 3);
  EXPECT_EQ(ReplicaOffset(10, 3, 2), 6);
}

TEST(ReplicaOffsetTest, TwoWayIsThePapersMirror) {
  // Section 6's f(N) = N/2, always in [1, N-1] for N >= 2.
  EXPECT_EQ(ReplicaOffset(2, 2, 1), 1);
  EXPECT_EQ(ReplicaOffset(3, 2, 1), 1);
  EXPECT_EQ(ReplicaOffset(8, 2, 1), 4);
  EXPECT_EQ(ReplicaOffset(9, 2, 1), 4);
  EXPECT_EQ(ReplicaOffset(100, 2, 1), 50);
}

TEST(ReplicatedPlacementTest, MirrorMasksEverySingleDiskFailure) {
  ScaddarPolicy policy(6);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(5, 3000)).ok());
  const ReplicatedPlacement mirror(&policy, 2);
  for (PhysicalDiskId failed = 0; failed < 6; ++failed) {
    const std::unordered_set<PhysicalDiskId> failures = {failed};
    for (BlockIndex i = 0; i < 3000; ++i) {
      const StatusOr<PhysicalDiskId> read =
          mirror.LocateForRead(1, i, failures);
      ASSERT_TRUE(read.ok()) << "disk " << failed << " block " << i;
      EXPECT_NE(*read, failed);
      // A healthy primary is always the one read.
      if (mirror.ReplicaOf(1, i, 0) != failed) {
        EXPECT_EQ(*read, mirror.ReplicaOf(1, i, 0));
      }
    }
  }
}

TEST(ReplicatedPlacementTest, MirroredLoadIsStillBalanced) {
  ScaddarPolicy policy(8);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(7, 40000)).ok());
  const ReplicatedPlacement mirror(&policy, 2);
  const std::vector<int64_t> counts = mirror.PerDiskCountsWithReplicas();
  int64_t total = 0;
  for (const int64_t count : counts) {
    total += count;
  }
  EXPECT_EQ(total, 80000);  // Exactly 2x storage.
  EXPECT_TRUE(ChiSquareUniform(counts).IsUniform(0.001));
}

TEST(ReplicatedPlacementTest, ReplicasOnDistinctDisks) {
  ScaddarPolicy policy(8);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(2, 2000)).ok());
  for (const int64_t replicas : {2, 3, 4}) {
    const ReplicatedPlacement placement(&policy, replicas);
    for (BlockIndex i = 0; i < 2000; ++i) {
      const std::vector<PhysicalDiskId> disks = placement.ReplicasOf(1, i);
      const std::set<PhysicalDiskId> unique(disks.begin(), disks.end());
      EXPECT_EQ(static_cast<int64_t>(unique.size()), replicas) << i;
    }
  }
}

TEST(ReplicatedPlacementTest, SurvivesUpToRMinusOneFailures) {
  ScaddarPolicy policy(9);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(3, 1500)).ok());
  const ReplicatedPlacement placement(&policy, 3);
  EXPECT_EQ(placement.MaxFailuresTolerated(), 2);
  auto prng = MakePrng(PrngKind::kSplitMix64, 7);
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<int64_t> failed_slots =
        SampleWithoutReplacement(*prng, 9, 2);
    const std::unordered_set<PhysicalDiskId> failed(failed_slots.begin(),
                                                    failed_slots.end());
    for (BlockIndex i = 0; i < 1500; ++i) {
      const StatusOr<PhysicalDiskId> read =
          placement.LocateForRead(1, i, failed);
      ASSERT_TRUE(read.ok()) << "trial " << trial << " block " << i;
      EXPECT_FALSE(failed.contains(*read));
    }
  }
}

TEST(ReplicatedPlacementTest, ThreeFailuresCanLoseTriplicatedBlocks) {
  ScaddarPolicy policy(9);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(4, 3000)).ok());
  const ReplicatedPlacement placement(&policy, 3);
  // Fail an aligned triple {s, s+3, s+6}: blocks whose primary slot is in
  // that coset lose all three replicas.
  const std::unordered_set<PhysicalDiskId> failed = {0, 3, 6};
  int64_t lost = 0;
  for (BlockIndex i = 0; i < 3000; ++i) {
    if (!placement.LocateForRead(1, i, failed).ok()) {
      ++lost;
    }
  }
  EXPECT_NEAR(static_cast<double>(lost) / 3000.0, 3.0 / 9.0, 0.04);
}

TEST(ReplicatedPlacementTest, ReplicatedLoadBalanced) {
  ScaddarPolicy policy(8);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(5, 40000)).ok());
  const ReplicatedPlacement placement(&policy, 3);
  const std::vector<int64_t> counts = placement.PerDiskCountsWithReplicas();
  int64_t total = 0;
  for (const int64_t count : counts) {
    total += count;
  }
  EXPECT_EQ(total, 120000);  // Exactly 3x storage.
  EXPECT_TRUE(ChiSquareUniform(counts).IsUniform(0.001));
}

TEST(ReplicatedPlacementTest, PriorityReadPrefersLowestHealthyReplica) {
  ScaddarPolicy policy(6);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(6, 200)).ok());
  const ReplicatedPlacement placement(&policy, 3);
  for (BlockIndex i = 0; i < 200; ++i) {
    const PhysicalDiskId primary = placement.ReplicaOf(1, i, 0);
    EXPECT_EQ(*placement.LocateForRead(1, i, {}), primary);
    const PhysicalDiskId second = placement.ReplicaOf(1, i, 1);
    EXPECT_EQ(*placement.LocateForRead(1, i, {primary}), second);
  }
}

TEST(ReplicatedPlacementTest, ScalesWithTheOpLog) {
  ScaddarPolicy policy(6);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(7, 1000)).ok());
  ASSERT_TRUE(policy.ApplyOp(ScalingOp::Add(3).value()).ok());
  ASSERT_TRUE(policy.ApplyOp(ScalingOp::Remove({1}).value()).ok());
  const ReplicatedPlacement placement(&policy, 3);
  for (BlockIndex i = 0; i < 1000; ++i) {
    const std::vector<PhysicalDiskId> disks = placement.ReplicasOf(1, i);
    const std::set<PhysicalDiskId> unique(disks.begin(), disks.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(ReplicatedPlacementDeathTest, Validation) {
  ScaddarPolicy policy(4);
  EXPECT_DEATH(ReplicatedPlacement(nullptr, 2), "SCADDAR_CHECK");
  EXPECT_DEATH(ReplicatedPlacement(&policy, 1), "SCADDAR_CHECK");
  EXPECT_DEATH(ReplicaOffset(10, 3, 3),
               "SCADDAR_CHECK");
}

}  // namespace
}  // namespace scaddar
