#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "placement/scaddar_policy.h"
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

/// Disks of every copy of object 1, as the batch AF() resolves them: copy
/// `r` of block `i` is row `r*B + i`.
struct Copies {
  explicit Copies(const ScaddarPolicy& policy)
      : blocks(policy.NumBlocksOf(1)), replicas(policy.CopiesOf(1)) {
    policy.LocateAllBlocks(1, rows);
  }

  PhysicalDiskId Of(BlockIndex block, int64_t r) const {
    return rows[static_cast<size_t>(r * blocks + block)];
  }

  std::vector<PhysicalDiskId> AllOf(BlockIndex block) const {
    std::vector<PhysicalDiskId> disks;
    for (int64_t r = 0; r < replicas; ++r) {
      disks.push_back(Of(block, r));
    }
    return disks;
  }

  /// The first copy off every failed disk, in copy order; NotFound if
  /// every copy's disk failed.
  StatusOr<PhysicalDiskId> ForRead(
      BlockIndex block, const std::unordered_set<PhysicalDiskId>& failed) const {
    for (int64_t r = 0; r < replicas; ++r) {
      if (!failed.contains(Of(block, r))) {
        return Of(block, r);
      }
    }
    return NotFoundError("every copy is on a failed disk");
  }

  /// Per-disk block counts over every copy (ids are slots before any op).
  std::vector<int64_t> PerDiskCounts(int64_t disks) const {
    std::vector<int64_t> counts(static_cast<size_t>(disks), 0);
    for (const PhysicalDiskId disk : rows) {
      ++counts[static_cast<size_t>(disk)];
    }
    return counts;
  }

  int64_t blocks;
  int64_t replicas;
  std::vector<PhysicalDiskId> rows;
};

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

TEST(CopyRowsTest, MirrorMasksEverySingleDiskFailure) {
  ScaddarPolicy policy(6);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(5, 3000), 2).ok());
  const Copies mirror(policy);
  for (PhysicalDiskId failed = 0; failed < 6; ++failed) {
    const std::unordered_set<PhysicalDiskId> failures = {failed};
    for (BlockIndex i = 0; i < 3000; ++i) {
      const StatusOr<PhysicalDiskId> read = mirror.ForRead(i, failures);
      ASSERT_TRUE(read.ok()) << "disk " << failed << " block " << i;
      EXPECT_NE(*read, failed);
      // A healthy primary is always the one read.
      if (mirror.Of(i, 0) != failed) {
        EXPECT_EQ(*read, mirror.Of(i, 0));
      }
    }
  }
}

TEST(CopyRowsTest, MirroredLoadIsStillBalanced) {
  ScaddarPolicy policy(8);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(7, 40000), 2).ok());
  const std::vector<int64_t> counts = Copies(policy).PerDiskCounts(8);
  int64_t total = 0;
  for (const int64_t count : counts) {
    total += count;
  }
  EXPECT_EQ(total, 80000);  // Exactly 2x storage.
  EXPECT_TRUE(ChiSquareUniform(counts).IsUniform(0.001));
}

TEST(CopyRowsTest, ReplicasOnDistinctDisks) {
  for (const int64_t replicas : {2, 3, 4}) {
    ScaddarPolicy policy(8);
    ASSERT_TRUE(policy.AddObject(1, MakeX0(2, 2000), replicas).ok());
    const Copies copies(policy);
    for (BlockIndex i = 0; i < 2000; ++i) {
      const std::vector<PhysicalDiskId> disks = copies.AllOf(i);
      const std::set<PhysicalDiskId> unique(disks.begin(), disks.end());
      EXPECT_EQ(static_cast<int64_t>(unique.size()), replicas) << i;
    }
  }
}

TEST(CopyRowsTest, SurvivesUpToRMinusOneFailures) {
  ScaddarPolicy policy(9);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(3, 1500), 3).ok());
  const Copies copies(policy);
  // R - 1 = 2 failures are tolerated while the disks keep the R offsets
  // distinct.
  EXPECT_EQ(copies.replicas - 1, 2);
  EXPECT_GE(policy.current_disks(), copies.replicas);
  auto prng = MakePrng(PrngKind::kSplitMix64, 7);
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<int64_t> failed_slots =
        SampleWithoutReplacement(*prng, 9, 2);
    const std::unordered_set<PhysicalDiskId> failed(failed_slots.begin(),
                                                    failed_slots.end());
    for (BlockIndex i = 0; i < 1500; ++i) {
      const StatusOr<PhysicalDiskId> read = copies.ForRead(i, failed);
      ASSERT_TRUE(read.ok()) << "trial " << trial << " block " << i;
      EXPECT_FALSE(failed.contains(*read));
    }
  }
}

TEST(CopyRowsTest, ThreeFailuresCanLoseTriplicatedBlocks) {
  ScaddarPolicy policy(9);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(4, 3000), 3).ok());
  const Copies copies(policy);
  // Fail an aligned triple {s, s+3, s+6}: blocks whose primary slot is in
  // that coset lose all three replicas.
  const std::unordered_set<PhysicalDiskId> failed = {0, 3, 6};
  int64_t lost = 0;
  for (BlockIndex i = 0; i < 3000; ++i) {
    if (!copies.ForRead(i, failed).ok()) {
      ++lost;
    }
  }
  EXPECT_NEAR(static_cast<double>(lost) / 3000.0, 3.0 / 9.0, 0.04);
}

TEST(CopyRowsTest, ReplicatedLoadBalanced) {
  ScaddarPolicy policy(8);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(5, 40000), 3).ok());
  const std::vector<int64_t> counts = Copies(policy).PerDiskCounts(8);
  int64_t total = 0;
  for (const int64_t count : counts) {
    total += count;
  }
  EXPECT_EQ(total, 120000);  // Exactly 3x storage.
  EXPECT_TRUE(ChiSquareUniform(counts).IsUniform(0.001));
}

TEST(CopyRowsTest, PriorityReadPrefersLowestHealthyReplica) {
  ScaddarPolicy policy(6);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(6, 200), 3).ok());
  const Copies copies(policy);
  for (BlockIndex i = 0; i < 200; ++i) {
    const PhysicalDiskId primary = copies.Of(i, 0);
    EXPECT_EQ(*copies.ForRead(i, {}), primary);
    const PhysicalDiskId second = copies.Of(i, 1);
    EXPECT_EQ(*copies.ForRead(i, {primary}), second);
  }
}

TEST(CopyRowsTest, ScalesWithTheOpLog) {
  ScaddarPolicy policy(6);
  ASSERT_TRUE(policy.AddObject(1, MakeX0(7, 1000), 3).ok());
  ASSERT_TRUE(policy.ApplyOp(ScalingOp::Add(3).value()).ok());
  ASSERT_TRUE(policy.ApplyOp(ScalingOp::Remove({1}).value()).ok());
  const Copies copies(policy);
  for (BlockIndex i = 0; i < 1000; ++i) {
    const std::vector<PhysicalDiskId> disks = copies.AllOf(i);
    const std::set<PhysicalDiskId> unique(disks.begin(), disks.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(ReplicaOffsetDeathTest, CopyOutOfRange) {
  EXPECT_DEATH(ReplicaOffset(10, 3, 3), "SCADDAR_CHECK");
}

}  // namespace
}  // namespace scaddar
