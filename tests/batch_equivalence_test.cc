// Equivalence proofs for the batch REMAP engine: the step-major
// `CompiledLog` kernels and the batch planners must be bit-exact against
// element-wise `Mapper` replay across add / remove / mixed histories and
// nonzero start epochs.

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_log.h"
#include "core/mapper.h"
#include "core/redistribution.h"
#include "plan_oracle.h"
#include "random/distributions.h"
#include "random/sequence.h"

namespace scaddar {
namespace {

OpLog LogFromOps(int64_t n0, const std::vector<const char*>& ops) {
  OpLog log = OpLog::Create(n0).value();
  for (const char* text : ops) {
    EXPECT_TRUE(log.Append(ScalingOp::Parse(text).value()).ok());
  }
  return log;
}

// The three history shapes the kernels specialize on: adds only (no
// renumber tables), removals only (renumber path everywhere), and mixed.
const std::vector<const char*> kAddHistory = {"A2", "A1", "A4", "A1", "A3"};
const std::vector<const char*> kRemoveHistory = {"R1,4", "R0", "R2,3", "R1"};
const std::vector<const char*> kMixedHistory = {"A2", "R1,4", "A1",
                                                "R0",  "A3",  "R2,5"};

class BatchKernelTest
    : public ::testing::TestWithParam<std::vector<const char*>> {};

TEST_P(BatchKernelTest, FinalXBatchMatchesMapperElementwise) {
  const OpLog log = LogFromOps(10, GetParam());
  const Mapper mapper(&log);
  const CompiledLog compiled(log);
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 7, 64).value();
  // Deliberately awkward size: not a multiple of any internal tile.
  std::vector<uint64_t> x0 = seq.Materialize(10007);
  for (Epoch from = 0; from <= log.num_ops(); ++from) {
    std::vector<uint64_t> batch = x0;
    compiled.FinalXBatch(std::span<uint64_t>(batch), from);
    for (size_t i = 0; i < x0.size(); ++i) {
      ASSERT_EQ(batch[i], mapper.XBetween(x0[i], from, log.num_ops()))
          << "from=" << from << " i=" << i;
    }
  }
}

TEST_P(BatchKernelTest, AdvanceXBatchMatchesMapperAtEveryEpochPair) {
  const OpLog log = LogFromOps(10, GetParam());
  const Mapper mapper(&log);
  const CompiledLog compiled(log);
  auto seq = X0Sequence::Create(PrngKind::kXoshiro256, 3, 64).value();
  const std::vector<uint64_t> x0 = seq.Materialize(257);
  for (Epoch from = 0; from <= log.num_ops(); ++from) {
    for (Epoch to = from; to <= log.num_ops(); ++to) {
      std::vector<uint64_t> batch = x0;
      compiled.AdvanceXBatch(std::span<uint64_t>(batch), from, to);
      for (size_t i = 0; i < x0.size(); ++i) {
        ASSERT_EQ(batch[i], mapper.XBetween(x0[i], from, to))
            << "from=" << from << " to=" << to << " i=" << i;
      }
    }
  }
}

TEST_P(BatchKernelTest, LocateBatchesMatchScalarLookups) {
  const OpLog log = LogFromOps(10, GetParam());
  const Mapper mapper(&log);
  const CompiledLog compiled(log);
  auto seq = X0Sequence::Create(PrngKind::kPcg32, 5, 32).value();
  const std::vector<uint64_t> x0 = seq.Materialize(4099);
  for (Epoch from = 0; from <= log.num_ops(); ++from) {
    std::vector<DiskSlot> slots(x0.size());
    std::vector<PhysicalDiskId> physical(x0.size());
    compiled.LocateSlotBatch(std::span<const uint64_t>(x0),
                             std::span<DiskSlot>(slots), from);
    compiled.LocatePhysicalBatch(std::span<const uint64_t>(x0),
                                 std::span<PhysicalDiskId>(physical), from);
    for (size_t i = 0; i < x0.size(); ++i) {
      ASSERT_EQ(slots[i], mapper.SlotBetween(x0[i], from, log.num_ops()));
      ASSERT_EQ(physical[i],
                mapper.PhysicalBetween(x0[i], from, log.num_ops()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Histories, BatchKernelTest,
                         ::testing::Values(kAddHistory, kRemoveHistory,
                                           kMixedHistory));

TEST(BatchKernelTest, EmptySpanIsANoOp) {
  const OpLog log = LogFromOps(4, {"A2"});
  const CompiledLog compiled(log);
  std::vector<uint64_t> empty;
  compiled.FinalXBatch(std::span<uint64_t>(empty));
  std::vector<DiskSlot> slots;
  compiled.LocateSlotBatch(std::span<const uint64_t>(empty),
                           std::span<DiskSlot>(slots));
}

TEST(BatchKernelTest, DisksAfterMirrorsOpLog) {
  const OpLog log = LogFromOps(10, kMixedHistory);
  const CompiledLog compiled(log);
  for (Epoch j = 0; j <= log.num_ops(); ++j) {
    EXPECT_EQ(compiled.disks_after(j), log.disks_after(j));
  }
}

TEST(BatchKernelTest, RandomChurnEquivalence) {
  for (const uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    auto prng = MakePrng(PrngKind::kSplitMix64, seed);
    OpLog log = OpLog::Create(8).value();
    for (int step = 0; step < 20; ++step) {
      const int64_t n = log.current_disks();
      if (n <= 2 || Bernoulli(*prng, 0.6)) {
        ASSERT_TRUE(
            log.Append(
                   ScalingOp::Add(1 + static_cast<int64_t>(
                                          UniformUint64(*prng, 3)))
                       .value())
                .ok());
      } else {
        const std::vector<int64_t> slots = SampleWithoutReplacement(
            *prng, n,
            1 + static_cast<int64_t>(UniformUint64(
                    *prng,
                    static_cast<uint64_t>(std::min<int64_t>(n - 1, 2)))));
        ASSERT_TRUE(log.Append(ScalingOp::Remove(slots).value()).ok());
      }
    }
    const Mapper mapper(&log);
    const CompiledLog compiled(log);
    auto seq =
        X0Sequence::Create(PrngKind::kSplitMix64, seed + 100, 64).value();
    std::vector<uint64_t> x0 = seq.Materialize(3001);
    std::vector<PhysicalDiskId> physical(x0.size());
    compiled.LocatePhysicalBatch(std::span<const uint64_t>(x0),
                                 std::span<PhysicalDiskId>(physical));
    for (size_t i = 0; i < x0.size(); ++i) {
      ASSERT_EQ(physical[i], mapper.LocatePhysical(x0[i]));
    }
  }
}

// --- Planner equivalence: batch serial vs. scalar Mapper reference. ---

void ExpectPlansIdentical(const MovePlan& a, const MovePlan& b) {
  ASSERT_EQ(a.num_moves(), b.num_moves());
  ASSERT_EQ(a.blocks_considered(), b.blocks_considered());
  for (int64_t i = 0; i < a.num_moves(); ++i) {
    ASSERT_EQ(a.moves()[static_cast<size_t>(i)],
              b.moves()[static_cast<size_t>(i)])
        << "move " << i;
  }
}

TEST(BatchPlannerTest, PlanOperationMatchesScalarAcrossHistories) {
  for (const auto& history : {kAddHistory, kRemoveHistory, kMixedHistory}) {
    const OpLog log = LogFromOps(10, history);
    auto seq_a = X0Sequence::Create(PrngKind::kSplitMix64, 11, 64).value();
    auto seq_b = X0Sequence::Create(PrngKind::kSplitMix64, 12, 64).value();
    auto seq_c = X0Sequence::Create(PrngKind::kSplitMix64, 13, 64).value();
    const std::vector<uint64_t> x0_a = seq_a.Materialize(5000);
    const std::vector<uint64_t> x0_b = seq_b.Materialize(777);
    const std::vector<uint64_t> x0_c = seq_c.Materialize(1234);
    // Objects written at different epochs, including one mid-history and
    // one whose epoch makes it ineligible for early operations.
    const std::vector<ObjectBlocksView> objects = {
        {/*object=*/1, &x0_a, /*start_epoch=*/0},
        {/*object=*/2, &x0_b, /*start_epoch=*/2},
        {/*object=*/3, &x0_c, /*start_epoch=*/3},
    };
    for (Epoch j = 1; j <= log.num_ops(); ++j) {
      ExpectPlansIdentical(PlanOperation(log, j, objects),
                           PlanOperationScalar(log, j, objects));
    }
  }
}

TEST(BatchPlannerTest, PlanFullRedistributionMatchesScalar) {
  const OpLog from_log = LogFromOps(10, kMixedHistory);
  const OpLog to_log = OpLog::Create(12).value();
  auto seq_old = X0Sequence::Create(PrngKind::kSplitMix64, 21, 64).value();
  auto seq_new = X0Sequence::Create(PrngKind::kSplitMix64, 22, 64).value();
  auto seq_old2 = X0Sequence::Create(PrngKind::kSplitMix64, 23, 64).value();
  auto seq_new2 = X0Sequence::Create(PrngKind::kSplitMix64, 24, 64).value();
  const std::vector<uint64_t> old_a = seq_old.Materialize(4001);
  const std::vector<uint64_t> new_a = seq_new.Materialize(4001);
  const std::vector<uint64_t> old_b = seq_old2.Materialize(555);
  const std::vector<uint64_t> new_b = seq_new2.Materialize(555);
  const std::vector<ObjectBlocksView> from = {{1, &old_a, 2}, {2, &old_b, 0}};
  const std::vector<ObjectBlocksView> to = {{1, &new_a, 0}, {2, &new_b, 0}};
  ExpectPlansIdentical(
      PlanFullRedistribution(from_log, from, to_log, to),
      PlanFullRedistributionScalar(from_log, from, to_log, to));
}

TEST(BatchPlannerTest, MovePlanReserveAndAdd) {
  MovePlan a;
  a.Reserve(10);
  a.Add(BlockMove{.block = {1, 0}});
  a.Add(BlockMove{.block = {2, 3}});
  a.set_blocks_considered(12);
  EXPECT_EQ(a.num_moves(), 2);
  EXPECT_EQ(a.blocks_considered(), 12);
  EXPECT_EQ(a.moves()[0].block, (BlockRef{1, 0}));
  EXPECT_EQ(a.moves()[1].block, (BlockRef{2, 3}));
}

}  // namespace
}  // namespace scaddar
