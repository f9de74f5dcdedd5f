// Differential proofs for the SIMD kernel backends: on AVX2 hardware the
// vector and scalar backends must be byte-identical for every op-log shape
// — randomized logs (mixed add/remove, varied N, varied epochs), batch
// sizes that are not multiples of the lane width, and nonzero `from`
// epochs — and the dispatch plumbing (runtime detection, env override,
// test pin) must behave. On non-AVX2 hosts the differential tests skip;
// the dispatch tests still run.

#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_log.h"
#include "core/mapper.h"
#include "random/distributions.h"
#include "random/sequence.h"
#include "random/splitmix64.h"
#include "util/simd.h"

namespace scaddar {
namespace {

/// The vector levels that can both execute on this CPU and were compiled
/// into this binary — each is differentially tested against scalar.
std::vector<SimdLevel> UsableVectorLevels() {
  std::vector<SimdLevel> levels;
  if (DetectedSimdLevel() >= SimdLevel::kAvx2 &&
      internal::Avx2Backend() != nullptr) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

/// Pins the dispatched level for one scope; restores default dispatch on
/// exit so test order cannot leak a pin.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { SetActiveSimdLevel(level); }
  ~ScopedSimdLevel() { ResetActiveSimdLevel(); }
};

/// A random op log: `ops` operations over an initial array of `n0` disks,
/// ~60% adds of 1-3 disks, otherwise removals of 1-2 random slots (never
/// below 2 disks).
OpLog RandomLog(Prng& prng, int64_t n0, int ops) {
  OpLog log = OpLog::Create(n0).value();
  for (int step = 0; step < ops; ++step) {
    const int64_t n = log.current_disks();
    if (n <= 2 || Bernoulli(prng, 0.6)) {
      const int64_t group = 1 + static_cast<int64_t>(UniformUint64(prng, 3));
      EXPECT_TRUE(log.Append(ScalingOp::Add(group).value()).ok());
    } else {
      const int64_t count = 1 + static_cast<int64_t>(UniformUint64(
                                    prng, n - 1 >= 2 ? 2 : 1));
      const std::vector<int64_t> slots =
          SampleWithoutReplacement(prng, n, count);
      EXPECT_TRUE(log.Append(ScalingOp::Remove(slots).value()).ok());
    }
  }
  return log;
}

// The heart of the PR's acceptance bar: ~200 random op logs, and for each
// one the three batch entry points evaluated once per backend. Batch sizes
// deliberately hit every lane-tail residue (count mod lane width)
// including the sub-lane sizes, and every log is probed at `from = 0`, a
// random interior epoch, and the no-op tail `from = num_ops`.
TEST(SimdKernelDifferentialTest, RandomLogsByteIdenticalAcrossBackends) {
  const std::vector<SimdLevel> levels = UsableVectorLevels();
  if (levels.empty()) {
    GTEST_SKIP() << "no vector backend on this host";
  }
  auto meta = MakePrng(PrngKind::kSplitMix64, 0x51dd1ffull);
  for (int trial = 0; trial < 200; ++trial) {
    const int64_t n0 = 2 + static_cast<int64_t>(UniformUint64(*meta, 39));
    const int ops = static_cast<int>(UniformUint64(*meta, 25));
    OpLog log = RandomLog(*meta, n0, ops);
    const CompiledLog compiled(log);
    // 1..515 blocks: small spans exercise the pure-scalar tail, larger
    // ones the vector body plus every residue.
    const int64_t blocks =
        1 + static_cast<int64_t>(UniformUint64(*meta, 515));
    auto seq = X0Sequence::Create(PrngKind::kXoshiro256,
                                  0xabcd00ull + static_cast<uint64_t>(trial),
                                  64)
                   .value();
    const std::vector<uint64_t> x0 = seq.Materialize(blocks);
    const Epoch interior =
        log.num_ops() == 0
            ? 0
            : static_cast<Epoch>(UniformUint64(
                  *meta, static_cast<uint64_t>(log.num_ops()) + 1));
    for (const Epoch from : {Epoch{0}, interior, log.num_ops()}) {
      std::vector<uint64_t> x_scalar = x0;
      std::vector<DiskSlot> slots_scalar(x0.size());
      std::vector<PhysicalDiskId> phys_scalar(x0.size());
      {
        ScopedSimdLevel pin(SimdLevel::kScalar);
        compiled.FinalXBatch(std::span<uint64_t>(x_scalar), from);
        compiled.LocateSlotBatch(std::span<const uint64_t>(x0),
                                 std::span<DiskSlot>(slots_scalar), from);
        compiled.LocatePhysicalBatch(std::span<const uint64_t>(x0),
                                     std::span<PhysicalDiskId>(phys_scalar),
                                     from);
      }
      for (const SimdLevel level : levels) {
        std::vector<uint64_t> x_simd = x0;
        std::vector<DiskSlot> slots_simd(x0.size());
        std::vector<PhysicalDiskId> phys_simd(x0.size());
        {
          ScopedSimdLevel pin(level);
          compiled.FinalXBatch(std::span<uint64_t>(x_simd), from);
          compiled.LocateSlotBatch(std::span<const uint64_t>(x0),
                                   std::span<DiskSlot>(slots_simd), from);
          compiled.LocatePhysicalBatch(std::span<const uint64_t>(x0),
                                       std::span<PhysicalDiskId>(phys_simd),
                                       from);
        }
        ASSERT_EQ(x_simd, x_scalar)
            << "level=" << SimdLevelName(level) << " trial=" << trial
            << " from=" << from << " blocks=" << blocks;
        ASSERT_EQ(slots_simd, slots_scalar)
            << "level=" << SimdLevelName(level) << " trial=" << trial;
        ASSERT_EQ(phys_simd, phys_scalar)
            << "level=" << SimdLevelName(level) << " trial=" << trial;
        // Spot-check the shared answer against the per-element scalar
        // path, so a bug common to all batch backends cannot hide.
        for (const size_t i : {size_t{0}, x0.size() / 2, x0.size() - 1}) {
          ASSERT_EQ(x_simd[i], compiled.FinalX(x0[i], from));
          ASSERT_EQ(phys_simd[i], compiled.LocatePhysical(x0[i], from));
        }
      }
    }
  }
}

// Every lane-tail residue at a fixed, removal-heavy log: counts 0..19 cover
// count mod 4 == 0..3 and count mod 8 == 0..7 several times, against the
// Mapper oracle.
TEST(SimdKernelDifferentialTest, LaneTailsMatchMapperOracle) {
  const std::vector<SimdLevel> levels = UsableVectorLevels();
  if (levels.empty()) {
    GTEST_SKIP() << "no vector backend on this host";
  }
  OpLog log = OpLog::Create(9).value();
  for (const char* text : {"A2", "R1,4", "R0", "A3", "R2,5", "A1"}) {
    ASSERT_TRUE(log.Append(ScalingOp::Parse(text).value()).ok());
  }
  const Mapper mapper(&log);
  const CompiledLog compiled(log);
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 42, 64).value();
  const std::vector<uint64_t> x0 = seq.Materialize(19);
  for (const SimdLevel level : levels) {
    ScopedSimdLevel pin(level);
    for (size_t count = 0; count <= x0.size(); ++count) {
      for (Epoch from = 0; from <= log.num_ops(); ++from) {
        std::vector<uint64_t> xs(x0.begin(), x0.begin() + count);
        compiled.FinalXBatch(std::span<uint64_t>(xs), from);
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(xs[i], mapper.XBetween(x0[i], from, log.num_ops()))
              << "level=" << SimdLevelName(level) << " count=" << count
              << " from=" << from << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelDifferentialTest, MaterializeOnceByteIdenticalAcrossBackends) {
  const std::vector<SimdLevel> levels = UsableVectorLevels();
  if (levels.empty()) {
    GTEST_SKIP() << "no vector backend on this host";
  }
  for (const int64_t n : {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{4},
                          int64_t{257}, int64_t{4098}}) {
    for (const int bits : {32, 64}) {
      std::vector<uint64_t> simd;
      std::vector<uint64_t> scalar;
      {
        // The X0 fill is an AVX2 kernel; any level >= kAvx2 routes to it.
        ScopedSimdLevel pin(levels.back());
        simd = X0Sequence::MaterializeOnce(PrngKind::kSplitMix64, 0xfeedull,
                                           bits, n)
                   .value();
      }
      {
        ScopedSimdLevel pin(SimdLevel::kScalar);
        scalar = X0Sequence::MaterializeOnce(PrngKind::kSplitMix64, 0xfeedull,
                                             bits, n)
                     .value();
      }
      ASSERT_EQ(simd, scalar) << "n=" << n << " bits=" << bits;
      // Oracle: the sequential generator itself, independent of any fill
      // or dispatch code path.
      SplitMix64 prng(0xfeedull);
      const uint64_t mask = MaxRandomForBits(bits);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(simd[static_cast<size_t>(i)], prng.Next() & mask)
            << "n=" << n << " bits=" << bits << " i=" << i;
      }
    }
  }
}

// --- Dispatch plumbing. ---

TEST(SimdDispatchTest, LevelNamesAreStable) {
  EXPECT_EQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_EQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(SimdDispatchTest, PinOverridesAndResetRestores) {
  {
    ScopedSimdLevel pin(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    EXPECT_STREQ(internal::ActiveBackend().name, "scalar");
  }
  // Unpinned: the env override forces scalar, otherwise detection rules.
  if (ScalarKernelsForced()) {
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  } else {
    EXPECT_EQ(ActiveSimdLevel(), DetectedSimdLevel());
  }
}

TEST(SimdDispatchTest, ActiveBackendMatchesActiveLevel) {
  const internal::KernelBackend& backend = internal::ActiveBackend();
  if (ActiveSimdLevel() >= SimdLevel::kAvx2 &&
      internal::Avx2Backend() != nullptr) {
    EXPECT_STREQ(backend.name, "avx2");
  } else {
    EXPECT_STREQ(backend.name, "scalar");
  }
  ASSERT_NE(backend.advance, nullptr);
  ASSERT_NE(backend.mod, nullptr);
}

TEST(SimdDispatchTest, EmptySpansAreNoOpsOnEveryBackend) {
  OpLog log = OpLog::Create(4).value();
  ASSERT_TRUE(log.Append(ScalingOp::Add(2).value()).ok());
  const CompiledLog compiled(log);
  std::vector<uint64_t> empty;
  std::vector<DiskSlot> no_slots;
  std::vector<PhysicalDiskId> no_disks;
  for (const SimdLevel level : {SimdLevel::kScalar, DetectedSimdLevel()}) {
    ScopedSimdLevel pin(level);
    compiled.FinalXBatch(std::span<uint64_t>(empty));
    compiled.AdvanceXBatch(std::span<uint64_t>(empty), 0, 1);
    compiled.LocateSlotBatch(std::span<const uint64_t>(empty),
                             std::span<DiskSlot>(no_slots));
    compiled.LocatePhysicalBatch(std::span<const uint64_t>(empty),
                                 std::span<PhysicalDiskId>(no_disks));
  }
}

}  // namespace
}  // namespace scaddar
