// EXP-I (extension) — Section 6 fault tolerance: mirroring at offset
// f(Nj) = Nj/2 and single-parity groups. Reports storage overhead, load
// balance of the replicated layout, post-failure read amplification and
// unrecoverable fractions.

#include <cstdio>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "faults/parity.h"
#include "faults/recovery.h"
#include "random/distributions.h"
#include "stats/load_metrics.h"

namespace scaddar {
namespace {

constexpr int64_t kBlocks = 60000;
constexpr int64_t kDisks = 10;

// Copy r of block i is row r*kBlocks + i of a `replicas`-copy object.
std::vector<PhysicalDiskId> CopyRows(const std::vector<uint64_t>& x0,
                                     int64_t replicas) {
  ScaddarPolicy policy(kDisks);
  SCADDAR_CHECK(policy.AddObject(1, x0, replicas).ok());
  std::vector<PhysicalDiskId> rows;
  policy.LocateAllBlocks(1, rows);
  return rows;
}

// Block counts per disk over every copy (ids are slots before any op).
std::vector<int64_t> CountsOverCopies(const std::vector<PhysicalDiskId>& rows) {
  std::vector<int64_t> counts(static_cast<size_t>(kDisks), 0);
  for (const PhysicalDiskId disk : rows) {
    ++counts[static_cast<size_t>(disk)];
  }
  return counts;
}

// True iff some copy of block `i` sits off every failed disk.
bool Readable(const std::vector<PhysicalDiskId>& rows, BlockIndex i,
              const std::unordered_set<PhysicalDiskId>& failed) {
  for (size_t row = static_cast<size_t>(i); row < rows.size();
       row += static_cast<size_t>(kBlocks)) {
    if (!failed.contains(rows[row])) {
      return true;
    }
  }
  return false;
}

void MirrorPanel(const std::vector<uint64_t>& x0) {
  const std::vector<PhysicalDiskId> mirror = CopyRows(x0, 2);
  std::printf("\n--- mirroring, f(N) = N/2 (Section 6) ---\n");
  const LoadMetrics metrics = ComputeLoadMetrics(CountsOverCopies(mirror));
  std::printf("storage overhead: 2.00x   replicated-load CoV: %.5f\n",
              metrics.coefficient_of_variation);
  // Fail each disk in turn; all blocks must stay readable and the read
  // load of the failed disk must fold onto its mirror partner only.
  int64_t unreadable = 0;
  for (PhysicalDiskId failed = 0; failed < kDisks; ++failed) {
    const std::unordered_set<PhysicalDiskId> failures = {failed};
    for (BlockIndex i = 0; i < kBlocks; ++i) {
      if (!Readable(mirror, i, failures)) {
        ++unreadable;
      }
    }
  }
  std::printf("single-disk failures: %lld/%lld unreadable blocks "
              "(expect 0)\n",
              static_cast<long long>(unreadable),
              static_cast<long long>(kDisks * kBlocks));
}

void ParityPanel(const ScaddarPolicy& policy) {
  std::printf("\n--- single-parity groups (Section 6, \"less required "
              "storage\") ---\n");
  std::printf("%-8s %-10s %-14s %-14s %-16s\n", "group", "overhead",
              "recoverable", "avg-reads", "reads-healthy");
  for (const int64_t group_size : {2, 4, 8}) {
    const ParityScheme parity(&policy, group_size);
    int64_t recoverable = 0;
    int64_t reconstruction_reads = 0;
    for (BlockIndex i = 0; i < kBlocks; ++i) {
      const PhysicalDiskId failed = policy.Locate(1, i);
      if (parity.IsRecoverable(1, i, failed)) {
        ++recoverable;
        reconstruction_reads += *parity.ReadsToServe(1, i, failed);
      }
    }
    std::printf("%-8lld %-10.3f %-14.4f %-14.2f %-16d\n",
                static_cast<long long>(group_size),
                parity.StorageOverhead(),
                static_cast<double>(recoverable) /
                    static_cast<double>(kBlocks),
                recoverable == 0
                    ? 0.0
                    : static_cast<double>(reconstruction_reads) /
                          static_cast<double>(recoverable),
                1);
  }
}

void ReplicationPanel(const std::vector<uint64_t>& x0) {
  std::printf("\n--- R-way replication (offset family, extension) ---\n");
  std::printf("%-4s %-10s %-10s %-14s %-20s\n", "R", "storage",
              "load-CoV", "tolerates", "lost@2 failures");
  auto prng = MakePrng(PrngKind::kSplitMix64, 0x2fa11ull);
  for (const int64_t replicas : {2, 3, 4}) {
    const std::vector<PhysicalDiskId> rows = CopyRows(x0, replicas);
    const LoadMetrics metrics = ComputeLoadMetrics(CountsOverCopies(rows));
    // Random double failures: fraction of blocks with no healthy replica.
    int64_t lost = 0;
    int64_t tested = 0;
    for (int trial = 0; trial < 10; ++trial) {
      const std::vector<int64_t> failed_slots =
          SampleWithoutReplacement(*prng, kDisks, 2);
      const std::unordered_set<PhysicalDiskId> failed(failed_slots.begin(),
                                                      failed_slots.end());
      for (BlockIndex i = 0; i < kBlocks; i += 10) {
        ++tested;
        lost += Readable(rows, i, failed) ? 0 : 1;
      }
    }
    std::printf("%-4lld %-10.2f %-10.5f %-14lld %-20.5f\n",
                static_cast<long long>(replicas),
                static_cast<double>(replicas), metrics.coefficient_of_variation,
                // The R offsets stay distinct while kDisks >= R.
                static_cast<long long>(replicas - 1),
                static_cast<double>(lost) / static_cast<double>(tested));
  }
}

void RecoveryPanel() {
  std::printf("\n--- mirror recovery after an unplanned single failure ---\n");
  ScaddarPolicy policy(kDisks);
  const auto objects =
      bench::MakeObjects(0xfbu, 1, kBlocks, PrngKind::kSplitMix64, 64);
  SCADDAR_CHECK(policy.AddObject(1, objects[0]).ok());
  // The failure is modelled as a SCADDAR removal of the failed slot.
  SCADDAR_CHECK(policy.ApplyOp(ScalingOp::Remove({4}).value()).ok());
  const RecoveryPlan plan = PlanMirrorRecovery(policy).value();
  std::printf("blocks: %lld, copies on failed disk: %lld primaries + %lld "
              "mirrors\n",
              static_cast<long long>(plan.blocks_considered),
              static_cast<long long>(plan.lost_primaries),
              static_cast<long long>(plan.lost_mirrors));
  std::printf("recovery actions: %lld transfers (%.2f per lost copy), of "
              "which %lld are offset-induced relocations of surviving "
              "copies\n",
              static_cast<long long>(plan.num_actions()),
              static_cast<double>(plan.num_actions()) /
                  static_cast<double>(plan.lost_primaries +
                                      plan.lost_mirrors),
              static_cast<long long>(plan.relocations));
  std::printf(
      "note: fixed-offset mirroring (f(N)=N/2) re-aims MIRROR copies when\n"
      "N changes, so recovery traffic exceeds the lost-copy minimum — the\n"
      "price of directory-free mirrors, quantified here.\n");
}

}  // namespace
}  // namespace scaddar

int main() {
  scaddar::bench::PrintHeader(
      "EXP-I", "fault tolerance: mirroring vs. parity (Section 6)");
  scaddar::ScaddarPolicy policy(scaddar::kDisks);
  const auto objects = scaddar::bench::MakeObjects(
      0xfau, 1, scaddar::kBlocks, scaddar::PrngKind::kSplitMix64, 64);
  SCADDAR_CHECK(policy.AddObject(1, objects[0]).ok());
  scaddar::MirrorPanel(objects[0]);
  scaddar::ParityPanel(policy);
  scaddar::ReplicationPanel(objects[0]);
  scaddar::RecoveryPanel();
  scaddar::bench::PrintRule();
  std::printf(
      "Expected shape: mirroring keeps every block readable through any\n"
      "single failure at 2x storage; parity cuts overhead to 1/g at the\n"
      "price of g reads per reconstruction and a small unrecoverable\n"
      "fraction when two group members collide on one disk (shrinks as\n"
      "disks >> group size).\n");
  return 0;
}
