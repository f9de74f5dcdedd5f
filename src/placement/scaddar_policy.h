#ifndef SCADDAR_PLACEMENT_SCADDAR_POLICY_H_
#define SCADDAR_PLACEMENT_SCADDAR_POLICY_H_

#include <memory>

#include "core/compiled_log.h"
#include "core/mapper.h"
#include "placement/policy.h"

namespace scaddar {

/// Slot offset of copy `r` (in [0, replicas)) of a block from its primary
/// at disk count `n`: `floor(r*n/replicas)`. Section 6's mirror at
/// `f(Nj) = Nj/2` is copy 1 of 2. A pure function of the epoch's disk
/// count, so copies need no directory and scale with the same op log; the
/// offsets are distinct across `r` whenever `n >= replicas`.
int64_t ReplicaOffset(int64_t n, int64_t replicas, int64_t r);

/// The paper's contribution as a placement policy. Completely stateless
/// beyond the shared op log: `Locate` replays the REMAP chain from the
/// block's `X0` (AO1), and scaling operations need no per-block bookkeeping.
///
/// Lookups run against a cached `CompiledLog` of the op log rather than a
/// fresh `Mapper` replay: the cache is rebuilt lazily whenever
/// `OpLog::revision()` says the log moved on (ops are rare, lookups are
/// millions/sec), and `LocateAllBlocks` feeds whole objects through the
/// step-major batch kernels. Any lookup may rebuild the cache, so a policy
/// is read from one thread at a time (each cluster shard owns its own).
///
/// Objects are epoch-aware: one registered after `j` scaling operations
/// starts its chain at epoch `j` (initial placement `X0 mod N_j`), so late
/// objects neither replay history that predates them nor burn random range
/// on it.
///
/// Objects may keep several copies of every block: copy `r` of block `i`
/// sits `ReplicaOffset(N, R, r)` slots after block `i`'s primary, and the
/// batch AF() resolves it as row `r*B + i`. One-copy objects take the
/// physical batch kernels unchanged.
class ScaddarPolicy final : public PlacementPolicy {
 public:
  explicit ScaddarPolicy(int64_t n0) : PlacementPolicy(n0) {}
  explicit ScaddarPolicy(OpLog initial_log)
      : PlacementPolicy(std::move(initial_log)) {}

  std::string_view name() const override { return "scaddar"; }

  PhysicalDiskId Locate(ObjectId object, BlockIndex block) const override;

  void LocateAllBlocks(ObjectId object,
                       std::vector<PhysicalDiskId>& out) const override;

  void LocateMany(ObjectId object, std::span<const BlockIndex> blocks,
                  std::span<PhysicalDiskId> out) const override;

  /// Logical slot variant (exposed for tests and the Figure 1 walkthrough).
  DiskSlot LocateSlot(ObjectId object, BlockIndex block) const;

 protected:
  Status OnOp(const ScalingOp& op) override;
  bool PlacesCopies() const override { return true; }

 private:
  /// The compiled snapshot of `log()`, rebuilt iff the log's revision
  /// advanced since the last call.
  const CompiledLog& compiled() const;

  mutable std::unique_ptr<CompiledLog> compiled_;
};

}  // namespace scaddar

#endif  // SCADDAR_PLACEMENT_SCADDAR_POLICY_H_
