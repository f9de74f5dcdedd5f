#ifndef SCADDAR_CORE_COMPILED_LOG_H_
#define SCADDAR_CORE_COMPILED_LOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/op_log.h"
#include "core/types.h"
#include "util/intmath.h"

namespace scaddar {

namespace internal {

/// One compiled scaling operation: the flattened step layout both kernel
/// backends consume. Plain data so a backend can be a free function over
/// raw arrays (the AVX2 backend lives in its own -mavx2 translation unit
/// and cannot be a member of `CompiledLog`).
struct CompiledStep {
  int64_t n_prev = 0;
  int64_t n_cur = 0;
  FastDiv64 div_prev;  // Reciprocal of n_prev.
  FastDiv64 div_cur;   // Reciprocal of n_cur.
  bool is_add = false;
  // For removals: dense renumbering, size n_prev; kRemovedSlot for slots
  // the op removes (their blocks take the q-path).
  int32_t renumber_offset = -1;  // Index into the renumber array, -1 for adds.
};

inline constexpr int32_t kRemovedSlot = -1;

/// One kernel backend of the batch REMAP engine. The two backends are
/// bit-exact with each other: `advance` replays compiled steps [from, to)
/// over `xs[0, count)` step-major, `mod` reduces each element modulo the
/// divisor. The scalar backend is always available; the AVX2 backend is
/// present only when the binary was built with -mavx2 and executes only
/// when the CPU reports AVX2 at runtime (`ActiveSimdLevel`).
struct KernelBackend {
  using AdvanceFn = void (*)(const CompiledStep* steps,
                             const int32_t* renumber, uint64_t* xs,
                             size_t count, size_t from, size_t to);
  using ModFn = void (*)(const FastDiv64& div, uint64_t* xs, size_t count);

  const char* name = "";
  AdvanceFn advance = nullptr;
  ModFn mod = nullptr;
};

/// The portable backend (compiled_log.cc).
const KernelBackend& ScalarBackend();

/// The AVX2 backend (compiled_log_simd.cc), or nullptr when the binary was
/// built without AVX2 codegen (non-x86 target, or a compiler without
/// -mavx2). Null here is a build property; whether the host CPU can run it
/// is `DetectedSimdLevel()`.
const KernelBackend* Avx2Backend();

/// The backend matching `ActiveSimdLevel()` right now: AVX2 when that
/// level is active and its backend is present in this binary, else scalar.
const KernelBackend& ActiveBackend();

/// Conservative upper bound on any chain value after `step`, given that
/// every value was <= `bound` before it. Kernels track this per step to
/// switch to narrow (32-bit-value) lane math once the whole span must fit
/// in 32 bits: each step divides by the disk count, so after a handful of
/// steps every x is small no matter how large X_0 was. The bound never
/// underestimates, so the narrow path is only taken when exact.
inline uint64_t AdvanceValueBound(const CompiledStep& step, uint64_t bound) {
  const uint64_t n_prev = static_cast<uint64_t>(step.n_prev);
  const uint64_t n_cur = static_cast<uint64_t>(step.n_cur);
  const uint64_t q = bound / n_prev;
  // Add: x' = (q div n_cur)*n_cur + slot, slot < n_cur. Remove: x' is q
  // (removed slot) or q*n_cur + renumbered with renumbered < n_cur; the
  // moved form dominates. Neither multiply can overflow: both products are
  // <= the pre-division value.
  const uint64_t base = step.is_add ? (q / n_cur) * n_cur : q * n_cur;
  return base + (n_cur - 1);
}

}  // namespace internal

/// A snapshot of an `OpLog` compiled into a flat remap program for fast
/// `AF()` evaluation. Three optimizations over replaying through `Mapper`:
///
///  - each removal's `new()` renumbering is precompiled into a dense
///    `old_slot -> new_slot` array (one load instead of a binary search
///    over the removed-slot set per step);
///  - the per-step parameters (N_{j-1}, N_j, kind) live in one contiguous
///    array, so the hot loop touches no per-op vectors;
///  - every division by N_{j-1}/N_j uses a precomputed multiply-shift
///    reciprocal (`FastDiv64`), turning the paper's "series of inexpensive
///    mod and div functions" into multiplies.
///
/// The compiled program is immutable: recompile after appending operations
/// (ops are rare; lookups are millions/sec). `source_revision()` echoes
/// `OpLog::revision()` at compile time so callers can detect staleness with
/// one integer compare. `bench_lookup` quantifies the speedup;
/// `compiled_log_test` proves bit-exact equivalence with `Mapper`.
///
/// ## Batch evaluation
///
/// The `*Batch` entry points evaluate a contiguous span of blocks
/// *step-major*: the outer loop walks compiled steps, the inner loop walks
/// the block array. Per-step parameters (N's, reciprocals, renumber-table
/// base pointer) then stay in registers across the whole span, a removal's
/// renumber table stays hot in cache while every block consults it, and the
/// inner loop is a branch-light sequence the compiler can unroll. All
/// blocks of one batch must share a `from` epoch (objects are written at
/// one epoch, so natural batches — an object's blocks, a planner shard —
/// already do); this is the same-epoch fast path: no per-element epoch
/// check anywhere in the hot loop. `bench_remap_throughput` measures the
/// step-major speedup over per-call replay.
///
/// The batch entry points are backed by two interchangeable kernel backends
/// (`internal::KernelBackend`) selected at runtime by CPU feature detection
/// (`util/simd.h`): an AVX2 backend evaluates 4 chains per 64-bit lane
/// group, and the portable scalar backend is both the fallback and the
/// equivalence oracle. The AVX2 backend additionally switches to cheaper
/// narrow lane math once a per-step value bound
/// (`internal::AdvanceValueBound`) proves every chain value fits in 32
/// bits. The backends are bit-identical (`tests/simd_kernel_test.cc`);
/// `SCADDAR_FORCE_SCALAR_KERNELS=1` pins the scalar backend for testing.
/// The single-block entry points (`FinalX`, `LocateSlot`, `LocatePhysical`)
/// run the scalar kernel over one element. Empty spans are no-ops.
class CompiledLog {
 public:
  /// Compiles a snapshot of `log`. O(sum of N over removal ops) time/space.
  explicit CompiledLog(const OpLog& log);

  /// `X_j` at the final epoch for a chain starting at epoch `from`
  /// (checked: 0 <= from <= num_ops).
  uint64_t FinalX(uint64_t x0, Epoch from = 0) const;

  /// Final logical slot for a chain starting at epoch `from`.
  DiskSlot LocateSlot(uint64_t x0, Epoch from = 0) const;

  /// Final physical disk for a chain starting at epoch `from`.
  PhysicalDiskId LocatePhysical(uint64_t x0, Epoch from = 0) const;

  /// In-place step-major advance: replays compiled steps `from+1 .. to`
  /// over every element of `xs` (checked: 0 <= from <= to <= num_ops).
  /// `xs[i]` must hold `X_from(i)` on entry and holds `X_to(i)` on return.
  /// The planners use the intermediate-epoch form to read a chain at both
  /// `j-1` and `j` in one pass.
  void AdvanceXBatch(std::span<uint64_t> xs, Epoch from, Epoch to) const;

  /// `xs[i] := FinalX(xs[i], from)` for the whole span, step-major.
  void FinalXBatch(std::span<uint64_t> xs, Epoch from = 0) const {
    AdvanceXBatch(xs, from, num_ops());
  }

  /// `out[i] := LocateSlot(x0[i], from)` (sizes must match, checked).
  /// `out` doubles as the scratch space, so the batch needs no allocation.
  void LocateSlotBatch(std::span<const uint64_t> x0, std::span<DiskSlot> out,
                       Epoch from = 0) const;

  /// `out[i] := LocatePhysical(x0[i], from)` (sizes must match, checked).
  void LocatePhysicalBatch(std::span<const uint64_t> x0,
                           std::span<PhysicalDiskId> out,
                           Epoch from = 0) const;

  int64_t num_ops() const { return static_cast<int64_t>(steps_.size()); }
  int64_t current_disks() const { return current_disks_; }

  /// `N_j` for `j` in [0, num_ops()] (checked) — the compiled mirror of
  /// `OpLog::disks_after`, so batch callers never touch the log.
  int64_t disks_after(Epoch j) const;

  /// `OpLog::revision()` of the source log when this snapshot was compiled.
  int64_t source_revision() const { return source_revision_; }

 private:
  std::vector<internal::CompiledStep> steps_;
  std::vector<int32_t> renumber_;  // Concatenated renumber tables.
  std::vector<PhysicalDiskId> physical_;  // Final slot -> physical id.
  int64_t initial_disks_ = 0;
  int64_t current_disks_ = 0;
  FastDiv64 div_current_;  // Reciprocal of current_disks_.
  int64_t source_revision_ = 0;
};

}  // namespace scaddar

#endif  // SCADDAR_CORE_COMPILED_LOG_H_
