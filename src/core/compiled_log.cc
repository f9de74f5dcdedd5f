#include "core/compiled_log.h"

#include <algorithm>

#include "util/simd.h"

namespace scaddar {

namespace internal {
namespace {

// Portable step-major kernel; the oracle the AVX2 backend must match
// bit-for-bit, and the single-block path (`CompiledLog::FinalX`). An add
// is Eq. 5 (stay on r unless (q mod n_cur) lands on a new slot), a removal
// Eq. 3 with the precompiled new() table. The renumber-table index `r` is
// mathematically < n_prev (FastDiv64 is exact), so the in-range DCHECK only
// fires on a corrupted program — it is what keeps the unchecked table load
// (and the AVX2 backend's gathered twin) from silently reading out of
// bounds.
void AdvanceScalar(const CompiledStep* steps, const int32_t* renumber,
                   uint64_t* xs, size_t count, size_t from, size_t to) {
  for (size_t j = from; j < to; ++j) {
    const CompiledStep& step = steps[j];
    const FastDiv64 div_prev = step.div_prev;
    const FastDiv64 div_cur = step.div_cur;
    const uint64_t n_prev = static_cast<uint64_t>(step.n_prev);
    const uint64_t n_cur = static_cast<uint64_t>(step.n_cur);
    if (step.is_add) {
      for (size_t i = 0; i < count; ++i) {
        const auto [q, r] = div_prev.DivMod(xs[i]);
        const auto [q_hi, target] = div_cur.DivMod(q);
        xs[i] = q_hi * n_cur + (target < n_prev ? r : target);
      }
    } else {
      const int32_t* table = renumber + step.renumber_offset;
      for (size_t i = 0; i < count; ++i) {
        const auto [q, r] = div_prev.DivMod(xs[i]);
        SCADDAR_DCHECK(r < n_prev);
        const int32_t renumbered = table[r];
        xs[i] = renumbered == kRemovedSlot
                    ? q
                    : q * n_cur + static_cast<uint64_t>(renumbered);
      }
    }
  }
}

void ModScalar(const FastDiv64& div, uint64_t* xs, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    xs[i] = div.Mod(xs[i]);
  }
}

}  // namespace

const KernelBackend& ScalarBackend() {
  static const KernelBackend backend{"scalar", &AdvanceScalar, &ModScalar};
  return backend;
}

const KernelBackend& ActiveBackend() {
  if (ActiveSimdLevel() >= SimdLevel::kAvx2) {
    if (const KernelBackend* avx2 = Avx2Backend()) {
      return *avx2;
    }
  }
  return ScalarBackend();
}

}  // namespace internal

CompiledLog::CompiledLog(const OpLog& log) {
  steps_.reserve(static_cast<size_t>(log.num_ops()));
  for (Epoch j = 1; j <= log.num_ops(); ++j) {
    const ScalingOp& op = log.op(j);
    internal::CompiledStep step;
    step.n_prev = log.disks_after(j - 1);
    step.n_cur = log.disks_after(j);
    step.div_prev = FastDiv64(static_cast<uint64_t>(step.n_prev));
    step.div_cur = FastDiv64(static_cast<uint64_t>(step.n_cur));
    step.is_add = op.is_add();
    if (op.is_remove()) {
      step.renumber_offset = static_cast<int32_t>(renumber_.size());
      for (DiskSlot slot = 0; slot < step.n_prev; ++slot) {
        renumber_.push_back(op.Removes(slot)
                                ? internal::kRemovedSlot
                                : static_cast<int32_t>(op.NewSlot(slot)));
      }
    }
    steps_.push_back(step);
  }
  physical_ = log.physical_disks();
  initial_disks_ = log.initial_disks();
  current_disks_ = log.current_disks();
  div_current_ = FastDiv64(static_cast<uint64_t>(current_disks_));
  source_revision_ = log.revision();
}

int64_t CompiledLog::disks_after(Epoch j) const {
  SCADDAR_CHECK(j >= 0 && j <= num_ops());
  return j == 0 ? initial_disks_ : steps_[static_cast<size_t>(j - 1)].n_cur;
}

uint64_t CompiledLog::FinalX(uint64_t x0, Epoch from) const {
  SCADDAR_CHECK(from >= 0 && from <= num_ops());
  uint64_t x = x0;
  internal::AdvanceScalar(steps_.data(), renumber_.data(), &x, 1,
                          static_cast<size_t>(from), steps_.size());
  return x;
}

void CompiledLog::AdvanceXBatch(std::span<uint64_t> xs, Epoch from,
                                Epoch to) const {
  SCADDAR_CHECK(from >= 0 && from <= to && to <= num_ops());
  if (xs.empty() || from == to) {
    return;
  }
  internal::ActiveBackend().advance(steps_.data(), renumber_.data(),
                                    xs.data(), xs.size(),
                                    static_cast<size_t>(from),
                                    static_cast<size_t>(to));
}

DiskSlot CompiledLog::LocateSlot(uint64_t x0, Epoch from) const {
  return static_cast<DiskSlot>(div_current_.Mod(FinalX(x0, from)));
}

PhysicalDiskId CompiledLog::LocatePhysical(uint64_t x0, Epoch from) const {
  return physical_[static_cast<size_t>(LocateSlot(x0, from))];
}

void CompiledLog::LocateSlotBatch(std::span<const uint64_t> x0,
                                  std::span<DiskSlot> out, Epoch from) const {
  SCADDAR_CHECK(x0.size() == out.size());
  if (out.empty()) {
    return;
  }
  // DiskSlot is int64_t, the signed twin of the chain's uint64_t — the
  // output buffer doubles as evaluation scratch (signed/unsigned aliasing
  // of the same width is well-defined).
  uint64_t* scratch = reinterpret_cast<uint64_t*>(out.data());
  std::copy(x0.begin(), x0.end(), scratch);
  AdvanceXBatch(std::span<uint64_t>(scratch, out.size()), from, num_ops());
  internal::ActiveBackend().mod(div_current_, scratch, out.size());
}

void CompiledLog::LocatePhysicalBatch(std::span<const uint64_t> x0,
                                      std::span<PhysicalDiskId> out,
                                      Epoch from) const {
  LocateSlotBatch(x0, out, from);
  for (PhysicalDiskId& slot : out) {
    slot = physical_[static_cast<size_t>(slot)];
  }
}

}  // namespace scaddar
