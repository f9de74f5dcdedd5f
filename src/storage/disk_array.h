#ifndef SCADDAR_STORAGE_DISK_ARRAY_H_
#define SCADDAR_STORAGE_DISK_ARRAY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "storage/disk.h"
#include "util/statusor.h"

namespace scaddar {

class FaultInjector;

/// The value a dense per-physical-id budget vector holds for an id with no
/// live disk (see `DiskArray::BandwidthBudgets`). Live budgets are never
/// negative, so a `budget > 0` test rejects both.
inline constexpr int64_t kNotLive = -1;

/// The physical disk farm. Disks are keyed by their stable `PhysicalDiskId`;
/// the placement layer's op log decides *which* ids are live, and the array
/// tracks the hardware-side state (specs, occupancy, service counters).
/// Retired disks are kept (inactive) so post-mortem stats survive removals.
///
/// Physical ids are small, non-negative and never reused, so the table is a
/// vector indexed by id: `GetDisk` and `IsLive` are one bounds-checked
/// index. The round-budget vector is kept as a template that only
/// `SyncLiveSet` and `AddDisk` rebuild; `BandwidthBudgets` copies it.
/// Pointers from `GetDisk` stay valid until the next `SyncLiveSet` or
/// `AddDisk`, which may grow the table.
class DiskArray {
 public:
  explicit DiskArray(const DiskSpec& default_spec)
      : default_spec_(default_spec) {}

  /// Brings the array in sync with the live id set: creates missing disks
  /// with `default_spec_` and deactivates ids no longer present. Removal
  /// requires the disk to be empty (the migration must have drained it) —
  /// fails with FailedPrecondition otherwise, as does naming a failed disk.
  /// Negative ids are InvalidArgument.
  Status SyncLiveSet(const std::vector<PhysicalDiskId>& live);

  /// Unplanned failure: the live disk `id` leaves the live set at once,
  /// without draining. It serves and sources nothing from now on; its
  /// occupancy stays charged until the copies it held are re-homed.
  /// NotFound unless `id` is live.
  Status Fail(PhysicalDiskId id);

  /// True iff `id` failed; a failed disk never returns to service.
  bool IsFailed(PhysicalDiskId id) const;

  /// Failed disk ids in ascending order.
  const std::vector<PhysicalDiskId>& failed_ids() const { return failed_; }

  /// Direct creation with a custom spec (heterogeneous extensions).
  Status AddDisk(PhysicalDiskId id, const DiskSpec& spec);

  bool IsLive(PhysicalDiskId id) const;
  StatusOr<SimDisk*> GetDisk(PhysicalDiskId id);
  StatusOr<const SimDisk*> GetDisk(PhysicalDiskId id) const;

  /// Live ids in ascending order.
  std::vector<PhysicalDiskId> live_ids() const;
  int64_t num_live() const { return num_live_; }

  /// Aggregate bandwidth of live disks (blocks per round).
  int64_t TotalBandwidth() const;

  /// One round's budgets, indexed by physical id: each live disk's
  /// per-round bandwidth, `kNotLive` for every other id up to the largest
  /// live one. Physical ids are small and never reused, so the scheduler
  /// and the migration executor spend budget with one indexed load instead
  /// of a hash lookup. A copy of the template; O(largest live id), no
  /// lookups.
  std::vector<int64_t> BandwidthBudgets() const { return budgets_; }

  /// Aggregate free capacity of live disks (blocks).
  int64_t TotalFreeCapacity() const;

  /// Occupancy of live disks in `live_ids()` order.
  std::vector<int64_t> LiveOccupancy() const;

  /// Attaches (or detaches, with null) the fault engine. The array is the
  /// rendezvous point: the migration executor and the servers read the
  /// injector from here, so one attachment covers every hook site. Detached
  /// — the default — each hook costs a single null-pointer branch.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

 private:
  /// True iff a disk (live or retired) exists under `id`.
  bool Has(PhysicalDiskId id) const;

  /// Grows the table so `id` has a slot.
  void EnsureSlot(PhysicalDiskId id);

  /// Rebuilds `budgets_` and `num_live_` from `live_`.
  void RebuildBudgets();

  DiskSpec default_spec_;
  FaultInjector* injector_ = nullptr;  // Not owned; may be null.
  std::vector<std::optional<SimDisk>> disks_;  // Indexed by physical id.
  std::vector<char> live_;                     // Parallel to `disks_`.
  std::vector<int64_t> budgets_;  // The `BandwidthBudgets` template.
  std::vector<PhysicalDiskId> failed_;  // Sorted.
  int64_t num_live_ = 0;
};

}  // namespace scaddar

#endif  // SCADDAR_STORAGE_DISK_ARRAY_H_
