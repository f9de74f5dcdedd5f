#ifndef SCADDAR_PLACEMENT_SHARD_MAP_H_
#define SCADDAR_PLACEMENT_SHARD_MAP_H_

#include <cstdint>
#include <vector>

#include "util/statusor.h"

namespace scaddar {

/// The cluster layer's object->server-shard router (`cluster/cluster_server`):
/// Lamping & Veach's jump consistent hash over a dynamic *seat* table.
///
/// Seats vs. members: jump hash maps a key to seat `JumpBucket(key,
/// num_seats)`; each seat is occupied by a *member* (a stable shard
/// identity that survives renumbering). Growing appends a seat — exactly
/// the minimal ~1/(N+1) of keys jump to it, nothing else moves. Jump hash
/// natively shrinks only from the tail, so removing an arbitrary member
/// uses the same swap-with-last trick as `JumpHashPolicy`: the last seat's
/// member takes over the vacated seat and the seat count drops by one. Keys
/// on the vacated seat land on the swapped-in member, keys on the former
/// last seat redistribute uniformly — roughly twice the minimal movement,
/// the known price of arbitrary removal under jump hash (EXP-G quantifies
/// it against SCADDAR's clean removal at the disk layer; `bench_cluster`
/// does the same at the shard layer).
///
/// `epoch()` counts applied membership changes — the "cluster epoch" the
/// routing is defined over; callers publish it alongside round state so
/// concurrent readers can assert they routed against the epoch they think
/// they did.
class ShardMap {
 public:
  /// Seats 0..`initial_members`-1 occupied by members 0..n-1 (clamped to
  /// >= 1). Member ids above that are handed out by `AddMember`.
  explicit ShardMap(int initial_members);

  /// Rebuilds a map from checkpointed parts. `seats` must be non-empty with
  /// distinct non-negative members, all below `next_member` (ids are never
  /// reused, so every seated member predates the next handout); `epoch` must
  /// be >= 0.
  static StatusOr<ShardMap> FromParts(std::vector<int> seats, int next_member,
                                      int64_t epoch);

  /// The member owning `key` at the current epoch.
  int MemberOf(uint64_t key) const;

  /// Appends a seat; returns the new member's id (stable for its lifetime,
  /// never reused).
  int AddMember();

  /// Removes `member` via swap-with-last; InvalidArgument if absent or if
  /// it is the last remaining member.
  Status RemoveMember(int member);

  int num_seats() const { return static_cast<int>(seats_.size()); }

  /// seat -> member id occupying it.
  const std::vector<int>& seats() const { return seats_; }

  /// Membership changes applied so far (the routing epoch).
  int64_t epoch() const { return epoch_; }

  /// The id `AddMember` will hand out next (checkpointed so ids stay
  /// never-reused across a restart).
  int next_member() const { return next_member_; }

  bool HasMember(int member) const { return SeatOf(member) >= 0; }

  /// Seat occupied by `member`, or -1.
  int SeatOf(int member) const;

 private:
  std::vector<int> seats_;
  int next_member_ = 0;
  int64_t epoch_ = 0;
};

/// Keys from `keys` whose member differs between `before` and `after` —
/// the delta set a membership change obliges the caller to migrate. Order
/// follows `keys`.
std::vector<uint64_t> ChangedKeys(const ShardMap& before,
                                  const ShardMap& after,
                                  const std::vector<uint64_t>& keys);

}  // namespace scaddar

#endif  // SCADDAR_PLACEMENT_SHARD_MAP_H_
