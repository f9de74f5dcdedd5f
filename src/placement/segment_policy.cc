#include "placement/segment_policy.h"

#include <algorithm>

#include "random/splitmix64.h"

namespace scaddar {

namespace {

using Width = unsigned __int128;  // Widths: the full space is 2^64.

constexpr Width kTotalSpace = Width{1} << 64;

/// A piece of the hash space during a rebalance: `owner == -1` marks space
/// released by a donor, waiting for a receiver.
struct Piece {
  uint64_t start = 0;
  Width width = 0;
  PhysicalDiskId owner = -1;
};

/// Exact target share per owner: `total/n` each, the remainder spread one
/// unit at a time over the lowest physical ids. Deterministic, and within
/// one unit of perfectly uniform.
std::vector<Width> TargetShares(size_t n) {
  const Width base = kTotalSpace / n;
  const uint64_t rem = static_cast<uint64_t>(kTotalSpace % n);
  std::vector<Width> targets(n, base);
  for (uint64_t i = 0; i < rem; ++i) {
    ++targets[static_cast<size_t>(i)];
  }
  return targets;
}

}  // namespace

SegmentPolicy::SegmentPolicy(int64_t n0) : PlacementPolicy(n0) {
  BuildEqual(log().physical_disks_at(0));
}

SegmentPolicy::SegmentPolicy(OpLog initial_log)
    : PlacementPolicy(std::move(initial_log)) {
  BuildEqual(log().physical_disks_at(0));
}

void SegmentPolicy::BuildEqual(const std::vector<PhysicalDiskId>& owners) {
  std::vector<PhysicalDiskId> sorted = owners;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<Width> targets = TargetShares(sorted.size());
  segments_.clear();
  uint64_t start = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    segments_.push_back(Segment{start, sorted[i]});
    start += static_cast<uint64_t>(targets[i]);  // mod 2^64: wraps to 0 last.
  }
}

Status SegmentPolicy::OnOp(const ScalingOp& /*op*/) {
  RebalanceTo(log().physical_disks());
  return OkStatus();
}

void SegmentPolicy::RebalanceTo(const std::vector<PhysicalDiskId>& owners) {
  std::vector<PhysicalDiskId> sorted = owners;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<Width> targets = TargetShares(sorted.size());
  const auto index_of = [&](PhysicalDiskId disk) -> int64_t {
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), disk);
    if (it == sorted.end() || *it != disk) {
      return -1;  // Not a live owner: its segments are fully released.
    }
    return it - sorted.begin();
  };

  // Current share per live owner.
  const size_t count = segments_.size();
  std::vector<Width> share(sorted.size(), 0);
  for (size_t i = 0; i < count; ++i) {
    const Width width =
        count == 1 ? kTotalSpace
                   : Width{(i + 1 < count ? segments_[i + 1].start : 0) -
                           segments_[i].start};
    const int64_t owner = index_of(segments_[i].owner);
    if (owner >= 0) {
      share[static_cast<size_t>(owner)] += width;
    }
  }

  // Donors release exactly their surplus; receivers take exactly their
  // deficit. The totals match (both sides sum to total - sum(min(share,
  // target))), so every released unit finds a receiver.
  std::vector<Width> release(sorted.size(), 0);
  std::vector<Width> deficit(sorted.size(), 0);
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (share[i] > targets[i]) {
      release[i] = share[i] - targets[i];
    } else {
      deficit[i] = targets[i] - share[i];
    }
  }

  // Pass 1, address order: split each donor segment into a kept low part
  // and a released high part until the donor's surplus is gone.
  std::vector<Piece> pieces;
  pieces.reserve(count + sorted.size());
  for (size_t i = 0; i < count; ++i) {
    const Width width =
        count == 1 ? kTotalSpace
                   : Width{(i + 1 < count ? segments_[i + 1].start : 0) -
                           segments_[i].start};
    const uint64_t start = segments_[i].start;
    const int64_t owner = index_of(segments_[i].owner);
    if (owner < 0) {
      pieces.push_back(Piece{start, width, -1});
      continue;
    }
    Width& to_release = release[static_cast<size_t>(owner)];
    const Width released = std::min(width, to_release);
    const Width kept = width - released;
    if (kept > 0) {
      pieces.push_back(Piece{start, kept, segments_[i].owner});
    }
    if (released > 0) {
      pieces.push_back(
          Piece{start + static_cast<uint64_t>(kept), released, -1});
      to_release -= released;
    }
  }

  // Pass 2: hand released pieces to receivers, lowest physical id first,
  // splitting pieces at deficit boundaries.
  std::vector<Segment> rebuilt;
  rebuilt.reserve(pieces.size());
  size_t receiver = 0;
  for (const Piece& piece : pieces) {
    if (piece.owner >= 0) {
      rebuilt.push_back(Segment{piece.start, piece.owner});
      continue;
    }
    uint64_t start = piece.start;
    Width width = piece.width;
    while (width > 0) {
      while (receiver < sorted.size() && deficit[receiver] == 0) {
        ++receiver;
      }
      SCADDAR_CHECK(receiver < sorted.size());
      const Width taken = std::min(width, deficit[receiver]);
      rebuilt.push_back(Segment{start, sorted[receiver]});
      deficit[receiver] -= taken;
      start += static_cast<uint64_t>(taken);
      width -= taken;
    }
  }
  SCADDAR_CHECK(!rebuilt.empty() && rebuilt.front().start == 0);

  // Merge adjacent same-owner runs to hold the table at the fragmentation
  // floor.
  segments_.clear();
  for (const Segment& segment : rebuilt) {
    if (!segments_.empty() && segments_.back().owner == segment.owner) {
      continue;
    }
    segments_.push_back(segment);
  }
}

PhysicalDiskId SegmentPolicy::OwnerOfPoint(uint64_t key) const {
  // Last segment whose start <= key; the table always starts at 0.
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), key,
      [](uint64_t k, const Segment& s) { return k < s.start; });
  SCADDAR_DCHECK(it != segments_.begin());
  return (it - 1)->owner;
}

PhysicalDiskId SegmentPolicy::Locate(ObjectId object,
                                     BlockIndex block) const {
  const std::vector<uint64_t>& x0 = x0_of(object);
  SCADDAR_CHECK(block >= 0 &&
                block < static_cast<BlockIndex>(x0.size()));
  return OwnerOfPoint(Mix64(x0[static_cast<size_t>(block)]));
}

}  // namespace scaddar
