#include "core/op_log.h"

#include <algorithm>
#include <cmath>

#include "util/tokens.h"

namespace scaddar {

StatusOr<OpLog> OpLog::Create(int64_t n0) {
  if (n0 <= 0) {
    return InvalidArgumentError("initial disk count must be positive");
  }
  return OpLog(n0);
}

StatusOr<OpLog> OpLog::CreateWithIds(std::vector<PhysicalDiskId> ids) {
  if (ids.empty()) {
    return InvalidArgumentError("initial disk set must be non-empty");
  }
  PhysicalDiskId max_id = -1;
  for (const PhysicalDiskId id : ids) {
    if (id < 0) {
      return InvalidArgumentError("physical ids must be non-negative");
    }
    max_id = id > max_id ? id : max_id;
  }
  std::vector<PhysicalDiskId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return InvalidArgumentError("physical ids must be distinct");
  }
  OpLog log(static_cast<int64_t>(ids.size()));
  log.physical_by_epoch_.front() = std::move(ids);
  log.next_physical_id_ = max_id + 1;
  return log;
}

OpLog::OpLog(int64_t n0) {
  disk_counts_.push_back(n0);
  std::vector<PhysicalDiskId> initial(static_cast<size_t>(n0));
  for (int64_t slot = 0; slot < n0; ++slot) {
    initial[static_cast<size_t>(slot)] = slot;
  }
  physical_by_epoch_.push_back(std::move(initial));
  next_physical_id_ = n0;
  pi_.MultiplyBy(static_cast<uint64_t>(n0));
}

Status OpLog::Append(const ScalingOp& op) {
  const int64_t n_prev = current_disks();
  std::vector<PhysicalDiskId> next_physical = physical_by_epoch_.back();
  int64_t n_cur = 0;
  if (op.is_add()) {
    n_cur = n_prev + op.add_count();
    for (int64_t i = 0; i < op.add_count(); ++i) {
      next_physical.push_back(next_physical_id_ + i);
    }
  } else {
    const std::vector<DiskSlot>& removed = op.removed_slots();
    if (removed.back() >= n_prev) {
      return InvalidArgumentError("removal names a slot beyond N_{j-1}");
    }
    n_cur = n_prev - static_cast<int64_t>(removed.size());
    if (n_cur <= 0) {
      return InvalidArgumentError("removal would leave no disks");
    }
    // Compact: keep survivors in order (this realizes the paper's new()).
    std::vector<PhysicalDiskId> survivors;
    survivors.reserve(static_cast<size_t>(n_cur));
    size_t next_removed = 0;
    for (int64_t slot = 0; slot < n_prev; ++slot) {
      if (next_removed < removed.size() && removed[next_removed] == slot) {
        ++next_removed;
        continue;
      }
      survivors.push_back(next_physical[static_cast<size_t>(slot)]);
    }
    next_physical = std::move(survivors);
  }
  ops_.push_back(op);
  disk_counts_.push_back(n_cur);
  physical_by_epoch_.push_back(std::move(next_physical));
  if (op.is_add()) {
    next_physical_id_ += op.add_count();
  }
  pi_.MultiplyBy(static_cast<uint64_t>(n_cur));
  ++revision_;
  return OkStatus();
}

int64_t OpLog::disks_after(Epoch j) const {
  SCADDAR_CHECK(j >= 0 && j <= num_ops());
  return disk_counts_[static_cast<size_t>(j)];
}

const ScalingOp& OpLog::op(Epoch j) const {
  SCADDAR_CHECK(j >= 1 && j <= num_ops());
  return ops_[static_cast<size_t>(j - 1)];
}

const std::vector<PhysicalDiskId>& OpLog::physical_disks_at(Epoch j) const {
  SCADDAR_CHECK(j >= 0 && j <= num_ops());
  return physical_by_epoch_[static_cast<size_t>(j)];
}

namespace {

// Returns true iff `pi` <= r0 * eps / (1 + eps), computed in long double to
// avoid 128-bit overflow concerns. A saturated product always fails.
bool ProductWithinTolerance(const SaturatingProduct& pi, uint64_t r0,
                            double eps) {
  SCADDAR_CHECK(eps > 0.0);
  if (pi.saturated()) {
    return false;
  }
  const long double limit =
      static_cast<long double>(r0) *
      (static_cast<long double>(eps) / (1.0L + static_cast<long double>(eps)));
  return static_cast<long double>(pi.value()) <= limit;
}

}  // namespace

bool OpLog::SatisfiesTolerance(uint64_t r0, double eps) const {
  return ProductWithinTolerance(pi_, r0, eps);
}

bool OpLog::WouldExceedTolerance(const ScalingOp& op, uint64_t r0,
                                 double eps) const {
  const int64_t n_next = current_disks() + op.delta();
  if (n_next <= 0) {
    return true;  // Invalid op; callers validate separately via Append.
  }
  SaturatingProduct next = pi_;
  next.MultiplyBy(static_cast<uint64_t>(n_next));
  return !ProductWithinTolerance(next, r0, eps);
}

std::string OpLog::Serialize() const {
  // Header: plain "n0" when epoch-0 ids are the default 0..n0-1, otherwise
  // "@id0,id1,..." to preserve a CreateWithIds log exactly.
  const std::vector<PhysicalDiskId>& initial = physical_by_epoch_.front();
  bool default_ids = true;
  for (size_t i = 0; i < initial.size(); ++i) {
    if (initial[i] != static_cast<PhysicalDiskId>(i)) {
      default_ids = false;
      break;
    }
  }
  std::string out;
  if (default_ids) {
    out = std::to_string(initial_disks());
  } else {
    out = "@";
    for (size_t i = 0; i < initial.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += std::to_string(initial[i]);
    }
  }
  for (const ScalingOp& op : ops_) {
    out += ';';
    out += op.ToString();
  }
  return out;
}

StatusOr<OpLog> OpLog::Deserialize(std::string_view text) {
  const size_t first_sep = text.find(';');
  const std::string_view head = text.substr(0, first_sep);
  StatusOr<OpLog> log_or = InvalidArgumentError("empty op log header");
  if (!head.empty() && head.front() == '@') {
    std::vector<PhysicalDiskId> ids;
    std::string_view body = head.substr(1);
    while (!body.empty()) {
      const size_t comma = body.find(',');
      SCADDAR_ASSIGN_OR_RETURN(const int64_t id,
                               ParseIntToken(body.substr(0, comma), "op log"));
      ids.push_back(id);
      if (comma == std::string_view::npos) {
        break;
      }
      body = body.substr(comma + 1);
    }
    log_or = OpLog::CreateWithIds(std::move(ids));
  } else {
    SCADDAR_ASSIGN_OR_RETURN(const int64_t n0, ParseIntToken(head, "op log"));
    log_or = OpLog::Create(n0);
  }
  if (!log_or.ok()) {
    return log_or.status();
  }
  OpLog log = std::move(log_or).value();
  std::string_view rest =
      first_sep == std::string_view::npos ? std::string_view()
                                          : text.substr(first_sep + 1);
  while (!rest.empty()) {
    const size_t sep = rest.find(';');
    const std::string_view token = rest.substr(0, sep);
    SCADDAR_ASSIGN_OR_RETURN(ScalingOp op, ScalingOp::Parse(token));
    SCADDAR_RETURN_IF_ERROR(log.Append(op));
    if (sep == std::string_view::npos) {
      break;
    }
    rest = rest.substr(sep + 1);
  }
  return log;
}

}  // namespace scaddar
