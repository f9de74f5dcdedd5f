#include "cluster/cluster_server.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>

#include "recovery/checkpoint_manager.h"
#include "recovery/snapshot.h"
#include "util/status.h"

namespace scaddar {
namespace {

/// Stream ids carry their shard's member id above this bit. Member 0 keeps
/// the range [0, 2^40), so a 1-shard cluster hands out exactly the ids a
/// bare server would — part of the byte-identity contract.
constexpr int kMemberShift = 40;

/// A shard ticks on a woken worker only when its smoothed tick time is at
/// least this many times the round's fork/join cost. On a 4-vCPU host the
/// fork/join costs 18 µs empty and 19–28 µs inside a round. The margin was
/// set when a shard tick took ~19 µs at `e2e_bench`'s `cluster_scale_out`
/// size (64 disks per shard, 4 arrivals per round), where a pooled round
/// spent 22 µs more CPU than a serial one to save 3 µs of wall time, and
/// ~103 µs at 256 disks per shard and 16 arrivals, where rounds that
/// always forked took 0.68–0.74x the serial wall time. Twice the cost
/// separates the two. Since streams read store rows directly, those ticks
/// take ~7 and ~42 µs (median shard tick of one run each), so the heavier
/// size sits at the margin and forks in about 5% of its rounds.
constexpr double kForkMargin = 2.0;

}  // namespace

std::vector<int> ShardLanes(const std::vector<double>& shard_tick_ns,
                            int pool_threads, double fork_join_ns) {
  std::vector<int> lanes(shard_tick_ns.size(), 0);
  if (pool_threads < 2) {
    return lanes;
  }
  // The first shard that pays stays on the calling thread beside the
  // shards that do not, so that thread has work while the workers run.
  int next_lane = 0;
  for (size_t i = 0; i < shard_tick_ns.size(); ++i) {
    if (shard_tick_ns[i] >= kForkMargin * fork_join_ns) {
      lanes[i] = next_lane++;
    }
  }
  return lanes;
}

StatusOr<std::unique_ptr<ClusterServer>> ClusterServer::Create(
    const ClusterConfig& config) {
  if (config.initial_shards < 1) {
    return InvalidArgumentError("cluster needs at least one shard");
  }
  if (config.cross_shard_budget < 0) {
    return InvalidArgumentError("cross_shard_budget must be >= 0");
  }
  std::unique_ptr<ClusterServer> cluster(new ClusterServer(config));
  for (int member = 0; member < config.initial_shards; ++member) {
    auto shard = cluster->BuildShard(member);
    if (!shard.ok()) {
      return shard.status();
    }
    cluster->shards_.push_back(
        Shard{member, std::move(shard).value(), /*retiring=*/false});
  }
  return cluster;
}

ClusterServer::ClusterServer(const ClusterConfig& config)
    : config_(config), map_(config.initial_shards) {}

ServerConfig ClusterServer::ShardConfig(int member) const {
  ServerConfig shard_config = config_.shard;
  shard_config.first_stream_id = static_cast<int64_t>(member) << kMemberShift;
  // File-backed shards each get their own directory: a shard owns its disk
  // farm, and member ids are never reused, so the suffix keeps crashed and
  // replacement shards from clobbering each other's block files.
  if (shard_config.storage_backend.starts_with("file:") ||
      shard_config.storage_backend.starts_with("uring:")) {
    shard_config.storage_backend +=
        "/shard" + std::to_string(member);
  }
  return shard_config;
}

StatusOr<std::unique_ptr<CmServer>> ClusterServer::BuildShard(
    int member) const {
  return CmServer::Create(ShardConfig(member));
}

int ClusterServer::ShardIndexOf(int member) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].member == member) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int ClusterServer::MemberOfStreamId(int64_t stream_id) {
  return static_cast<int>(stream_id >> kMemberShift);
}

std::vector<int> ClusterServer::members() const {
  std::vector<int> ids;
  ids.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    ids.push_back(shard.member);
  }
  return ids;
}

const CmServer* ClusterServer::shard(int id) const {
  const int index = ShardIndexOf(id);
  return index < 0 ? nullptr : shards_[static_cast<size_t>(index)].server.get();
}

CmServer* ClusterServer::shard(int id) {
  const int index = ShardIndexOf(id);
  return index < 0 ? nullptr : shards_[static_cast<size_t>(index)].server.get();
}

int ClusterServer::OwnerOf(ObjectId object) const {
  const auto it = owner_.find(object);
  return it == owner_.end() ? -1 : it->second;
}

Status ClusterServer::AddObject(ObjectId id, int64_t num_blocks,
                                int64_t bitrate_weight) {
  if (owner_.contains(id)) {
    return AlreadyExistsError("object already in the cluster");
  }
  const int target = map_.MemberOf(static_cast<uint64_t>(id));
  CmServer* server = shard(target);
  SCADDAR_CHECK(server != nullptr);
  SCADDAR_RETURN_IF_ERROR(server->AddObject(id, num_blocks, bitrate_weight));
  owner_[id] = target;
  objects_.push_back(id);
  return OkStatus();
}

Status ClusterServer::RemoveObject(ObjectId id) {
  const auto it = owner_.find(id);
  if (it == owner_.end()) {
    return NotFoundError("object not in the cluster");
  }
  CmServer* server = shard(it->second);
  SCADDAR_CHECK(server != nullptr);
  SCADDAR_RETURN_IF_ERROR(server->RemoveObject(id));
  migrator_.Cancel(id);
  owner_.erase(it);
  objects_.erase(std::find(objects_.begin(), objects_.end(), id));
  return OkStatus();
}

StatusOr<int64_t> ClusterServer::StartStream(ObjectId object) {
  const auto it = owner_.find(object);
  if (it == owner_.end()) {
    return NotFoundError("object not in the cluster");
  }
  CmServer* server = shard(it->second);
  SCADDAR_CHECK(server != nullptr);
  return server->StartStream(object);
}

Status ClusterServer::PauseStream(int64_t stream_id) {
  CmServer* server = shard(MemberOfStreamId(stream_id));
  if (server == nullptr) {
    return NotFoundError("stream's shard is gone");
  }
  return server->PauseStream(stream_id);
}

Status ClusterServer::ResumeStream(int64_t stream_id) {
  CmServer* server = shard(MemberOfStreamId(stream_id));
  if (server == nullptr) {
    return NotFoundError("stream's shard is gone");
  }
  return server->ResumeStream(stream_id);
}

Status ClusterServer::SeekStream(int64_t stream_id, BlockIndex block) {
  CmServer* server = shard(MemberOfStreamId(stream_id));
  if (server == nullptr) {
    return NotFoundError("stream's shard is gone");
  }
  return server->SeekStream(stream_id, block);
}

double ClusterServer::Shard::SmoothedTickNs() const {
  if (ticks_timed < kTickWindow) {
    return 0;
  }
  std::array<double, kTickWindow> window = tick_ns;
  const auto middle = window.begin() + kTickWindow / 2;
  std::nth_element(window.begin(), middle, window.end());
  return *middle;
}

ClusterRoundMetrics ClusterServer::Tick() {
  return RunRound(RoundMode::kMeasured);
}

ClusterRoundMetrics ClusterServer::TickPooled() {
  return RunRound(RoundMode::kPooled);
}

ClusterRoundMetrics ClusterServer::TickSerialized() {
  return RunRound(RoundMode::kSerial);
}

double ClusterServer::ForkJoinNs() {
  const int workers =
      static_cast<int>(std::min<size_t>(shards_.size(), fork_join_ns_.size())) -
      1;
  if (workers < 1) {
    return 0;
  }
  double& cost = fork_join_ns_[static_cast<size_t>(workers)];
  if (cost == 0) {
    cost = pool_->MeasureForkJoinNs(workers);
  }
  return cost;
}

ClusterRoundMetrics ClusterServer::RunRound(RoundMode mode) {
  const int64_t n = static_cast<int64_t>(shards_.size());
  std::vector<RoundMetrics> per_shard(static_cast<size_t>(n));

  // `lanes[i]` is the lane that ticks shard i: 0 is the calling thread,
  // every other lane a woken worker.
  std::vector<int> lanes(static_cast<size_t>(n), 0);
  if (n > 1 && mode != RoundMode::kSerial) {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<ThreadPool>(
          static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
      fork_join_ns_.assign(static_cast<size_t>(pool_->num_threads()), 0);
    }
    if (mode == RoundMode::kPooled) {
      std::iota(lanes.begin(), lanes.end(), 0);
    } else {
      std::vector<double> tick_ns;
      tick_ns.reserve(shards_.size());
      for (const Shard& shard : shards_) {
        tick_ns.push_back(shard.SmoothedTickNs());
      }
      lanes = ShardLanes(tick_ns, pool_->num_threads(), ForkJoinNs());
    }
  }
  const int num_lanes = 1 + *std::max_element(lanes.begin(), lanes.end());

  // Every shard's tick is timed on the thread that runs it; each thread
  // writes only its own shards' windows.
  const auto tick_lanes = [this, &per_shard, &lanes](int64_t lo, int64_t hi) {
    for (size_t i = 0; i < lanes.size(); ++i) {
      if (lanes[i] < lo || lanes[i] >= hi) {
        continue;
      }
      Shard& shard = shards_[i];
      const auto start = std::chrono::steady_clock::now();
      per_shard[i] = shard.server->Tick();
      shard.tick_ns[static_cast<size_t>(shard.ticks_timed++ % kTickWindow)] =
          std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
    }
  };
  if (num_lanes > 1) {
    // Each lane ticks only its own shards; the cluster's round and
    // membership may change only in the serial sections, which the join
    // orders after every worker.
    const int64_t round = round_;
    const int64_t map_epoch = map_.epoch();
    pool_->ParallelFor(0, num_lanes, tick_lanes);
    SCADDAR_CHECK(round_ == round);
    SCADDAR_CHECK(map_.epoch() == map_epoch);
  } else {
    tick_lanes(0, 1);
  }

  // Serial tail, shard creation order throughout: merge, cross-shard pump,
  // commits, retirement. This is the only section where shards interact, so
  // the pooled and serialized paths cannot diverge.
  ClusterRoundMetrics metrics;
  metrics.round = round_;
  metrics.pooled = num_lanes > 1 ? 1 : 0;
  for (const RoundMetrics& m : per_shard) {
    metrics.active_streams += m.active_streams;
    metrics.requests += m.requests;
    metrics.served += m.served;
    metrics.hiccups += m.hiccups;
    metrics.migrated += m.migrated;
    metrics.pending_migration += m.pending_migration;
    metrics.retiring_disks += m.retiring_disks;
  }
  const CrossShardRound pump = migrator_.AdvanceRound(config_.cross_shard_budget);
  for (const ObjectTransfer& transfer : pump.ready_to_commit) {
    CommitTransfer(transfer);
  }
  metrics.cross_shard_blocks = pump.blocks_copied;
  metrics.cross_shard_commits =
      static_cast<int64_t>(pump.ready_to_commit.size());
  RetireDrainedShards();
  metrics.pending_transfers = migrator_.pending_transfers();
  ++round_;
  return metrics;
}

void ClusterServer::CommitTransfer(const ObjectTransfer& transfer) {
  CmServer* source = shard(transfer.from);
  CmServer* dest = shard(transfer.to);
  SCADDAR_CHECK(source != nullptr && dest != nullptr);
  const auto object = source->catalog().GetObject(transfer.object);
  SCADDAR_CHECK(object.ok());

  // The atomic flip: detach the sessions, materialize the replica, move
  // ownership, resume the sessions, drop the source replica. All serial,
  // all this round — no observer ever sees two owners or none.
  const std::vector<StreamHandoff> handoffs =
      source->DetachStreamsFor(transfer.object);
  SCADDAR_CHECK(dest->AddObject(transfer.object, object.value().num_blocks,
                                object.value().bitrate_weight)
                    .ok());
  owner_[transfer.object] = transfer.to;
  for (const StreamHandoff& handoff : handoffs) {
    if (!dest->AdoptStream(handoff).ok()) {
      ++handoff_rejects_;  // Destination admission is full: session drops.
    }
  }
  SCADDAR_CHECK(source->RemoveObject(transfer.object).ok());
}

void ClusterServer::RetireDrainedShards() {
  // A shard owns nothing exactly when its catalog is empty: a commit adds
  // the object to the new owner's catalog and removes it from the old one
  // in the same serial step, and `VerifyIntegrity` cross-checks catalogs
  // against the owner directory.
  const auto drained = [](const Shard& shard) {
    return shard.retiring && shard.server->catalog().num_objects() == 0 &&
           shard.server->active_streams() == 0 &&
           shard.server->migration().idle();
  };
  if (std::none_of(shards_.begin(), shards_.end(), drained)) {
    return;
  }
  std::vector<Shard> keep;
  keep.reserve(shards_.size());
  for (Shard& shard : shards_) {
    if (!drained(shard)) {
      keep.push_back(std::move(shard));
      continue;
    }
    // The shard's samples and counters outlive it: they are the startup
    // latencies of streams it started, handed off or not, and the blocks
    // it served.
    const std::vector<int64_t>& samples = shard.server->startup_latencies();
    retired_latencies_.insert(retired_latencies_.end(), samples.begin(),
                              samples.end());
    retired_served_ += shard.server->total_served();
    retired_hiccups_ += shard.server->total_hiccups();
    retired_completed_ += shard.server->completed_streams();
  }
  shards_.swap(keep);
}

StatusOr<int> ClusterServer::AddServerShard() {
  const int member = map_.AddMember();
  auto server = BuildShard(member);
  if (!server.ok()) {
    SCADDAR_CHECK(map_.RemoveMember(member).ok());
    return server.status();
  }
  shards_.push_back(Shard{member, std::move(server).value(),
                          /*retiring=*/false});
  ReconcileRouting();
  return member;
}

Status ClusterServer::RemoveServerShard(int shard_id) {
  const int index = ShardIndexOf(shard_id);
  if (index < 0 || !map_.HasMember(shard_id)) {
    return NotFoundError("no such routed shard");
  }
  if (map_.num_seats() < 2) {
    return FailedPreconditionError("cannot remove the last shard");
  }
  SCADDAR_RETURN_IF_ERROR(map_.RemoveMember(shard_id));
  shards_[static_cast<size_t>(index)].retiring = true;
  ReconcileRouting();
  return OkStatus();
}

Status ClusterServer::ScaleAddDisks(int shard_id, int64_t count) {
  CmServer* server = shard(shard_id);
  if (server == nullptr) {
    return NotFoundError("no such shard");
  }
  return server->ScaleAdd(count);
}

Status ClusterServer::ScaleRemoveDisks(int shard_id,
                                       std::vector<DiskSlot> slots) {
  CmServer* server = shard(shard_id);
  if (server == nullptr) {
    return NotFoundError("no such shard");
  }
  return server->ScaleRemove(std::move(slots));
}

Status ClusterServer::ConfigureGovernor(int bits, double eps,
                                        double cov_threshold) {
  // Validate once before touching any shard, so a bad knob set leaves every
  // shard's governor untouched (the per-shard calls below cannot fail).
  SCADDAR_RETURN_IF_ERROR(AdaptiveReorgDriver::Create(
                              bits, eps, cov_threshold,
                              config_.shard.reorg_check_every)
                              .status());
  for (Shard& entry : shards_) {
    SCADDAR_RETURN_IF_ERROR(
        entry.server->ConfigureGovernor(bits, eps, cov_threshold));
  }
  config_.shard.governor_bits = bits;
  config_.shard.governor_eps = eps;
  config_.shard.reorg_cov_threshold = cov_threshold;
  return OkStatus();
}

void ClusterServer::SetAutoReorg(bool enabled) {
  for (Shard& entry : shards_) {
    entry.server->SetAutoReorg(enabled);
  }
  config_.shard.auto_reorg = enabled;
}

int64_t ClusterServer::TotalReorgTriggers() const {
  int64_t total = 0;
  for (const Shard& entry : shards_) {
    total += static_cast<int64_t>(entry.server->reorg_triggers().size());
  }
  return total;
}

void ClusterServer::ReconcileRouting() {
  for (const ObjectId object : objects_) {
    const int owner = owner_.at(object);
    const int target = map_.MemberOf(static_cast<uint64_t>(object));
    if (migrator_.HasTransfer(object)) {
      // Point the queued intent at the latest target; a transfer retargeted
      // back home cancels.
      migrator_.Retarget(object, target);
      continue;
    }
    if (target == owner) {
      continue;
    }
    const CmServer* server = shard(owner);
    SCADDAR_CHECK(server != nullptr);
    const auto meta = server->catalog().GetObject(object);
    SCADDAR_CHECK(meta.ok());
    migrator_.Enqueue(ObjectTransfer{object, owner, target,
                                     meta.value().num_blocks,
                                     meta.value().bitrate_weight, 0});
  }
}

Status ClusterServer::VerifyIntegrity() const {
  for (const Shard& entry : shards_) {
    if (map_.HasMember(entry.member) == entry.retiring) {
      return InternalError("retiring flag disagrees with the shard map");
    }
  }
  for (const ObjectId object : objects_) {
    const int owner = owner_.at(object);
    const CmServer* owner_server = shard(owner);
    if (owner_server == nullptr) {
      return InternalError("object owned by a destroyed shard");
    }
    if (!owner_server->catalog().Contains(object)) {
      return InternalError("owner shard is missing the object");
    }
    for (const Shard& other : shards_) {
      if (other.member != owner && other.server->catalog().Contains(object)) {
        return InternalError("object replicated on a non-owner shard");
      }
    }
    const int target = map_.MemberOf(static_cast<uint64_t>(object));
    if (target != owner && migrator_.TargetOf(object) != target) {
      return InternalError("route target diverges with no queued transfer");
    }
  }
  for (const Shard& entry : shards_) {
    if (entry.server->migration().idle()) {
      SCADDAR_RETURN_IF_ERROR(entry.server->VerifyIntegrity());
    }
  }
  return OkStatus();
}

bool ClusterServer::MigrationIdle() const {
  if (!migrator_.idle()) {
    return false;
  }
  for (const Shard& entry : shards_) {
    // A retiring shard still alive means the scale-down has not finished,
    // even with an empty transfer queue (its last round of bookkeeping —
    // destruction — happens in a Tick's serial tail).
    if (entry.retiring || !entry.server->migration().idle()) {
      return false;
    }
  }
  return true;
}

int64_t ClusterServer::active_streams() const {
  int64_t total = 0;
  for (const Shard& entry : shards_) {
    total += entry.server->active_streams();
  }
  return total;
}

int64_t ClusterServer::total_served() const {
  int64_t total = retired_served_;
  for (const Shard& entry : shards_) {
    total += entry.server->total_served();
  }
  return total;
}

int64_t ClusterServer::total_hiccups() const {
  int64_t total = retired_hiccups_;
  for (const Shard& entry : shards_) {
    total += entry.server->total_hiccups();
  }
  return total;
}

int64_t ClusterServer::completed_streams() const {
  int64_t total = retired_completed_;
  for (const Shard& entry : shards_) {
    total += entry.server->completed_streams();
  }
  return total;
}

std::vector<int64_t> ClusterServer::StartupLatencies() const {
  std::vector<int64_t> all = retired_latencies_;
  for (const Shard& entry : shards_) {
    const std::vector<int64_t>& shard_latencies =
        entry.server->startup_latencies();
    all.insert(all.end(), shard_latencies.begin(), shard_latencies.end());
  }
  return all;
}

std::vector<const Stream*> StreamView(const ClusterServer& cluster) {
  std::vector<const Stream*> view;
  for (const int member : cluster.members()) {
    for (const Stream& stream : cluster.shard(member)->streams()) {
      view.push_back(&stream);
    }
  }
  return view;
}

StatusOr<std::string> ClusterServer::EncodeCheckpoint() const {
  ClusterSnapshot snapshot;
  snapshot.seats = map_.seats();
  snapshot.next_member = map_.next_member();
  snapshot.map_epoch = map_.epoch();
  snapshot.owners.reserve(objects_.size());
  for (const ObjectId object : objects_) {
    snapshot.owners.emplace_back(object, owner_.at(object));
  }
  snapshot.shards.reserve(shards_.size());
  for (const Shard& entry : shards_) {
    snapshot.shards.push_back(ClusterSnapshotShard{
        entry.member, entry.retiring,
        EncodeServerSnapshot(entry.server->CaptureState())});
  }
  snapshot.round = round_;
  snapshot.handoff_rejects = handoff_rejects_;
  snapshot.retired_latencies = retired_latencies_;
  snapshot.retired_served = retired_served_;
  snapshot.retired_hiccups = retired_hiccups_;
  snapshot.retired_completed = retired_completed_;
  return EncodeClusterSnapshot(snapshot);
}

Status ClusterServer::WriteCheckpoint(CheckpointManager& manager,
                                      int level) const {
  SCADDAR_ASSIGN_OR_RETURN(const std::string document, EncodeCheckpoint());
  return manager.Write(document, level, round_).status();
}

StatusOr<std::unique_ptr<ClusterServer>> ClusterServer::RestoreFromCheckpoint(
    const ClusterConfig& config, CheckpointManager& manager) {
  SCADDAR_ASSIGN_OR_RETURN(const LoadedCheckpoint loaded,
                           manager.LoadNewestValid());
  SCADDAR_ASSIGN_OR_RETURN(const ClusterSnapshot snapshot,
                           DecodeClusterSnapshot(loaded.payload));
  if (config.cross_shard_budget < 0) {
    return InvalidArgumentError("cross_shard_budget must be >= 0");
  }
  SCADDAR_ASSIGN_OR_RETURN(
      ShardMap map, ShardMap::FromParts(snapshot.seats, snapshot.next_member,
                                        snapshot.map_epoch));
  std::unique_ptr<ClusterServer> cluster(new ClusterServer(config));
  cluster->map_ = std::move(map);
  for (const ClusterSnapshotShard& entry : snapshot.shards) {
    if (cluster->map_.HasMember(entry.member) == entry.retiring) {
      return InvalidArgumentError(
          "checkpointed retiring flag disagrees with the shard map");
    }
    auto server = CmServer::FromSnapshotDocument(
        cluster->ShardConfig(entry.member), entry.document);
    if (!server.ok()) {
      return server.status();
    }
    cluster->shards_.push_back(
        Shard{entry.member, std::move(server).value(), entry.retiring});
  }
  for (const auto& [object, member] : snapshot.owners) {
    if (cluster->ShardIndexOf(member) < 0) {
      return InvalidArgumentError("checkpointed owner is not a known shard");
    }
    if (!cluster->owner_.emplace(object, member).second) {
      return InvalidArgumentError("duplicate object in checkpointed owners");
    }
    cluster->objects_.push_back(object);
  }
  cluster->round_ = snapshot.round;
  cluster->handoff_rejects_ = snapshot.handoff_rejects;
  cluster->retired_latencies_ = snapshot.retired_latencies;
  cluster->retired_served_ = snapshot.retired_served;
  cluster->retired_hiccups_ = snapshot.retired_hiccups;
  cluster->retired_completed_ = snapshot.retired_completed;
  // In-flight transfers were volatile state: any partially copied blocks on
  // a destination died with the process, so re-deriving the queue from
  // route-vs-owner divergence restarts each interrupted transfer cleanly.
  cluster->ReconcileRouting();
  return cluster;
}

}  // namespace scaddar
