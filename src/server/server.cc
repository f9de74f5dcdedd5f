#include "server/server.h"

#include <algorithm>
#include <optional>

#include "faults/injector.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/snapshot.h"
#include "stats/load_metrics.h"
#include "storage/block_io.h"

namespace scaddar {

CmServer::CmServer(const ServerConfig& config)
    : config_(config),
      catalog_(config.master_seed, config.prng_kind, config.bits),
      disks_(config.disk_spec),
      store_(&disks_),
      admission_(config.admission_utilization_cap),
      next_stream_id_(config.first_stream_id) {}

CmServer::~CmServer() = default;

StatusOr<std::unique_ptr<CmServer>> CmServer::Create(
    const ServerConfig& config) {
  if (config.initial_disks <= 0) {
    return InvalidArgumentError("server needs at least one disk");
  }
  if (config.bits < 1 || config.bits > 64) {
    return InvalidArgumentError("bits must be in [1, 64]");
  }
  std::unique_ptr<CmServer> server(new CmServer(config));
  SCADDAR_ASSIGN_OR_RETURN(server->reorg_, BuildReorgDriver(config));
  server->reorg_.set_enabled(config.auto_reorg);
  PolicyOptions options;
  options.seed = config.master_seed ^ 0xd15c5ull;
  SCADDAR_ASSIGN_OR_RETURN(
      server->policy_,
      MakePolicy(config.policy, config.initial_disks, options));
  SCADDAR_RETURN_IF_ERROR(server->SyncDisks());
  if (config.journal_migration) {
    server->migration_.AttachJournal(&server->journal_);
  }
  if (config.storage_backend != "sim") {
    SCADDAR_RETURN_IF_ERROR(server->SelectBackend(config.storage_backend,
                                                  config.io_queue_depth));
  }
  return server;
}

Status CmServer::SelectBackend(std::string_view spec, int queue_depth) {
  if (store_.total_blocks() > 0 || store_.staged_blocks() > 0) {
    return FailedPreconditionError(
        "backend can only change while the store is empty");
  }
  if (spec != "sim" && checkpoint_ != nullptr) {
    return FailedPreconditionError(
        "checkpointing covers the simulated tier; detach the checkpoint "
        "manager before selecting a real backend");
  }
  if (spec == "sim") {
    store_.AttachIoEngine(nullptr);
    migration_.AttachIoEngine(nullptr);
    scheduler_.set_io_engine(nullptr);
    io_engine_.reset();
    config_.storage_backend = "sim";
    return OkStatus();
  }
  BlockIoEngine::Options options;
  options.spec = std::string(spec);
  options.block_bytes = config_.io_block_bytes;
  options.queue_depth =
      queue_depth > 0 ? queue_depth : config_.io_queue_depth;
  options.content_seed = config_.master_seed ^ 0xb10cb17e5ull;
  SCADDAR_ASSIGN_OR_RETURN(io_engine_, BlockIoEngine::Create(options));
  // Route backend faults through the attached injector (looked up per op,
  // so AttachFaultInjector works in either order with backend selection).
  io_engine_->backend().set_fault_hook(
      [this](PhysicalDiskId disk, IoOp op) -> IoFault {
        (void)op;
        FaultInjector* const injector = disks_.fault_injector();
        if (injector == nullptr) {
          return IoFault::kNone;
        }
        const std::optional<BackendFaultKind> fault =
            injector->NextBackendFault(disk);
        if (!fault.has_value()) {
          return IoFault::kNone;
        }
        return *fault == BackendFaultKind::kEio ? IoFault::kEio
                                                : IoFault::kShort;
      });
  store_.AttachIoEngine(io_engine_.get());
  migration_.AttachIoEngine(io_engine_.get());
  scheduler_.set_io_engine(io_engine_.get());
  // Real bytes only move under the WAL protocol: the two-phase round needs
  // journal ids to abort failed copies, and recovery needs the journal to
  // validate staged images.
  config_.storage_backend = std::string(spec);
  config_.io_queue_depth = options.queue_depth;
  config_.journal_migration = true;
  migration_.AttachJournal(&journal_);
  return OkStatus();
}

Status CmServer::SyncDisks() {
  std::vector<PhysicalDiskId> live = policy_->log().physical_disks();
  for (const PhysicalDiskId id : retiring_) {
    live.push_back(id);
  }
  std::sort(live.begin(), live.end());
  live.erase(std::unique(live.begin(), live.end()), live.end());
  return disks_.SyncLiveSet(live);
}

Status CmServer::AddObject(ObjectId id, int64_t num_blocks,
                           int64_t bitrate_weight, int64_t replicas) {
  if (replicas < 1 || replicas > policy_->current_disks()) {
    return InvalidArgumentError(
        "replica count must be in [1, current disks]");
  }
  if (replicas > 1 && io_engine_ != nullptr) {
    return FailedPreconditionError(
        "replicated objects live on the simulated tier only");
  }
  SCADDAR_RETURN_IF_ERROR(
      catalog_.AddObject(id, num_blocks, bitrate_weight));
  // Unwind the catalog if any later layer refuses, so a failed ingest
  // leaves no trace (e.g. bits wider than the generator supports).
  StatusOr<std::vector<uint64_t>> x0 = catalog_.MaterializeX0(id);
  if (!x0.ok()) {
    SCADDAR_CHECK(catalog_.RemoveObject(id).ok());
    return x0.status();
  }
  const Status registered =
      policy_->AddObject(id, std::move(x0).value(), replicas);
  if (!registered.ok()) {
    SCADDAR_CHECK(catalog_.RemoveObject(id).ok());
    return registered;
  }
  // One batch pass resolves the whole initial placement, copies included.
  std::vector<PhysicalDiskId> locations;
  policy_->LocateAllBlocks(id, locations);
  const Status placed = store_.PlaceObject(id, locations);
  if (!placed.ok()) {
    SCADDAR_CHECK(policy_->RemoveObject(id).ok());
    SCADDAR_CHECK(catalog_.RemoveObject(id).ok());
    return placed;
  }
  return MetadataBarrier();
}

Status CmServer::RemoveObject(ObjectId id) {
  if (!catalog_.Contains(id)) {
    return NotFoundError("object not in catalog");
  }
  if (ActiveStreamsFor(id) > 0) {
    return FailedPreconditionError(
        "object has active streams; stop them first");
  }
  SCADDAR_RETURN_IF_ERROR(policy_->RemoveObject(id));
  SCADDAR_RETURN_IF_ERROR(store_.DropObject(id));
  SCADDAR_RETURN_IF_ERROR(catalog_.RemoveObject(id));
  return MetadataBarrier();
}

Status CmServer::ScaleAdd(int64_t count) {
  SCADDAR_ASSIGN_OR_RETURN(const ScalingOp op, ScalingOp::Add(count));
  SCADDAR_RETURN_IF_ERROR(MaybeRebaseBeforeOp(op));
  SCADDAR_RETURN_IF_ERROR(policy_->ApplyOp(op));
  SCADDAR_RETURN_IF_ERROR(SyncDisks());
  migration_.EnqueueReconciliation(store_, *policy_);
  return MetadataBarrier();
}

Status CmServer::ScaleRemove(std::vector<DiskSlot> slots) {
  SCADDAR_ASSIGN_OR_RETURN(const ScalingOp op,
                           ScalingOp::Remove(std::move(slots)));
  const int64_t copies = policy_->MaxCopies();
  const int64_t left = policy_->current_disks() -
                       static_cast<int64_t>(op.removed_slots().size());
  if (copies > 1 && left < copies) {
    return FailedPreconditionError(
        "the removal would leave fewer disks than replicas");
  }
  // A rebase here is safe for the slot numbers below: the fresh policy's
  // epoch 0 addresses the same physical disks in the same order.
  SCADDAR_RETURN_IF_ERROR(MaybeRebaseBeforeOp(op));
  // Resolve the physical disks being retired *before* the op renumbers
  // slots; they keep serving until the migration drains them.
  const std::vector<PhysicalDiskId>& before =
      policy_->log().physical_disks();
  std::vector<PhysicalDiskId> retiring_now;
  for (const DiskSlot slot : op.removed_slots()) {
    if (slot >= static_cast<DiskSlot>(before.size())) {
      return InvalidArgumentError("removal names a slot beyond N_{j-1}");
    }
    retiring_now.push_back(before[static_cast<size_t>(slot)]);
  }
  SCADDAR_RETURN_IF_ERROR(policy_->ApplyOp(op));
  for (const PhysicalDiskId id : retiring_now) {
    retiring_.push_back(id);
  }
  SCADDAR_RETURN_IF_ERROR(SyncDisks());
  migration_.EnqueueReconciliation(store_, *policy_);
  return MetadataBarrier();
}

Status CmServer::FailDisk(PhysicalDiskId disk) {
  if (io_engine_ != nullptr || checkpoint_ != nullptr) {
    return FailedPreconditionError(
        "unplanned failures are simulated without a real backend or "
        "checkpoints");
  }
  if (disks_.IsFailed(disk)) {
    return FailedPreconditionError("disk already failed");
  }
  const std::vector<PhysicalDiskId>& live = policy_->log().physical_disks();
  const auto it = std::find(live.begin(), live.end(), disk);
  if (it == live.end()) {
    return NotFoundError("disk is not part of the placement");
  }
  if (static_cast<int64_t>(live.size()) - 1 < policy_->MaxCopies()) {
    return FailedPreconditionError(
        "failing this disk would leave fewer disks than replicas");
  }
  SCADDAR_ASSIGN_OR_RETURN(
      const ScalingOp op,
      ScalingOp::Remove({static_cast<DiskSlot>(it - live.begin())}));
  SCADDAR_RETURN_IF_ERROR(policy_->ApplyOp(op));
  // The dead disk leaves the array with its copies still charged; each
  // one releases it as the reconciliation re-homes it.
  SCADDAR_RETURN_IF_ERROR(disks_.Fail(disk));
  migration_.EnqueueReconciliation(store_, *policy_);
  return OkStatus();
}

int64_t CmServer::UnreadableBlocks() const {
  if (disks_.failed_ids().empty()) {
    return 0;
  }
  int64_t unreadable = 0;
  for (const auto& [id, x0] : policy_->objects_view()) {
    const std::span<const PhysicalDiskId> row = store_.LocationsOf(id).value();
    for (size_t i = 0; i < x0.size(); ++i) {
      bool readable = false;
      for (size_t k = i; k < row.size() && !readable; k += x0.size()) {
        readable = !disks_.IsFailed(row[k]);
      }
      unreadable += readable ? 0 : 1;
    }
  }
  return unreadable;
}

bool CmServer::WouldExceedTolerance(const ScalingOp& op) const {
  return policy_->log().WouldExceedTolerance(op, catalog_.r0(),
                                             reorg_.governor().eps());
}

Status CmServer::FullRedistribution() {
  // 1. Fresh seeds for every object.
  for (const ObjectId id : catalog_.object_ids()) {
    SCADDAR_RETURN_IF_ERROR(catalog_.BumpGeneration(id));
  }
  // 2. Fresh placement over the current live disks (retiring disks are
  //    already draining and must not receive new placements).
  PolicyOptions options;
  options.seed = config_.master_seed ^ 0xd15c5ull ^
                 static_cast<uint64_t>(round_ + 1);
  SCADDAR_ASSIGN_OR_RETURN(
      std::unique_ptr<PlacementPolicy> fresh,
      MakePolicyWithDisks(config_.policy, policy_->log().physical_disks(),
                          options));
  for (const ObjectId id : catalog_.object_ids()) {
    SCADDAR_ASSIGN_OR_RETURN(std::vector<uint64_t> x0,
                             catalog_.MaterializeX0(id));
    SCADDAR_RETURN_IF_ERROR(
        fresh->AddObject(id, std::move(x0), policy_->CopiesOf(id)));
  }
  policy_ = std::move(fresh);
  // 3. Converge materialized state onto the new placement, online.
  migration_.EnqueueReconciliation(store_, *policy_);
  return MetadataBarrier();
}

StatusOr<int64_t> CmServer::StartStream(ObjectId object) {
  return AdoptStream(StreamHandoff{.object = object});
}

StatusOr<int64_t> CmServer::AdoptStream(const StreamHandoff& handoff) {
  SCADDAR_ASSIGN_OR_RETURN(const CmObject meta,
                           catalog_.GetObject(handoff.object));
  if (!admission_.Admit(committed_load_, meta.bitrate_weight,
                        PlacementBandwidth())) {
    return ResourceExhaustedError("admission control rejected the stream");
  }
  const int64_t id = next_stream_id_++;
  AppendStream(id, handoff.object, meta.num_blocks,
               round_ - handoff.waited_rounds, meta.bitrate_weight)
      .RestoreProgress(handoff.next_block, /*hiccups=*/0, handoff.paused,
                       handoff.playback_started);
  return id;
}

Stream& CmServer::AppendStream(int64_t id, ObjectId object,
                               int64_t num_blocks, int64_t start_round,
                               int64_t rate) {
  SCADDAR_DCHECK(streams_.empty() || streams_.back().id() < id);
  committed_load_ += rate;
  ++streams_per_object_[object];
  return streams_.emplace_back(id, object, num_blocks, start_round, rate,
                               policy_->CopiesOf(object));
}

Stream* CmServer::FindStream(int64_t stream_id) {
  const auto it = std::lower_bound(
      streams_.begin(), streams_.end(), stream_id,
      [](const Stream& stream, int64_t id) { return stream.id() < id; });
  return it != streams_.end() && it->id() == stream_id ? &*it : nullptr;
}

int64_t CmServer::ActiveStreamsFor(ObjectId object) const {
  const auto it = streams_per_object_.find(object);
  return it == streams_per_object_.end() ? 0 : it->second;
}

std::vector<StreamHandoff> CmServer::DetachStreamsFor(ObjectId object) {
  // Rates and handoff states are read before compaction: remove_if leaves
  // moved-from values in the tail.
  std::vector<StreamHandoff> handoffs;
  for (const Stream& stream : streams_) {
    if (stream.object() != object) {
      continue;
    }
    committed_load_ -= stream.rate();
    if (!stream.finished()) {
      handoffs.push_back(StreamHandoff{object, stream.next_block(),
                                       stream.paused(),
                                       stream.playback_started(),
                                       round_ - stream.start_round()});
    }
  }
  const auto detached = std::remove_if(
      streams_.begin(), streams_.end(), [object](const Stream& stream) {
        return stream.object() == object;
      });
  if (detached != streams_.end()) {
    streams_.erase(detached, streams_.end());
    streams_per_object_.erase(object);
  }
  return handoffs;
}

RoundMetrics CmServer::Tick() {
  RoundMetrics metrics;
  metrics.round = round_;
  metrics.active_streams = active_streams();
  if (crashed()) {
    return metrics;  // Dead process until a restart path revives it.
  }
  if (FaultInjector* const injector = disks_.fault_injector()) {
    injector->BeginRound(round_);
    // A refused scheduled failure (unknown or dead disk, too few
    // survivors) hit nothing: the schedule is random.
    for (const PhysicalDiskId disk : injector->TakeDiskFailures()) {
      (void)FailDisk(disk);
    }
  }

  std::vector<int64_t> leftover;
  const RoundServiceResult service = scheduler_.RunBatched(
      streams_, store_, disks_, &leftover, round_, &startup_latencies_);
  metrics.requests = service.requests;
  metrics.served = service.served;
  metrics.served_degraded = service.served_degraded;
  metrics.hiccups = service.hiccups;
  total_served_ += service.served;
  total_hiccups_ += service.hiccups;

  // Land the round's physical serve reads in one batched drain, verified
  // against the canonical images as the completions come back.
  if (io_engine_ != nullptr) {
    SCADDAR_CHECK(io_engine_->FinishServeRound().ok());
  }

  if (config_.migration_extra_budget > 0) {
    for (int64_t& budget : leftover) {
      if (budget != kNotLive) {
        budget += config_.migration_extra_budget;
      }
    }
  }
  metrics.migrated = migration_.RunRound(leftover, store_, disks_, *policy_);
  metrics.pending_migration = migration_.pending();
  if (migration_.crashed()) {
    return metrics;  // Died mid-round; the rest of the round never ran.
  }

  // Retire drained disks.
  if (!retiring_.empty()) {
    std::vector<PhysicalDiskId> still_draining;
    for (const PhysicalDiskId id : retiring_) {
      if (store_.CountOn(id) > 0) {
        still_draining.push_back(id);
      }
    }
    if (still_draining.size() != retiring_.size()) {
      retiring_ = std::move(still_draining);
      SCADDAR_CHECK(SyncDisks().ok());
    }
  }
  metrics.retiring_disks = static_cast<int64_t>(retiring_.size());

  // One pass over the streams after serving: finished streams release
  // their refcount and rate and are compacted out, the survivors keeping
  // their (ascending id) order.
  size_t kept = 0;
  for (size_t i = 0; i < streams_.size(); ++i) {
    Stream& stream = streams_[i];
    if (stream.finished()) {
      const auto count = streams_per_object_.find(stream.object());
      SCADDAR_CHECK(count != streams_per_object_.end());
      if (--count->second == 0) {
        streams_per_object_.erase(count);
      }
      committed_load_ -= stream.rate();
      ++completed_streams_;
      continue;
    }
    if (kept != i) {
      streams_[kept] = std::move(stream);
    }
    ++kept;
  }
  streams_.erase(streams_.begin() + static_cast<ptrdiff_t>(kept),
                 streams_.end());

  ++round_;
  MaybeCheckpoint();
  // Adaptive driver check last, after the round is fully accounted and any
  // due checkpoint covers the pre-reorg state — a kill between the
  // checkpoint and the triggered reorg loses only the trigger, never a
  // committed move. The recorded round is the post-increment value, so a
  // twin server can replay the trigger by issuing a manual
  // FullRedistribution after the Tick whose round() matches.
  MaybeAutoReorgOnRound();
  return metrics;
}

StatusOr<AdaptiveReorgDriver> CmServer::BuildReorgDriver(
    const ServerConfig& config) {
  const int bits =
      config.governor_bits > 0 ? config.governor_bits : config.bits;
  return AdaptiveReorgDriver::Create(bits, config.governor_eps,
                                     config.reorg_cov_threshold,
                                     config.reorg_check_every);
}

Status CmServer::ConfigureGovernor(int bits, double eps,
                                   double cov_threshold) {
  SCADDAR_ASSIGN_OR_RETURN(
      AdaptiveReorgDriver driver,
      AdaptiveReorgDriver::Create(bits, eps, cov_threshold,
                                  config_.reorg_check_every));
  driver.set_enabled(reorg_.enabled());
  driver.RestoreTriggers(reorg_.triggers());
  reorg_ = std::move(driver);
  config_.governor_bits = bits;
  config_.governor_eps = eps;
  config_.reorg_cov_threshold = cov_threshold;
  return OkStatus();
}

void CmServer::SetAutoReorg(bool enabled) {
  reorg_.set_enabled(enabled);
  config_.auto_reorg = enabled;
}

Status CmServer::MaybeRebaseBeforeOp(const ScalingOp& op) {
  if (!reorg_.WantsRebaseBeforeOp(policy_->log(), op)) {
    return OkStatus();
  }
  reorg_.RecordTrigger(round_, ReorgReason::kBudget,
                       reorg_.governor().BudgetConsumed(policy_->log()));
  return FullRedistribution();
}

void CmServer::MaybeAutoReorgOnRound() {
  if (!reorg_.enabled() || crashed()) {
    return;
  }
  // Budget overrun: possible when the governor was tightened (or turned on)
  // over an already-long op log. The rebase resets the log, so this cannot
  // re-fire next round.
  if (reorg_.BudgetExceeded(policy_->log())) {
    reorg_.RecordTrigger(round_, ReorgReason::kBudget,
                         reorg_.governor().BudgetConsumed(policy_->log()));
    const Status status = FullRedistribution();
    SCADDAR_CHECK(status.ok() || status.code() == StatusCode::kUnavailable);
    return;
  }
  if (!reorg_.CovCheckDue(round_)) {
    return;
  }
  // Only judge a settled layout: mid-migration or mid-drain counts reflect
  // a reorganization already underway (this is also what keeps a restarted
  // server from re-triggering a reorg it is resuming).
  if (!migration_.idle() || !retiring_.empty() || store_.total_blocks() <= 0) {
    return;
  }
  const std::unordered_map<PhysicalDiskId, int64_t>& per_disk =
      store_.per_disk_counts();
  std::vector<int64_t> counts;
  for (const PhysicalDiskId id : policy_->log().physical_disks()) {
    const auto it = per_disk.find(id);
    counts.push_back(it == per_disk.end() ? 0 : it->second);
  }
  if (counts.empty()) {
    return;
  }
  const LoadMetrics metrics = ComputeLoadMetrics(counts);
  if (!reorg_.CovExceeded(metrics.coefficient_of_variation)) {
    return;
  }
  reorg_.RecordTrigger(round_, ReorgReason::kCov,
                       metrics.coefficient_of_variation);
  const Status status = FullRedistribution();
  SCADDAR_CHECK(status.ok() || status.code() == StatusCode::kUnavailable);
}

Status CmServer::PauseStream(int64_t stream_id) {
  Stream* const stream = FindStream(stream_id);
  if (stream == nullptr) {
    return NotFoundError("no active stream with that id");
  }
  stream->Pause();
  return OkStatus();
}

Status CmServer::ResumeStream(int64_t stream_id) {
  Stream* const stream = FindStream(stream_id);
  if (stream == nullptr) {
    return NotFoundError("no active stream with that id");
  }
  stream->Resume();
  return OkStatus();
}

Status CmServer::SeekStream(int64_t stream_id, BlockIndex block) {
  Stream* const stream = FindStream(stream_id);
  if (stream == nullptr) {
    return NotFoundError("no active stream with that id");
  }
  stream->SeekTo(block);
  return OkStatus();
}

StatusOr<JournalRecoveryStats> CmServer::SimulateCrashRestart() {
  // Volatile state dies with the process: the migration queue, the active
  // streams and this round's budgets.
  migration_.Reset();
  snapshot_crashed_ = false;
  streams_.clear();
  streams_per_object_.clear();
  committed_load_ = 0;
  // The engine crashes first: queued-but-unsubmitted staged copies vanish
  // (their bytes never reached the medium), the slot layout round-trips
  // through its serialized form, and every disk reopens through the
  // backend. Recovery below then validates each journaled staged image
  // before trusting it — this is where torn copies are caught.
  if (io_engine_ != nullptr) {
    SCADDAR_RETURN_IF_ERROR(io_engine_->SimulateCrashRestart());
  }
  // The journal is the durable WAL a real server would fsync: round-trip it
  // through its text form so recovery provably runs off the serialized
  // bytes alone.
  SCADDAR_ASSIGN_OR_RETURN(journal_,
                           MoveJournal::Deserialize(journal_.Serialize()));
  return RecoverFromJournal(/*rescan=*/true);
}

StatusOr<JournalRecoveryStats> CmServer::RecoverFromJournal(bool rescan) {
  // Intents discard, validated copies roll forward, orphan stages release.
  SCADDAR_ASSIGN_OR_RETURN(const JournalRecoveryStats stats,
                           journal_.Recover(store_));
  journal_.Compact();
  // Recompute the retiring set from durable state: a disk still holding
  // blocks but absent from the placement live set is mid-drain, unless it
  // failed.
  retiring_.clear();
  const std::vector<PhysicalDiskId>& live = policy_->log().physical_disks();
  for (const auto& [disk, count] : store_.per_disk_counts()) {
    if (count > 0 && !disks_.IsFailed(disk) &&
        std::find(live.begin(), live.end(), disk) == live.end()) {
      retiring_.push_back(disk);
    }
  }
  std::sort(retiring_.begin(), retiring_.end());
  SCADDAR_RETURN_IF_ERROR(SyncDisks());
  // Re-seed the migration queue: the divergence scan re-discovers every
  // block AF() wants elsewhere, including moves whose journal intents were
  // discarded — idempotent re-execution instead of replaying stale plans.
  // A draining disk always needs it.
  if (rescan || !retiring_.empty()) {
    migration_.EnqueueReconciliation(store_, *policy_);
  }
  return stats;
}

Status CmServer::AttachCheckpointManager(CheckpointManager* manager) {
  if (manager == nullptr) {
    checkpoint_ = nullptr;
    return OkStatus();
  }
  if (io_engine_ != nullptr) {
    return FailedPreconditionError(
        "checkpointing covers the simulated tier; the real-I/O engine "
        "persists its own layout and journal");
  }
  for (const PhysicalDiskId disk : disks_.failed_ids()) {
    if (store_.CountOn(disk) > 0) {
      return FailedPreconditionError(
          "a failed disk still holds copies; a snapshot cannot record it");
    }
  }
  checkpoint_ = manager;
  // Checkpoint restart replays the WAL over snapshot rows; every move must
  // journal or committed placements could be lost.
  config_.journal_migration = true;
  migration_.AttachJournal(&journal_);
  return OkStatus();
}

Status CmServer::EnableCheckpoints(CheckpointManager* manager, int64_t every,
                                   int64_t level2_every) {
  if (manager == nullptr || every <= 0 || level2_every < 0) {
    return InvalidArgumentError(
        "checkpointing needs a manager and a positive interval");
  }
  SCADDAR_RETURN_IF_ERROR(AttachCheckpointManager(manager));
  config_.checkpoint_every = every;
  config_.checkpoint_level2_every = level2_every;
  // Bootstrap set: a restart is possible before the first interval elapses.
  return WriteCheckpoint(level2_every > 0 ? 2 : 1);
}

ServerSnapshot CmServer::CaptureState() const {
  ServerSnapshot snapshot;
  snapshot.policy = std::string(policy_->name());
  snapshot.oplog = policy_->log().Serialize();
  snapshot.journal = journal_.SerializeUnfinished();
  for (const ObjectId id : catalog_.object_ids()) {
    const CmObject object = catalog_.GetObject(id).value();
    SnapshotObject record;
    record.id = object.id;
    record.num_blocks = object.num_blocks;
    record.weight = object.bitrate_weight;
    record.generation = object.seed_generation;
    record.epoch_added = policy_->epoch_added(id);
    const std::span<const PhysicalDiskId> row =
        store_.LocationsOf(id).value();
    record.row.assign(row.begin(), row.end());
    snapshot.objects.push_back(std::move(record));
  }
  snapshot.staged = store_.StagedCopies();
  for (const Stream& stream : streams_) {
    snapshot.streams.push_back(SnapshotStream{
        stream.id(), stream.object(), stream.next_block(), stream.rate(),
        stream.start_round(), stream.hiccups(), stream.paused(),
        stream.playback_started()});
  }
  snapshot.startup_latencies = startup_latencies_;
  snapshot.round = round_;
  snapshot.next_stream_id = next_stream_id_;
  snapshot.completed_streams = completed_streams_;
  snapshot.total_served = total_served_;
  snapshot.total_hiccups = total_hiccups_;
  // Quiescent capture: nothing pending, staged or draining means the rows
  // above provably equal AF() — restore can skip the divergence rescan.
  snapshot.converged =
      migration_.idle() && snapshot.staged.empty() && retiring_.empty();
  snapshot.governor_bits = reorg_.governor().bits();
  snapshot.governor_eps = reorg_.governor().eps();
  snapshot.reorg_cov_threshold = reorg_.cov_threshold();
  snapshot.reorg_check_every = reorg_.check_every();
  snapshot.auto_reorg = reorg_.enabled();
  snapshot.reorg_triggers = reorg_.triggers();
  return snapshot;
}

Status CmServer::WriteCheckpoint(int level) {
  if (checkpoint_ == nullptr) {
    return FailedPreconditionError("no checkpoint manager attached");
  }
  const std::string document = EncodeServerSnapshot(CaptureState());
  const StatusOr<CheckpointSetInfo> written =
      checkpoint_->Write(document, level, round_, disks_.fault_injector());
  if (!written.ok()) {
    if (written.status().code() == StatusCode::kUnavailable) {
      snapshot_crashed_ = true;  // Injected kill mid-write: process is dead.
    }
    return written.status();
  }
  // The set is durable and covers every committed move, so the journal's
  // committed prefix is dead weight from here on (this is what keeps
  // restart-from-checkpoint cheaper than full replay: the retained suffix
  // stays short). Not before: a killed write restarts from the previous
  // set, and replays these entries over it.
  journal_.Compact();
  return OkStatus();
}

Status CmServer::MetadataBarrier() {
  if (checkpoint_ == nullptr) {
    return OkStatus();
  }
  // Metadata mutations bypass the move journal, so the mutation is durable
  // only once a set covers it. A kill inside the barrier correctly loses
  // the mutation — the caller sees Unavailable, and restart rewinds to the
  // state before it.
  return WriteCheckpoint(1);
}

void CmServer::MaybeCheckpoint() {
  if (checkpoint_ == nullptr || config_.checkpoint_every <= 0) {
    return;
  }
  int level = 0;
  if (config_.checkpoint_level2_every > 0 &&
      round_ % config_.checkpoint_level2_every == 0) {
    level = 2;
  } else if (round_ % config_.checkpoint_every == 0) {
    level = 1;
  }
  if (level == 0) {
    return;
  }
  const Status status = WriteCheckpoint(level);
  // Unavailable = injected snapshot kill; the server is now crashed and the
  // chaos harness restarts it. Anything else is a programmer error.
  SCADDAR_CHECK(status.ok() || status.code() == StatusCode::kUnavailable);
}

Status CmServer::LoadFromState(const ServerSnapshot& snapshot,
                               std::string_view live_journal,
                               CheckpointRestoreStats* stats) {
  if (config_.storage_backend != "sim") {
    return FailedPreconditionError(
        "checkpoint restore covers the simulated tier only");
  }
  if (snapshot.policy != config_.policy) {
    return InvalidArgumentError("snapshot policy differs from config");
  }
  if (snapshot.policy != "scaddar" && snapshot.policy != "naive" &&
      snapshot.policy != "mod" && snapshot.policy != "roundrobin") {
    return UnimplementedError(
        "only deterministic policies can be restored from a checkpoint");
  }
  SCADDAR_ASSIGN_OR_RETURN(const OpLog script,
                           OpLog::Deserialize(snapshot.oplog));
  for (const SnapshotObject& record : snapshot.objects) {
    if (record.epoch_added < 0 || record.epoch_added > script.num_ops()) {
      return InvalidArgumentError(
          "object registration epoch outside the op log");
    }
    // The row holds every copy of every block: its length is a whole
    // multiple of the object's size, and that multiple is the copy count.
    if (record.num_blocks <= 0 || record.row.empty() ||
        static_cast<int64_t>(record.row.size()) % record.num_blocks != 0) {
      return InvalidArgumentError(
          "snapshot row length is not a whole number of copies");
    }
  }
  for (size_t i = 1; i < snapshot.streams.size(); ++i) {
    if (snapshot.streams[i - 1].id >= snapshot.streams[i].id) {
      return InvalidArgumentError("snapshot streams out of id order");
    }
  }

  // Policy + catalog: registrations interleaved with op replay, so every
  // object's remap chain starts at its recorded epoch — the policy must say
  // where blocks *should* be so the reconciliation scan below can finish any
  // interrupted reorganization.
  PolicyOptions options;
  options.seed = config_.master_seed ^ 0xd15c5ull;
  SCADDAR_ASSIGN_OR_RETURN(
      policy_, MakePolicyWithDisks(config_.policy,
                                   script.physical_disks_at(0), options));
  for (Epoch j = 0; j <= script.num_ops(); ++j) {
    for (const SnapshotObject& record : snapshot.objects) {
      if (record.epoch_added != j) {
        continue;
      }
      SCADDAR_RETURN_IF_ERROR(
          catalog_.AddObject(record.id, record.num_blocks, record.weight));
      SCADDAR_RETURN_IF_ERROR(
          catalog_.SetGeneration(record.id, record.generation));
      SCADDAR_ASSIGN_OR_RETURN(std::vector<uint64_t> x0,
                               catalog_.MaterializeX0(record.id));
      SCADDAR_RETURN_IF_ERROR(policy_->AddObject(
          record.id, std::move(x0),
          static_cast<int64_t>(record.row.size()) / record.num_blocks));
    }
    if (j < script.num_ops()) {
      SCADDAR_RETURN_IF_ERROR(policy_->ApplyOp(script.op(j + 1)));
    }
  }

  // The surviving WAL, not the snapshot's embedded copy, is authoritative
  // for everything that moved after the capture.
  SCADDAR_ASSIGN_OR_RETURN(journal_, MoveJournal::Deserialize(live_journal));
  // An empty WAL on top of a quiescent capture proves no move finished, and
  // none was in flight, after the rows were taken.
  const bool quiescent = snapshot.converged && snapshot.staged.empty() &&
                         journal_.entries().empty();

  // Every disk the rows, stages or journal reference must exist before
  // placement — disks absent from the placement live set are mid-drain.
  // Membership goes through a dense bitmap: the scan visits one entry per
  // block, so sorting the reference union would dominate large restores.
  const std::vector<PhysicalDiskId>& live = policy_->log().physical_disks();
  PhysicalDiskId max_live = -1;
  for (const PhysicalDiskId disk : live) {
    max_live = std::max(max_live, disk);
  }
  std::vector<char> is_live(static_cast<size_t>(max_live + 1), 0);
  for (const PhysicalDiskId disk : live) {
    is_live[static_cast<size_t>(disk)] = 1;
  }
  std::vector<PhysicalDiskId> missing;
  const auto note_missing = [&](PhysicalDiskId disk) {
    if (disk < 0 || disk > max_live || !is_live[static_cast<size_t>(disk)]) {
      missing.push_back(disk);
    }
  };
  for (const SnapshotObject& record : snapshot.objects) {
    for (const PhysicalDiskId disk : record.row) {
      note_missing(disk);
    }
  }
  for (const auto& [ref, disk] : snapshot.staged) {
    note_missing(disk);
  }
  for (const JournalEntry& entry : journal_.entries()) {
    note_missing(entry.from);
    note_missing(entry.to);
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  retiring_.insert(retiring_.end(), missing.begin(), missing.end());
  SCADDAR_RETURN_IF_ERROR(SyncDisks());

  // Materialize rows *directly* from the snapshot — no per-block remap
  // chain walk. This is the restart-speed win over recomputing AF() for
  // every block, and the only correct source mid-migration (the policy's
  // AF() may disagree with where blocks physically were).
  for (const SnapshotObject& record : snapshot.objects) {
    SCADDAR_RETURN_IF_ERROR(store_.PlaceObject(record.id, record.row));
  }
  for (const auto& [ref, disk] : snapshot.staged) {
    SCADDAR_RETURN_IF_ERROR(store_.StageCopy(ref, disk));
  }

  // Journal-wins reconciliation, pass 1: entries that *finished* after the
  // capture describe state newer than the snapshot rows. Replaying them in
  // log order re-applies every committed move (nothing committed is ever
  // lost) and re-creates durable stages the snapshot predates.
  for (const JournalEntry& entry : journal_.entries()) {
    const StatusOr<PhysicalDiskId> location = store_.LocationOf(entry.block);
    if (!location.ok()) {
      continue;  // Object dropped after this entry; nothing to re-apply.
    }
    if (entry.phase == JournalPhase::kCommitted) {
      if (*location == entry.to) {
        continue;  // Already reflected in the snapshot rows.
      }
      if (*location != entry.from) {
        return InternalError(
            "checkpoint replay: committed move from an unexpected disk");
      }
      const StatusOr<PhysicalDiskId> staged =
          store_.StagedTarget(entry.block);
      if (staged.ok() && *staged == entry.to) {
        SCADDAR_RETURN_IF_ERROR(
            store_.CommitStagedMove(entry.block, entry.from, entry.to));
      } else {
        BlockMove move;
        move.block = entry.block;
        move.from_physical = entry.from;
        move.to_physical = entry.to;
        SCADDAR_RETURN_IF_ERROR(store_.ApplyMove(move));
      }
      if (stats != nullptr) {
        ++stats->committed_replayed;
      }
    } else if (entry.phase == JournalPhase::kCopied) {
      // The copied record proves durable staged bytes; re-create the stage
      // if the snapshot predates it so `Recover` can roll it forward.
      const StatusOr<PhysicalDiskId> staged =
          store_.StagedTarget(entry.block);
      if (*location == entry.from && !staged.ok()) {
        SCADDAR_RETURN_IF_ERROR(store_.StageCopy(entry.block, entry.to));
      }
    } else if (entry.phase == JournalPhase::kAborted) {
      // Abort landed after the capture: release the captured stage.
      const StatusOr<PhysicalDiskId> staged =
          store_.StagedTarget(entry.block);
      if (staged.ok() && *staged == entry.to) {
        SCADDAR_RETURN_IF_ERROR(store_.AbortStagedCopy(entry.block));
      }
    }
  }
  // Pass 2: the standard crash protocol resolves what was *in flight*; a
  // disk fully drained between capture and kill retires here, and any
  // reorganization the kill interrupted resumes. A quiescent capture with
  // an empty WAL skips the rescan — the rows landed exactly where AF()
  // wants them, and rescanning every block would cost what replay costs.
  // This is the common case that keeps checkpoint restart cheaper than
  // replay.
  SCADDAR_ASSIGN_OR_RETURN(const JournalRecoveryStats journal_stats,
                           RecoverFromJournal(/*rescan=*/!quiescent));
  if (stats != nullptr) {
    stats->journal = journal_stats;
  }

  // Streams resume at their saved positions; serving counters carry over so
  // metric continuity is assertable across the restart.
  for (const SnapshotStream& record : snapshot.streams) {
    SCADDAR_ASSIGN_OR_RETURN(const CmObject meta,
                             catalog_.GetObject(record.object));
    AppendStream(record.id, record.object, meta.num_blocks,
                 record.start_round, record.rate)
        .RestoreProgress(record.next_block, record.hiccups, record.paused,
                         record.playback_started);
  }
  startup_latencies_ = snapshot.startup_latencies;
  round_ = snapshot.round;
  next_stream_id_ = snapshot.next_stream_id;
  completed_streams_ = snapshot.completed_streams;
  total_served_ = snapshot.total_served;
  total_hiccups_ = snapshot.total_hiccups;

  // The adaptive driver — governor parameters, enablement and trigger
  // history — is part of the durable state: a kill-restart must *resume* a
  // pending reorganization (the reconciliation below) without re-counting
  // it as a new trigger. Pre-driver documents (bits == 0) keep the
  // config-built driver.
  if (snapshot.governor_bits > 0) {
    SCADDAR_ASSIGN_OR_RETURN(
        reorg_, AdaptiveReorgDriver::Create(
                    snapshot.governor_bits, snapshot.governor_eps,
                    snapshot.reorg_cov_threshold, snapshot.reorg_check_every));
    reorg_.set_enabled(snapshot.auto_reorg);
    reorg_.RestoreTriggers(snapshot.reorg_triggers);
    config_.governor_bits = snapshot.governor_bits;
    config_.governor_eps = snapshot.governor_eps;
    config_.reorg_cov_threshold = snapshot.reorg_cov_threshold;
    config_.reorg_check_every = snapshot.reorg_check_every;
    config_.auto_reorg = snapshot.auto_reorg;
  }
  if (stats != nullptr) {
    stats->streams_restored = static_cast<int64_t>(streams_.size());
  }

  if (config_.journal_migration) {
    migration_.AttachJournal(&journal_);
  }
  return OkStatus();
}

StatusOr<CheckpointRestoreStats> CmServer::KillRestartFromCheckpoint() {
  if (checkpoint_ == nullptr) {
    return FailedPreconditionError("no checkpoint manager attached");
  }
  // What survives the kill: the checkpoint locations (inside the manager)
  // and the journal's serialized WAL. Everything else dies below.
  const std::string live_journal = journal_.Serialize();
  SCADDAR_ASSIGN_OR_RETURN(LoadedCheckpoint loaded,
                           checkpoint_->LoadNewestValid());
  SCADDAR_ASSIGN_OR_RETURN(const ServerSnapshot snapshot,
                           DecodeServerSnapshot(loaded.payload));

  // Rebuild in place from empty — the same members a fresh server starts
  // with, minus the attachments that survive (injector, manager).
  FaultInjector* const injector = disks_.fault_injector();
  catalog_ = Catalog(config_.master_seed, config_.prng_kind, config_.bits);
  policy_.reset();
  disks_ = DiskArray(config_.disk_spec);
  disks_.set_fault_injector(injector);
  store_ = BlockStore(&disks_);
  journal_ = MoveJournal();
  migration_.Reset();
  migration_.AttachJournal(&journal_);
  SCADDAR_ASSIGN_OR_RETURN(reorg_, BuildReorgDriver(config_));
  reorg_.set_enabled(config_.auto_reorg);
  streams_.clear();
  streams_per_object_.clear();
  committed_load_ = 0;
  retiring_.clear();
  startup_latencies_.clear();
  round_ = 0;
  next_stream_id_ = config_.first_stream_id;
  completed_streams_ = 0;
  total_hiccups_ = 0;
  total_served_ = 0;
  snapshot_crashed_ = false;

  CheckpointRestoreStats stats;
  stats.set_id = loaded.info.id;
  stats.level = loaded.info.level;
  stats.snapshot_round = loaded.info.round;
  stats.sets_rejected = loaded.sets_rejected;
  stats.rebuilt_from_parity = loaded.rebuilt_from_parity;
  SCADDAR_RETURN_IF_ERROR(LoadFromState(snapshot, live_journal, &stats));
  return stats;
}

StatusOr<std::unique_ptr<CmServer>> CmServer::FromSnapshotDocument(
    const ServerConfig& config, std::string_view document,
    CheckpointRestoreStats* stats) {
  SCADDAR_ASSIGN_OR_RETURN(const ServerSnapshot snapshot,
                           DecodeServerSnapshot(document));
  std::unique_ptr<CmServer> server(new CmServer(config));
  // The embedded journal is the WAL here: a cold restore has no newer text.
  // It holds only the moves in flight at the capture; replaying finished
  // ones over rows that already record them could find a block that moved
  // twice on neither end of its first move.
  SCADDAR_RETURN_IF_ERROR(
      server->LoadFromState(snapshot, snapshot.journal, stats));
  return server;
}

StatusOr<std::unique_ptr<CmServer>> CmServer::RestoreFromCheckpoint(
    const ServerConfig& config, CheckpointManager& manager,
    CheckpointRestoreStats* stats) {
  SCADDAR_ASSIGN_OR_RETURN(LoadedCheckpoint loaded,
                           manager.LoadNewestValid());
  CheckpointRestoreStats local;
  CheckpointRestoreStats* const out = stats != nullptr ? stats : &local;
  out->set_id = loaded.info.id;
  out->level = loaded.info.level;
  out->snapshot_round = loaded.info.round;
  out->sets_rejected = loaded.sets_rejected;
  out->rebuilt_from_parity = loaded.rebuilt_from_parity;
  SCADDAR_ASSIGN_OR_RETURN(std::unique_ptr<CmServer> server,
                           FromSnapshotDocument(config, loaded.payload, out));
  // The manager stays attached: checkpointing continues across restarts.
  SCADDAR_RETURN_IF_ERROR(server->AttachCheckpointManager(&manager));
  return server;
}

Status CmServer::VerifyIntegrity() const {
  if (!migration_.idle()) {
    return FailedPreconditionError(
        "migration in progress; store may lag AF()");
  }
  return store_.VerifyAgainstPolicy(*policy_);
}

int64_t CmServer::PlacementBandwidth() const {
  // Disk specs never change once a disk exists, so the sum moves only with
  // the placement's disk set.
  if (bandwidth_key_ == policy_->placement_key()) {
    return placement_bandwidth_;
  }
  int64_t total = 0;
  for (const PhysicalDiskId id : policy_->log().physical_disks()) {
    const StatusOr<const SimDisk*> disk = disks_.GetDisk(id);
    SCADDAR_CHECK(disk.ok());
    total += (*disk)->spec().bandwidth_blocks_per_round;
  }
  placement_bandwidth_ = total;
  bandwidth_key_ = policy_->placement_key();
  return total;
}

}  // namespace scaddar
