#include "storage/block_io.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/tokens.h"

namespace scaddar {

namespace {

constexpr uint64_t kImageMagic = 0x5caddab10c4b1e55ull;
constexpr int64_t kHeaderBytes = 16;
constexpr std::string_view kLayoutHeader = "layout-v1";
// Serve-read buffer arena, in blocks; registered with the backend when it
// can pin memory, and drained early when a round fills it.
constexpr int kServeArenaBlocks = 256;

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t ImageSeed(BlockRef ref, uint64_t seed) {
  uint64_t state = seed ^ (static_cast<uint64_t>(ref.object) * 0x100000001b3ull);
  state ^= static_cast<uint64_t>(ref.block) + 0x9e3779b97f4a7c15ull;
  return SplitMix64(state);
}

StatusOr<int64_t> ParseInt(std::string_view token) {
  return ParseIntToken(token, "layout");
}

void AppendInt(std::string& out, int64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), " %lld",
                static_cast<long long>(value));
  out += buffer;
}

}  // namespace

void BlockIoEngine::FreeDeleter::operator()(std::byte* p) const {
  std::free(p);
}

void BlockIoEngine::FillImage(BlockRef ref, uint64_t seed, std::byte* out,
                              int64_t len) {
  SCADDAR_CHECK(len >= kHeaderBytes);
  const uint64_t header[2] = {kImageMagic ^ static_cast<uint64_t>(ref.object),
                              static_cast<uint64_t>(ref.block)};
  std::memcpy(out, header, sizeof(header));
  uint64_t state = ImageSeed(ref, seed);
  int64_t offset = kHeaderBytes;
  while (offset + 8 <= len) {
    const uint64_t word = SplitMix64(state);
    std::memcpy(out + offset, &word, 8);
    offset += 8;
  }
  if (offset < len) {
    const uint64_t word = SplitMix64(state);
    std::memcpy(out + offset, &word, static_cast<size_t>(len - offset));
  }
}

bool BlockIoEngine::CheckImage(BlockRef ref, uint64_t seed,
                               const std::byte* data, int64_t len) {
  if (len < kHeaderBytes) {
    return false;
  }
  uint64_t header[2];
  std::memcpy(header, data, sizeof(header));
  if (header[0] != (kImageMagic ^ static_cast<uint64_t>(ref.object)) ||
      header[1] != static_cast<uint64_t>(ref.block)) {
    return false;
  }
  uint64_t state = ImageSeed(ref, seed);
  int64_t offset = kHeaderBytes;
  while (offset + 8 <= len) {
    const uint64_t expected = SplitMix64(state);
    uint64_t actual = 0;
    std::memcpy(&actual, data + offset, 8);
    if (actual != expected) {
      return false;
    }
    offset += 8;
  }
  if (offset < len) {
    const uint64_t expected = SplitMix64(state);
    if (std::memcmp(data + offset, &expected,
                    static_cast<size_t>(len - offset)) != 0) {
      return false;
    }
  }
  return true;
}

BlockIoEngine::BlockIoEngine(const Options& options) : options_(options) {}

BlockIoEngine::~BlockIoEngine() = default;

StatusOr<std::unique_ptr<BlockIoEngine>> BlockIoEngine::Create(
    const Options& options) {
  if (options.block_bytes < 4096 || options.block_bytes % 4096 != 0) {
    return InvalidArgumentError(
        "block_bytes must be a positive multiple of 4096");
  }
  std::unique_ptr<BlockIoEngine> engine(new BlockIoEngine(options));
  SCADDAR_RETURN_IF_ERROR(engine->Init());
  return engine;
}

Status BlockIoEngine::Init() {
  BackendOptions backend_options;
  backend_options.block_bytes = options_.block_bytes;
  backend_options.queue_depth = options_.queue_depth;
  SCADDAR_ASSIGN_OR_RETURN(
      backend_, MakeStorageBackend(options_.spec, backend_options));
  arena_.reset(static_cast<std::byte*>(std::aligned_alloc(
      4096, static_cast<size_t>(kServeArenaBlocks * options_.block_bytes))));
  scratch_.reset(static_cast<std::byte*>(
      std::aligned_alloc(4096, static_cast<size_t>(options_.block_bytes))));
  if (arena_ == nullptr || scratch_ == nullptr) {
    return ResourceExhaustedError("aligned buffer allocation failed");
  }
  return backend_->RegisterBufferArena(arena_.get(), kServeArenaBlocks);
}

BlockIoEngine::AlignedPtr BlockIoEngine::AllocBlock() const {
  return AlignedPtr(static_cast<std::byte*>(
      std::aligned_alloc(4096, static_cast<size_t>(options_.block_bytes))));
}

Status BlockIoEngine::EnsureDisk(PhysicalDiskId disk) {
  if (open_disks_.count(disk) != 0) {
    return OkStatus();
  }
  SCADDAR_RETURN_IF_ERROR(backend_->OpenDisk(disk));
  open_disks_.insert(disk);
  layouts_.try_emplace(disk);
  return OkStatus();
}

int64_t BlockIoEngine::AllocSlot(PhysicalDiskId disk) {
  DiskLayout& layout = layouts_[disk];
  if (!layout.free_slots.empty()) {
    const int64_t slot = layout.free_slots.back();
    layout.free_slots.pop_back();
    return slot;
  }
  return layout.next_slot++;
}

void BlockIoEngine::FreeSlot(SlotLoc loc) {
  layouts_[loc.disk].free_slots.push_back(loc.slot);
}

StatusOr<BlockIoEngine::SlotLoc> BlockIoEngine::AuthoritativeLoc(
    BlockRef ref) const {
  const auto it = objects_.find(ref.object);
  if (it == objects_.end() || ref.block < 0 ||
      ref.block >= static_cast<BlockIndex>(it->second.size())) {
    return NotFoundError("unknown block");
  }
  return it->second[static_cast<size_t>(ref.block)];
}

Status BlockIoEngine::DrainAndDispatch() {
  std::vector<IoCompletion> completions;
  SCADDAR_RETURN_IF_ERROR(backend_->DrainCompletions(completions));
  for (IoCompletion& completion : completions) {
    const auto it = pending_.find(completion.token);
    SCADDAR_CHECK(it != pending_.end());
    const PendingTag tag = it->second;
    pending_.erase(it);
    const bool full = completion.status.ok() &&
                      completion.bytes == options_.block_bytes;
    switch (tag.kind) {
      case PendingTag::Kind::kServeRead: {
        const std::byte* buf =
            arena_.get() + static_cast<int64_t>(tag.index) *
                               options_.block_bytes;
        // Header-only verification on the hot path; full-image checks are
        // for the copy protocol and tests.
        uint64_t header[2] = {0, 0};
        if (full) {
          std::memcpy(header, buf, sizeof(header));
        }
        const bool intact =
            full &&
            header[0] ==
                (kImageMagic ^ static_cast<uint64_t>(tag.ref.object)) &&
            header[1] == static_cast<uint64_t>(tag.ref.block);
        (intact ? stats_.serve_reads : stats_.serve_errors)++;
        break;
      }
      case PendingTag::Kind::kCopyRead: {
        PendingCopy& copy = pending_copies_[tag.index];
        if (!full || !CheckImage(copy.ref, options_.content_seed,
                                 copy.buf.get(), options_.block_bytes)) {
          copy.failed = true;
        }
        break;
      }
      case PendingTag::Kind::kCopyWrite: {
        if (!full) {
          pending_copies_[tag.index].failed = true;
        }
        break;
      }
      case PendingTag::Kind::kPlaceWrite: {
        if (!full) {
          ++place_write_failures_;
        }
        break;
      }
      case PendingTag::Kind::kSync: {
        sync_results_[completion.token] = std::move(completion);
        break;
      }
    }
  }
  return OkStatus();
}

StatusOr<bool> BlockIoEngine::SyncRead(SlotLoc loc, std::byte* buf) {
  SCADDAR_RETURN_IF_ERROR(EnsureDisk(loc.disk));
  SCADDAR_ASSIGN_OR_RETURN(const int64_t token,
                           backend_->EnqueueRead(loc.disk, loc.slot, buf));
  pending_[token] = PendingTag{PendingTag::Kind::kSync, BlockRef{}, 0};
  SCADDAR_RETURN_IF_ERROR(DrainAndDispatch());
  const auto it = sync_results_.find(token);
  SCADDAR_CHECK(it != sync_results_.end());
  const bool full =
      it->second.status.ok() && it->second.bytes == options_.block_bytes;
  sync_results_.erase(it);
  return full;
}

Status BlockIoEngine::PlaceObject(ObjectId id,
                                  std::span<const PhysicalDiskId> locations) {
  if (objects_.count(id) != 0) {
    return AlreadyExistsError("object already placed");
  }
  std::vector<SlotLoc> row;
  row.reserve(locations.size());
  for (const PhysicalDiskId disk : locations) {
    SCADDAR_RETURN_IF_ERROR(EnsureDisk(disk));
    row.push_back(SlotLoc{disk, AllocSlot(disk)});
  }
  // Chunked batch writes: fill a pool of image buffers, push the whole
  // chunk down in one drain, reclaim, repeat.
  const size_t chunk =
      std::max<size_t>(static_cast<size_t>(options_.queue_depth), 32);
  std::vector<AlignedPtr> buffers;
  place_write_failures_ = 0;
  for (size_t begin = 0; begin < row.size(); begin += chunk) {
    const size_t end = std::min(row.size(), begin + chunk);
    while (buffers.size() < end - begin) {
      buffers.push_back(AllocBlock());
      if (buffers.back() == nullptr) {
        return ResourceExhaustedError("image buffer allocation failed");
      }
    }
    for (size_t i = begin; i < end; ++i) {
      const BlockRef ref{id, static_cast<BlockIndex>(i)};
      std::byte* buf = buffers[i - begin].get();
      FillImage(ref, options_.content_seed, buf, options_.block_bytes);
      SCADDAR_ASSIGN_OR_RETURN(
          const int64_t token,
          backend_->EnqueueWrite(row[i].disk, row[i].slot, buf));
      pending_[token] =
          PendingTag{PendingTag::Kind::kPlaceWrite, ref, i};
    }
    SCADDAR_RETURN_IF_ERROR(DrainAndDispatch());
  }
  if (place_write_failures_ != 0) {
    for (const SlotLoc loc : row) {
      FreeSlot(loc);
    }
    return UnavailableError("place writes failed");
  }
  stats_.blocks_placed += static_cast<int64_t>(row.size());
  objects_.emplace(id, std::move(row));
  return OkStatus();
}

Status BlockIoEngine::DropObject(ObjectId id) {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return NotFoundError("unknown object");
  }
  for (const SlotLoc loc : it->second) {
    FreeSlot(loc);
  }
  objects_.erase(it);
  const auto staged = staged_.find(id);
  if (staged != staged_.end()) {
    for (const auto& [block, loc] : staged->second) {
      FreeSlot(loc);
    }
    staged_.erase(staged);
  }
  std::erase_if(pending_copies_,
                [id](const PendingCopy& c) { return c.ref.object == id; });
  return OkStatus();
}

Status BlockIoEngine::StageCopy(BlockRef ref, PhysicalDiskId from,
                                PhysicalDiskId to) {
  SCADDAR_ASSIGN_OR_RETURN(const SlotLoc source, AuthoritativeLoc(ref));
  if (source.disk != from) {
    return FailedPreconditionError("block is not on the claimed source");
  }
  auto& per_object = staged_[ref.object];
  if (per_object.count(ref.block) != 0) {
    return AlreadyExistsError("block already staged");
  }
  SCADDAR_RETURN_IF_ERROR(EnsureDisk(to));
  const SlotLoc target{to, AllocSlot(to)};
  per_object.emplace(ref.block, target);
  PendingCopy copy;
  copy.ref = ref;
  copy.from = source;
  copy.to = target;
  pending_copies_.push_back(std::move(copy));
  return OkStatus();
}

Status BlockIoEngine::CommitStaged(BlockRef ref, PhysicalDiskId from,
                                   PhysicalDiskId to) {
  SCADDAR_ASSIGN_OR_RETURN(const SlotLoc source, AuthoritativeLoc(ref));
  if (source.disk != from) {
    return FailedPreconditionError("block is not on the claimed source");
  }
  const auto per_object = staged_.find(ref.object);
  if (per_object == staged_.end()) {
    return NotFoundError("no staged copy");
  }
  const auto it = per_object->second.find(ref.block);
  if (it == per_object->second.end() || it->second.disk != to) {
    return NotFoundError("no staged copy on the claimed target");
  }
  objects_[ref.object][static_cast<size_t>(ref.block)] = it->second;
  per_object->second.erase(it);
  if (per_object->second.empty()) {
    staged_.erase(per_object);
  }
  FreeSlot(source);
  return OkStatus();
}

Status BlockIoEngine::AbortStaged(BlockRef ref) {
  const auto per_object = staged_.find(ref.object);
  if (per_object == staged_.end()) {
    return NotFoundError("no staged copy");
  }
  const auto it = per_object->second.find(ref.block);
  if (it == per_object->second.end()) {
    return NotFoundError("no staged copy");
  }
  FreeSlot(it->second);
  per_object->second.erase(it);
  if (per_object->second.empty()) {
    staged_.erase(per_object);
  }
  std::erase_if(pending_copies_,
                [ref](const PendingCopy& c) { return c.ref == ref; });
  return OkStatus();
}

StatusOr<bool> BlockIoEngine::ValidateStagedImage(BlockRef ref) {
  const auto per_object = staged_.find(ref.object);
  if (per_object == staged_.end()) {
    return NotFoundError("no staged copy");
  }
  const auto it = per_object->second.find(ref.block);
  if (it == per_object->second.end()) {
    return NotFoundError("no staged copy");
  }
  SCADDAR_ASSIGN_OR_RETURN(const bool full,
                           SyncRead(it->second, scratch_.get()));
  return full && CheckImage(ref, options_.content_seed, scratch_.get(),
                            options_.block_bytes);
}

Status BlockIoEngine::EnqueueServeRead(BlockRef ref, PhysicalDiskId disk) {
  SCADDAR_ASSIGN_OR_RETURN(const SlotLoc loc, AuthoritativeLoc(ref));
  SCADDAR_DCHECK(loc.disk == disk);
  if (serve_in_flight_ == static_cast<size_t>(kServeArenaBlocks)) {
    SCADDAR_RETURN_IF_ERROR(DrainAndDispatch());
    serve_in_flight_ = 0;
  }
  std::byte* buf = arena_.get() + static_cast<int64_t>(serve_in_flight_) *
                                      options_.block_bytes;
  SCADDAR_RETURN_IF_ERROR(EnsureDisk(loc.disk));
  SCADDAR_ASSIGN_OR_RETURN(const int64_t token,
                           backend_->EnqueueRead(loc.disk, loc.slot, buf));
  pending_[token] =
      PendingTag{PendingTag::Kind::kServeRead, ref, serve_in_flight_};
  ++serve_in_flight_;
  return OkStatus();
}

Status BlockIoEngine::FinishServeRound() {
  if (serve_in_flight_ == 0) {
    return OkStatus();
  }
  SCADDAR_RETURN_IF_ERROR(DrainAndDispatch());
  serve_in_flight_ = 0;
  return OkStatus();
}

Status BlockIoEngine::FinishMigrationRound(std::vector<BlockRef>* failed) {
  if (failed != nullptr) {
    failed->clear();
  }
  if (pending_copies_.empty()) {
    return OkStatus();
  }
  // Phase 1: batched source reads, all source disks in one drain.
  for (size_t i = 0; i < pending_copies_.size(); ++i) {
    PendingCopy& copy = pending_copies_[i];
    copy.buf = AllocBlock();
    if (copy.buf == nullptr) {
      return ResourceExhaustedError("copy buffer allocation failed");
    }
    SCADDAR_ASSIGN_OR_RETURN(
        const int64_t token,
        backend_->EnqueueRead(copy.from.disk, copy.from.slot,
                              copy.buf.get()));
    pending_[token] = PendingTag{PendingTag::Kind::kCopyRead, copy.ref, i};
  }
  SCADDAR_RETURN_IF_ERROR(DrainAndDispatch());

  // Phase 2: batched target writes for the copies whose source read was
  // intact, all target disks in one drain, then one flush per disk.
  std::unordered_set<PhysicalDiskId> touched;
  for (size_t i = 0; i < pending_copies_.size(); ++i) {
    PendingCopy& copy = pending_copies_[i];
    if (copy.failed) {
      continue;
    }
    SCADDAR_ASSIGN_OR_RETURN(
        const int64_t token,
        backend_->EnqueueWrite(copy.to.disk, copy.to.slot, copy.buf.get()));
    pending_[token] = PendingTag{PendingTag::Kind::kCopyWrite, copy.ref, i};
    touched.insert(copy.to.disk);
  }
  SCADDAR_RETURN_IF_ERROR(DrainAndDispatch());
  for (const PhysicalDiskId disk : touched) {
    SCADDAR_RETURN_IF_ERROR(backend_->Flush(disk));
  }

  for (const PendingCopy& copy : pending_copies_) {
    if (copy.failed) {
      ++stats_.copy_failures;
      if (failed != nullptr) {
        failed->push_back(copy.ref);
      }
    }
  }
  pending_copies_.clear();
  return OkStatus();
}

StatusOr<std::vector<std::byte>> BlockIoEngine::ReadImage(BlockRef ref) {
  SCADDAR_ASSIGN_OR_RETURN(const SlotLoc loc, AuthoritativeLoc(ref));
  SCADDAR_ASSIGN_OR_RETURN(const bool full, SyncRead(loc, scratch_.get()));
  if (!full) {
    return DataLossError("image read failed or short");
  }
  return std::vector<std::byte>(scratch_.get(),
                                scratch_.get() + options_.block_bytes);
}

std::string BlockIoEngine::SerializeLayout() const {
  std::string out(kLayoutHeader);
  out += '\n';
  out += "seed";
  AppendInt(out, static_cast<int64_t>(options_.content_seed));
  AppendInt(out, options_.block_bytes);
  out += '\n';

  std::vector<PhysicalDiskId> disk_ids;
  disk_ids.reserve(layouts_.size());
  for (const auto& [id, layout] : layouts_) {
    disk_ids.push_back(id);
  }
  std::sort(disk_ids.begin(), disk_ids.end());
  for (const PhysicalDiskId id : disk_ids) {
    const DiskLayout& layout = layouts_.at(id);
    out += "disk";
    AppendInt(out, id);
    AppendInt(out, layout.next_slot);
    AppendInt(out, static_cast<int64_t>(layout.free_slots.size()));
    for (const int64_t slot : layout.free_slots) {
      AppendInt(out, slot);
    }
    out += '\n';
  }

  std::vector<ObjectId> object_ids;
  object_ids.reserve(objects_.size());
  for (const auto& [id, row] : objects_) {
    object_ids.push_back(id);
  }
  std::sort(object_ids.begin(), object_ids.end());
  for (const ObjectId id : object_ids) {
    const std::vector<SlotLoc>& row = objects_.at(id);
    out += "object";
    AppendInt(out, id);
    AppendInt(out, static_cast<int64_t>(row.size()));
    for (const SlotLoc loc : row) {
      AppendInt(out, loc.disk);
      AppendInt(out, loc.slot);
    }
    out += '\n';
  }

  std::vector<std::pair<BlockRef, SlotLoc>> staged;
  for (const auto& [object, blocks] : staged_) {
    for (const auto& [block, loc] : blocks) {
      staged.push_back({BlockRef{object, block}, loc});
    }
  }
  std::sort(staged.begin(), staged.end(),
            [](const auto& a, const auto& b) {
              return a.first.object != b.first.object
                         ? a.first.object < b.first.object
                         : a.first.block < b.first.block;
            });
  for (const auto& [ref, loc] : staged) {
    out += "staged";
    AppendInt(out, ref.object);
    AppendInt(out, ref.block);
    AppendInt(out, loc.disk);
    AppendInt(out, loc.slot);
    out += '\n';
  }
  return out;
}

Status BlockIoEngine::RestoreLayout(std::string_view text) {
  decltype(objects_) objects;
  decltype(staged_) staged;
  decltype(layouts_) layouts;
  bool header_seen = false;
  std::string_view rest = text;
  while (!rest.empty()) {
    const size_t eol = rest.find('\n');
    const std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view()
                                         : rest.substr(eol + 1);
    const std::vector<std::string_view> tokens = SplitTokens(line);
    if (tokens.empty()) {
      continue;
    }
    if (!header_seen) {
      if (tokens.size() != 1 || tokens[0] != kLayoutHeader) {
        return InvalidArgumentError("unrecognized layout header");
      }
      header_seen = true;
      continue;
    }
    if (tokens[0] == "seed" && tokens.size() == 3) {
      SCADDAR_ASSIGN_OR_RETURN(const int64_t seed, ParseInt(tokens[1]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t block, ParseInt(tokens[2]));
      if (static_cast<uint64_t>(seed) != options_.content_seed ||
          block != options_.block_bytes) {
        return FailedPreconditionError(
            "layout was written with different seed/block size");
      }
    } else if (tokens[0] == "disk" && tokens.size() >= 4) {
      SCADDAR_ASSIGN_OR_RETURN(const int64_t id, ParseInt(tokens[1]));
      DiskLayout& layout = layouts[id];
      SCADDAR_ASSIGN_OR_RETURN(layout.next_slot, ParseInt(tokens[2]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t free_count,
                               ParseInt(tokens[3]));
      if (static_cast<int64_t>(tokens.size()) != 4 + free_count) {
        return InvalidArgumentError("disk line free-list count mismatch");
      }
      for (int64_t i = 0; i < free_count; ++i) {
        SCADDAR_ASSIGN_OR_RETURN(const int64_t slot,
                                 ParseInt(tokens[4 + static_cast<size_t>(i)]));
        layout.free_slots.push_back(slot);
      }
    } else if (tokens[0] == "object" && tokens.size() >= 3) {
      SCADDAR_ASSIGN_OR_RETURN(const int64_t id, ParseInt(tokens[1]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t blocks, ParseInt(tokens[2]));
      if (static_cast<int64_t>(tokens.size()) != 3 + 2 * blocks) {
        return InvalidArgumentError("object line block count mismatch");
      }
      std::vector<SlotLoc> row;
      row.reserve(static_cast<size_t>(blocks));
      for (int64_t i = 0; i < blocks; ++i) {
        SlotLoc loc;
        SCADDAR_ASSIGN_OR_RETURN(
            loc.disk, ParseInt(tokens[3 + static_cast<size_t>(2 * i)]));
        SCADDAR_ASSIGN_OR_RETURN(
            loc.slot, ParseInt(tokens[4 + static_cast<size_t>(2 * i)]));
        row.push_back(loc);
      }
      objects.emplace(id, std::move(row));
    } else if (tokens[0] == "staged" && tokens.size() == 5) {
      SCADDAR_ASSIGN_OR_RETURN(const int64_t object, ParseInt(tokens[1]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t block, ParseInt(tokens[2]));
      SlotLoc loc;
      SCADDAR_ASSIGN_OR_RETURN(loc.disk, ParseInt(tokens[3]));
      SCADDAR_ASSIGN_OR_RETURN(loc.slot, ParseInt(tokens[4]));
      staged[object][block] = loc;
    } else {
      return InvalidArgumentError("unrecognized layout line");
    }
  }
  if (!header_seen) {
    return InvalidArgumentError("empty layout");
  }
  objects_ = std::move(objects);
  staged_ = std::move(staged);
  layouts_ = std::move(layouts);
  return OkStatus();
}

Status BlockIoEngine::SimulateCrashRestart() {
  // Crashes are injected between rounds' serve phases, never mid-serve.
  SCADDAR_CHECK(serve_in_flight_ == 0);
  // Queued-but-unexecuted staged copies are the volatile state a real
  // crash loses: their staged slots survive (metadata), their bytes never
  // landed — which is what Recover's image validation is for.
  pending_copies_.clear();
  pending_.clear();
  sync_results_.clear();
  const std::string text = SerializeLayout();
  objects_.clear();
  staged_.clear();
  layouts_.clear();
  SCADDAR_RETURN_IF_ERROR(RestoreLayout(text));
  for (const PhysicalDiskId disk : open_disks_) {
    SCADDAR_RETURN_IF_ERROR(backend_->CloseDisk(disk));
    SCADDAR_RETURN_IF_ERROR(backend_->OpenDisk(disk));
  }
  return OkStatus();
}

}  // namespace scaddar
