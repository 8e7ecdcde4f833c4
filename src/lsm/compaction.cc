#include "src/lsm/compaction.h"

#include "src/common/clock.h"

namespace tebis {

// --- MemtableMergeSource -----------------------------------------------------

MemtableMergeSource::MemtableMergeSource(const Memtable* table, Slice start)
    : it_(table->NewIterator()) {
  if (start.empty()) {
    it_.SeekToFirst();
  } else {
    it_.Seek(start);
  }
  Load();
}

void MemtableMergeSource::Load() {
  valid_ = it_.Valid();
  if (valid_) {
    const Slice key = it_.key();
    entry_.key.assign(key.data(), key.size());
    entry_.leaf.log_offset = it_.location().log_offset;
    entry_.leaf.key_size = static_cast<uint32_t>(key.size());
    MakePrefix(key, entry_.leaf.prefix);
    entry_.tombstone = it_.location().tombstone;
  }
}

Status MemtableMergeSource::Next() {
  it_.Next();
  Load();
  return Status::Ok();
}

// --- LevelMergeSource ----------------------------------------------------------

LevelMergeSource::LevelMergeSource(BlockDevice* device, size_t node_size, const BuiltTree& tree,
                                   const ValueLog* log, SegmentVerifier* verifier,
                                   IoClass io_class)
    : reader_(device, /*cache=*/nullptr, node_size, tree, io_class, verifier),
      it_(&reader_),
      log_(log),
      io_class_(io_class) {}

Status LevelMergeSource::Init(Slice start) {
  if (start.empty()) {
    TEBIS_RETURN_IF_ERROR(it_.SeekToFirst());
  } else {
    FullKeyLoader loader = [this](uint64_t off, uint32_t key_size) -> StatusOr<std::string> {
      std::string key;
      TEBIS_RETURN_IF_ERROR(log_->ReadKey(off, key_size, &key, nullptr, /*cache=*/nullptr,
                                          io_class_));
      return key;
    };
    TEBIS_RETURN_IF_ERROR(it_.Seek(start, loader));
  }
  return Load();
}

Status LevelMergeSource::InitForMerge() {
  const BuiltTree& tree = reader_.tree();
  const MergeCompanion* c = tree.companion.get();
  if (c != nullptr && c->tombstones.size() == tree.num_entries &&
      (c->key_hashes.empty() || c->key_hashes.size() == tree.num_entries)) {
    companion_ = tree.companion;
  }
  index_ = 0;
  TEBIS_RETURN_IF_ERROR(it_.SeekToFirst());
  return Load();
}

Status LevelMergeSource::Load() {
  valid_ = it_.Valid();
  if (!valid_) {
    return Status::Ok();
  }
  entry_.leaf = it_.entry();
  entry_.key.clear();
  entry_.key_hash.reset();
  if (companion_ == nullptr || index_ >= companion_->tombstones.size()) {
    return LoadKey();
  }
  entry_.tombstone = companion_->tombstones[index_];
  if (!companion_->key_hashes.empty()) {
    entry_.key_hash = companion_->key_hashes[index_];
  }
  return Status::Ok();
}

Status LevelMergeSource::LoadKey() {
  if (!valid_ || !entry_.key.empty()) {
    return Status::Ok();
  }
  return log_->ReadKey(entry_.leaf.log_offset, entry_.leaf.key_size, &entry_.key,
                       &entry_.tombstone, /*cache=*/nullptr, io_class_);
}

Status LevelMergeSource::Next() {
  TEBIS_RETURN_IF_ERROR(it_.Next());
  index_++;
  return Load();
}

// --- MergeSources ---------------------------------------------------------------

namespace {

// Orders two heads, loading their keys only when the leaf fields tie.
StatusOr<int> CompareHeads(MergeSource* a, MergeSource* b) {
  bool decided;
  const int c = CompareLeafKeys(a->entry().leaf.prefix, a->entry().leaf.key_size,
                                b->entry().leaf.prefix, b->entry().leaf.key_size, &decided);
  if (decided) {
    return c;
  }
  TEBIS_RETURN_IF_ERROR(a->LoadKey());
  TEBIS_RETURN_IF_ERROR(b->LoadKey());
  return Slice(a->entry().key).Compare(Slice(b->entry().key));
}

}  // namespace

StatusOr<uint64_t> MergeSources(std::vector<MergeSource*> sources, bool drop_tombstones,
                                BTreeBuilder* builder, MergeStageTiming* timing) {
  uint64_t written = 0;
  MergeStageTiming local;
  // The clock reads split each round into its merge and build stages; the
  // winner is advanced at the top of the next round, inside its merge stage.
  uint64_t stage_start = NowNanos();
  MergeSource* last_winner = nullptr;
  while (true) {
    if (last_winner != nullptr) {
      TEBIS_RETURN_IF_ERROR(last_winner->Next());
    }
    // Pick the smallest key; on ties the lowest source index (newest) wins.
    MergeSource* winner = nullptr;
    for (MergeSource* src : sources) {
      if (!src->Valid()) {
        continue;
      }
      if (winner == nullptr) {
        winner = src;
        continue;
      }
      TEBIS_ASSIGN_OR_RETURN(int c, CompareHeads(src, winner));
      if (c < 0) {
        winner = src;
      }
    }
    if (winner == nullptr) {
      local.merge_ns += NowNanos() - stage_start;
      break;
    }
    // Drop older versions of the winner's key. Every source is strictly
    // ascending, so each holds at most one, at its head.
    for (MergeSource* src : sources) {
      if (src == winner || !src->Valid()) {
        continue;
      }
      TEBIS_ASSIGN_OR_RETURN(int c, CompareHeads(src, winner));
      if (c == 0) {
        TEBIS_RETURN_IF_ERROR(src->Next());
      }
    }
    last_winner = winner;
    const MergeEntry& e = winner->entry();
    if (e.tombstone && drop_tombstones) {
      continue;
    }
    if (builder->NextEntryOpensLeaf() || (builder->wants_key_hash() && !e.key_hash.has_value())) {
      TEBIS_RETURN_IF_ERROR(winner->LoadKey());
    }
    const uint64_t merged = NowNanos();
    local.merge_ns += merged - stage_start;
    TEBIS_RETURN_IF_ERROR(builder->AddEntry(e.leaf, e.key, e.key_hash, e.tombstone));
    written++;
    stage_start = NowNanos();
    local.build_ns += stage_start - merged;
  }
  if (timing != nullptr) {
    timing->merge_ns += local.merge_ns;
    timing->build_ns += local.build_ns;
  }
  return written;
}

}  // namespace tebis
