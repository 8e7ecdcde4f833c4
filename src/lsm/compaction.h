// Leveled compaction: k-way merge of a newer source into an older level,
// producing a fresh on-device B+ tree through BTreeBuilder. Sources are
// ordered newest-first; on key ties the newest version wins and older ones
// are dropped. Tombstones are elided only when compacting into the last
// level. The merge orders entries by their leaf prefixes and reads full keys
// from the value log only where the prefixes cannot decide.
#ifndef TEBIS_LSM_COMPACTION_H_
#define TEBIS_LSM_COMPACTION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lsm/btree_builder.h"
#include "src/lsm/btree_reader.h"
#include "src/lsm/memtable.h"
#include "src/lsm/value_log.h"

namespace tebis {

// One key version flowing through a merge. The leaf fields are always set;
// the full key only once loaded (memtable sources hold it in memory).
struct MergeEntry {
  LeafEntry leaf{};
  std::string key;  // empty until loaded
  bool tombstone = false;
  std::optional<uint64_t> key_hash;  // FilterKeyHash, from the tree's companion
};

// Ordered stream of key versions.
class MergeSource {
 public:
  virtual ~MergeSource() = default;
  virtual bool Valid() const = 0;
  virtual const MergeEntry& entry() const = 0;
  // Makes entry().key hold the full key; a no-op once it does.
  virtual Status LoadKey() = 0;
  virtual Status Next() = 0;
};

// Streams an L0 memtable (keys already in memory).
class MemtableMergeSource : public MergeSource {
 public:
  // Starts at the first key >= `start` (whole table when `start` is empty).
  explicit MemtableMergeSource(const Memtable* table, Slice start = Slice());
  bool Valid() const override { return valid_; }
  const MergeEntry& entry() const override { return entry_; }
  Status LoadKey() override { return Status::Ok(); }
  Status Next() override;

 private:
  void Load();
  Memtable::Iterator it_;
  MergeEntry entry_;
  bool valid_ = false;
};

// Streams a device level, reading leaves/index nodes and keys from the value
// log with direct I/O (IoClass::kCompactionRead by default) — the read
// traffic Send-Index removes from backups. Each key costs one read of its
// record header and key bytes.
class LevelMergeSource : public MergeSource {
 public:
  // `verifier`, when set, checks every node's segment CRC before the node is
  // trusted (PR 8: scans and compaction reads refuse quarantined segments).
  LevelMergeSource(BlockDevice* device, size_t node_size, const BuiltTree& tree,
                   const ValueLog* log, SegmentVerifier* verifier = nullptr,
                   IoClass io_class = IoClass::kCompactionRead);
  // Positions at the first key >= `start` (whole level when `start` is
  // empty). Every entry it stands on has its key loaded: scans compare them
  // all.
  Status Init(Slice start = Slice());
  // Positions at the first key for a compaction merge. When the tree carries
  // its companion, keys stay unloaded until the merge asks (LoadKey); without
  // one, every key is loaded.
  Status InitForMerge();

  bool Valid() const override { return valid_; }
  const MergeEntry& entry() const override { return entry_; }
  Status LoadKey() override;
  Status Next() override;

 private:
  Status Load();
  BTreeReader reader_;
  BTreeIterator it_;
  const ValueLog* log_;
  const IoClass io_class_;
  // Set only by InitForMerge on a tree whose companion matches its entries.
  std::shared_ptr<const MergeCompanion> companion_;
  uint64_t index_ = 0;  // entry position, for the companion
  MergeEntry entry_;
  bool valid_ = false;
};

// Per-stage wall-clock split of one merge pass, for the compaction pipeline
// breakdown (PR 2): `merge_ns` covers picking winners and advancing sources
// (including their log/level reads); `build_ns` covers feeding the builder.
struct MergeStageTiming {
  uint64_t merge_ns = 0;
  uint64_t build_ns = 0;
};

// Merges `sources` (newest first) into `builder`. Returns the number of
// entries written. Duplicate keys keep only the newest version; when
// `drop_tombstones` is set, surviving tombstones are not written out. When
// `timing` is non-null, stage times are accumulated into it.
//
// Heads are ordered by their leaf fields (CompareLeafKeys). A level key is
// loaded only when two heads' prefixes tie, when the entry opens an output
// leaf (its key becomes an index pivot), or when the builder needs a filter
// fingerprint the source's companion does not supply.
StatusOr<uint64_t> MergeSources(std::vector<MergeSource*> sources, bool drop_tombstones,
                                BTreeBuilder* builder, MergeStageTiming* timing = nullptr);

}  // namespace tebis

#endif  // TEBIS_LSM_COMPACTION_H_
