// Bottom-up, left-to-right bulk loader for on-device level indexes.
//
// The builder packs fixed-size nodes into per-tree-level segment streams and
// writes each segment to the device with one large write when it fills. A
// SegmentSink observes every completed segment image — that is exactly the
// hook the Send-Index primary uses to ship the index incrementally while the
// compaction is still running (paper §3.3).
#ifndef TEBIS_LSM_BTREE_BUILDER_H_
#define TEBIS_LSM_BTREE_BUILDER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/lsm/btree_node.h"
#include "src/storage/block_device.h"

namespace tebis {

// Integrity fingerprint of one index segment (PR 8): CRC32C over the used
// prefix exactly as the builder wrote it in one large device write.
struct SegmentChecksum {
  uint32_t crc = 0;
  uint32_t length = 0;  // used prefix, whole nodes only

  bool operator==(const SegmentChecksum& other) const {
    return crc == other.crc && length == other.length;
  }
};

// In-memory companion of a built tree, in entry order: what the next merge
// of the level would otherwise read from the value log for every entry. It
// lives only as long as the process holds the tree — never persisted, never
// shipped — so trees recovered from a checkpoint or promoted from a backup
// have none, and their next merge reads every key.
struct MergeCompanion {
  std::vector<uint64_t> key_hashes;  // FilterKeyHash per entry; empty when built without a filter
  std::vector<bool> tombstones;      // record flag per entry
};

// A finished on-device B+ tree (one LSM level).
struct BuiltTree {
  uint64_t root_offset = kInvalidOffset;
  uint16_t height = 0;  // levels above the leaves; 0 => root is a leaf
  uint64_t num_entries = 0;
  std::vector<SegmentId> segments;
  uint64_t bytes_written = 0;
  // Serialized bloom filter block (PR 7), or null for trees built without
  // filters (pre-filter checkpoints, filter-less configurations, shipped
  // trees whose filter message never arrived). Shared immutable bytes: the
  // tree is copied by value through publication, checkpointing, shipping and
  // promotion, and the filter must travel with every copy.
  std::shared_ptr<const std::string> filter;
  // Parallel to `segments` (PR 8): per-segment checksums in the same device
  // space as the offsets in `segments`. Empty = unchecksummed (manifest <= v3
  // stores, trees assembled before this field existed); read-path verification
  // then degrades to the structural node checks.
  std::vector<SegmentChecksum> seg_checksums;
  // Set by the builder; dropped by every path that copies the tree off this
  // process (manifest, wire), which rebuild the struct field by field.
  std::shared_ptr<const MergeCompanion> companion;

  bool empty() const { return root_offset == kInvalidOffset; }
  bool checksummed() const {
    return !segments.empty() && seg_checksums.size() == segments.size();
  }
};

// Observes completed index segments as they are produced.
class SegmentSink {
 public:
  virtual ~SegmentSink() = default;

  // `bytes` is the used prefix of the segment image (whole nodes only).
  // tree_level 0 = leaf segments. Called in build order; partial segments are
  // emitted leaf-level-first when the tree finishes.
  virtual void OnSegmentComplete(int tree_level, SegmentId segment, Slice bytes) = 0;
};

class BTreeBuilder {
 public:
  // Writes through `device` accounting I/O as `io_class`. `sink` may be null.
  BTreeBuilder(BlockDevice* device, size_t node_size, IoClass io_class, SegmentSink* sink);
  ~BTreeBuilder();

  BTreeBuilder(const BTreeBuilder&) = delete;
  BTreeBuilder& operator=(const BTreeBuilder&) = delete;

  // Accumulate key/prefix fingerprints alongside the index and attach the
  // serialized filter block to the finished tree. Call before the first Add.
  void EnableFilter(uint32_t bits_per_key);

  // Adds the next entry. Keys must arrive in strictly ascending order.
  Status Add(Slice key, uint64_t log_offset);

  // Adds the next entry from its leaf fields. `key` is the full key, or empty
  // when the caller has not loaded it; it is required when
  // NextEntryOpensLeaf() (the key becomes an index pivot) and when
  // wants_key_hash() and no `key_hash` (FilterKeyHash of the key) is given.
  // Ascending order is checked as far as the leaf fields and the known keys
  // decide it. `tombstone` is recorded in the tree's companion.
  Status AddEntry(const LeafEntry& entry, Slice key, std::optional<uint64_t> key_hash,
                  bool tombstone);

  // True when the next entry starts a new leaf node.
  bool NextEntryOpensLeaf() const;
  // True when entries feed a filter and so need a key fingerprint.
  bool wants_key_hash() const { return filter_builder_ != nullptr; }

  // Completes all partial nodes and segments and returns the tree. The
  // builder must not be reused afterwards.
  StatusOr<BuiltTree> Finish();

 private:
  struct LevelState;

  Status CompleteLeafNode();
  Status CompleteIndexNode(size_t level);
  Status AddPivot(size_t level, Slice key, uint64_t child_offset);
  Status PlaceNode(size_t level, const char* node, uint64_t* offset_out);
  Status FlushStream(size_t level);
  LevelState& Level(size_t level);

  BlockDevice* const device_;
  const size_t node_size_;
  const IoClass io_class_;
  SegmentSink* const sink_;

  std::vector<std::unique_ptr<LevelState>> levels_;
  std::unique_ptr<class BloomFilterBuilder> filter_builder_;
  // Ascending-order enforcement: the last entry and its key, when known.
  LeafEntry last_entry_{};
  std::string last_key_;
  std::vector<bool> tombstones_;  // companion flags, in entry order
  uint64_t num_entries_ = 0;
  uint64_t bytes_written_ = 0;
  std::vector<SegmentId> segments_;
  std::map<SegmentId, SegmentChecksum> seg_crcs_;  // filled at FlushStream
  bool finished_ = false;
};

}  // namespace tebis

#endif  // TEBIS_LSM_BTREE_BUILDER_H_
