// On-device formats of the Kreon-style LSM engine used by Tebis.
//
// Value log record:
//   [u32 key_size][u32 value_size][u8 flags][key bytes][value bytes][u32 crc32c]
// A record never crosses a segment boundary; the remainder of a segment is
// padded with a record whose key_size is kPadMarker.
//
// B+ tree nodes are fixed-size blocks (kDefaultNodeSize) packed into segments:
//   leaf node : NodeHeader + array of fixed-size LeafEntry
//   index node: NodeHeader + slot directory (u16) + variable-size cells
//               growing from the end of the node, each
//               [u16 key_len][u64 child_offset][key bytes]
// Leaf entries carry a key *prefix* plus the device offset of the full record
// in the value log (KV separation, paper §2); index cells carry full pivots.
#ifndef TEBIS_LSM_FORMAT_H_
#define TEBIS_LSM_FORMAT_H_

#include <cstdint>
#include <cstring>

#include "src/common/slice.h"

namespace tebis {

// --- value log -------------------------------------------------------------

inline constexpr uint32_t kPadMarker = 0xffffffffu;
inline constexpr uint8_t kRecordFlagTombstone = 0x1;

inline constexpr size_t kLogRecordHeaderSize = 4 + 4 + 1;
inline constexpr size_t kLogRecordTrailerSize = 4;  // crc32c

inline constexpr size_t LogRecordSize(size_t key_size, size_t value_size) {
  return kLogRecordHeaderSize + key_size + value_size + kLogRecordTrailerSize;
}

// Maximum supported key size. Pivots must fit comfortably in an index cell.
inline constexpr size_t kMaxKeySize = 250;

// --- B+ tree ---------------------------------------------------------------

inline constexpr size_t kDefaultNodeSize = 4096;
inline constexpr size_t kPrefixSize = 12;

inline constexpr uint32_t kLeafMagic = 0x4c656166;   // "Leaf"
inline constexpr uint32_t kIndexMagic = 0x49647800;  // "Idx\0"

struct NodeHeader {
  uint32_t magic;        // kLeafMagic or kIndexMagic; 0 => unused node slot
  uint16_t tree_height;  // 0 for leaves
  uint16_t reserved;
  uint32_t num_entries;
  uint32_t cell_bytes;  // index nodes: bytes used by cells at the node tail
};
static_assert(sizeof(NodeHeader) == 16);

// Fixed-size leaf entry: <key_prefix, key_size, log_offset> (paper Fig. 3).
struct LeafEntry {
  uint64_t log_offset;  // device offset of the KV record in the value log
  uint32_t key_size;
  char prefix[kPrefixSize];  // first bytes of the key, zero padded
};
static_assert(sizeof(LeafEntry) == 24);

inline constexpr size_t LeafCapacity(size_t node_size) {
  return (node_size - sizeof(NodeHeader)) / sizeof(LeafEntry);
}

// Fills `prefix` (kPrefixSize bytes) from `key`, zero padding.
inline void MakePrefix(Slice key, char* prefix) {
  const size_t n = key.size() < kPrefixSize ? key.size() : kPrefixSize;
  memcpy(prefix, key.data(), n);
  if (n < kPrefixSize) {
    memset(prefix + n, 0, kPrefixSize - n);
  }
}

// Orders two keys known only by their leaf fields (zero-padded prefix and
// size) and sets *decided. The order is decided unless both keys run past
// kPrefixSize with equal prefixes: then only the full keys can order them,
// *decided is false and the result is 0. With equal prefixes, a key that fits
// in the prefix is a prefix of the other key (its zero padding matches the
// other key's bytes), so the shorter key sorts first.
inline int CompareLeafKeys(const char* a_prefix, uint32_t a_size, const char* b_prefix,
                           uint32_t b_size, bool* decided) {
  *decided = true;
  const int c = memcmp(a_prefix, b_prefix, kPrefixSize);
  if (c != 0) {
    return c;
  }
  if (a_size <= kPrefixSize || b_size <= kPrefixSize) {
    return a_size == b_size ? 0 : (a_size < b_size ? -1 : 1);
  }
  *decided = false;
  return 0;
}

// --- index node cells --------------------------------------------------------

inline constexpr size_t kIndexSlotSize = sizeof(uint16_t);
inline constexpr size_t kIndexCellHeaderSize = 2 + 8;  // key_len + child offset

inline constexpr size_t IndexCellSize(size_t key_len) {
  return kIndexCellHeaderSize + key_len;
}

}  // namespace tebis

#endif  // TEBIS_LSM_FORMAT_H_
