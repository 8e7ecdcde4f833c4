// The prefix-ordered compaction merge: differential checks of merged levels
// against BTreeBuilder runs over a std::map model (with and without a
// compaction pool), the scheduler's inline-vs-pool differential, and the
// merge's value-log read budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/random.h"
#include "src/lsm/bloom_filter.h"
#include "src/lsm/compaction.h"
#include "src/lsm/kv_store.h"
#include "src/net/fabric.h"
#include "src/net/worker_pool.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"

namespace tebis {
namespace {

constexpr uint64_t kSegmentSize = 1 << 16;
constexpr uint64_t kMaxSegments = 1 << 14;

std::unique_ptr<BlockDevice> MakeDevice(uint64_t granularity = 1) {
  BlockDeviceOptions opts;
  opts.segment_size = kSegmentSize;
  opts.max_segments = kMaxSegments;
  opts.accounting_granularity = granularity;
  auto dev = BlockDevice::Create(opts);
  EXPECT_TRUE(dev.ok());
  return std::move(*dev);
}

KvStoreOptions StoreOptions() {
  KvStoreOptions opts;
  opts.l0_max_entries = 64;
  opts.growth_factor = 4;
  opts.max_levels = 3;
  return opts;
}

// --- seeded histories -----------------------------------------------------------

// A pool of distinct keys from the families that stress prefix ordering:
// keys sharing one 12-byte prefix, keys shorter than the prefix (including
// pairs that differ only by trailing NULs) and keys with NUL bytes inside and
// past the prefix.
std::vector<std::string> KeyPool(Random* rng, size_t n) {
  std::set<std::string> pool;
  while (pool.size() < n) {
    std::string key;
    switch (rng->Uniform(4)) {
      case 0:
        key = "sharedprefix" + rng->Bytes(1 + rng->Uniform(3));
        break;
      case 1:
        key = "s" + std::to_string(rng->Uniform(50));
        key.append(rng->Uniform(3), '\0');
        break;
      case 2:
        key = std::string("nu\0l", 4) + rng->Bytes(1 + rng->Uniform(12));
        key[4 + rng->Uniform(key.size() - 4)] = '\0';
        break;
      default:
        key = "k" + std::to_string(rng->Uniform(1000000)) + "-tail";
        break;
    }
    pool.insert(key);
  }
  return std::vector<std::string>(pool.begin(), pool.end());
}

// Applies `ops` random puts (and roughly one delete in four) over `pool`.
template <typename Store>
void RunHistory(Store* store, const std::vector<std::string>& pool, Random* rng, int ops) {
  for (int i = 0; i < ops; ++i) {
    const std::string& key = pool[rng->Uniform(pool.size())];
    if (rng->Uniform(4) == 0) {
      ASSERT_TRUE(store->Delete(key).ok()) << i;
    } else {
      ASSERT_TRUE(store->Put(key, "v" + std::to_string(i) + rng->Bytes(rng->Uniform(24))).ok())
          << i;
    }
  }
}

struct ModelEntry {
  uint64_t offset;
  bool tombstone;
};

// The std::map model of a store: the newest log record of every key, found by
// replaying the value log in write order (flushes the tail first).
std::map<std::string, ModelEntry> ModelFromLog(KvStore* store, BlockDevice* device) {
  std::map<std::string, ModelEntry> model;
  EXPECT_TRUE(store->value_log()->FlushTail().ok());
  std::string buf(kSegmentSize, '\0');
  for (SegmentId seg : store->value_log()->FlushedSegmentsSnapshot()) {
    const uint64_t base = device->geometry().BaseOffset(seg);
    EXPECT_TRUE(device->Read(base, kSegmentSize, buf.data(), IoClass::kOther).ok());
    EXPECT_TRUE(ValueLog::ForEachRecord(Slice(buf), base, [&](const LogRecord& rec) {
                  model[rec.key] = ModelEntry{rec.offset, rec.tombstone};
                  return Status::Ok();
                }).ok());
  }
  return model;
}

// Builds the model's last level with BTreeBuilder on a scratch device whose
// allocator hands out `tree`'s segments in the same order, so node offsets —
// and with them the segment bytes and CRCs — are directly comparable.
void ExpectLastLevelMatchesModel(BlockDevice* device, const BuiltTree& tree,
                                 const std::map<std::string, ModelEntry>& model,
                                 uint32_t bits_per_key) {
  ASSERT_FALSE(tree.empty());
  auto scratch = MakeDevice();
  SegmentId max_seg = 0;
  for (SegmentId seg : tree.segments) {
    max_seg = std::max(max_seg, seg);
  }
  for (SegmentId s = 0; s <= max_seg; ++s) {
    ASSERT_TRUE(scratch->AllocateSegment().ok());
  }
  for (auto it = tree.segments.rbegin(); it != tree.segments.rend(); ++it) {
    ASSERT_TRUE(scratch->FreeSegment(*it).ok());
  }
  BTreeBuilder builder(scratch.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  builder.EnableFilter(bits_per_key);
  for (const auto& [key, e] : model) {
    if (!e.tombstone) {
      ASSERT_TRUE(builder.Add(key, e.offset).ok());
    }
  }
  auto ref = builder.Finish();
  ASSERT_TRUE(ref.ok());

  EXPECT_EQ(tree.num_entries, ref->num_entries);
  EXPECT_EQ(tree.root_offset, ref->root_offset);
  EXPECT_EQ(tree.height, ref->height);
  ASSERT_EQ(tree.segments, ref->segments);
  ASSERT_EQ(tree.seg_checksums.size(), ref->seg_checksums.size());
  for (size_t i = 0; i < tree.segments.size(); ++i) {
    EXPECT_EQ(tree.seg_checksums[i], ref->seg_checksums[i]) << "segment " << i;
    const uint64_t base = device->geometry().BaseOffset(tree.segments[i]);
    const uint32_t len = ref->seg_checksums[i].length;
    std::string got(len, '\0'), want(len, '\0');
    ASSERT_TRUE(device->Read(base, len, got.data(), IoClass::kOther).ok());
    ASSERT_TRUE(scratch->Read(base, len, want.data(), IoClass::kOther).ok());
    EXPECT_TRUE(got == want) << "segment " << i << " bytes differ";
  }
  ASSERT_NE(tree.filter, nullptr);
  ASSERT_NE(ref->filter, nullptr);
  EXPECT_TRUE(*tree.filter == *ref->filter);
  // The merge's own companion agrees with fingerprints of the model's keys.
  ASSERT_NE(tree.companion, nullptr);
  EXPECT_EQ(tree.companion->key_hashes, ref->companion->key_hashes);
  EXPECT_EQ(tree.companion->tombstones, std::vector<bool>(tree.num_entries, false));
}

bool AnyLevelHasCompanion(KvStore* store, bool want) {
  for (uint32_t i = 1; i <= store->max_levels(); ++i) {
    const BuiltTree& tree = store->level(i);
    if (!tree.empty() && (tree.companion != nullptr) == want) {
      return true;
    }
  }
  return false;
}

// One differential run: a seed and the compaction executor (0 workers = no
// pool, jobs run inline on the claiming thread). Printed as the seed alone;
// the instantiation name tells the executors apart.
struct DiffParam {
  uint64_t seed;
  int workers;
};

void PrintTo(const DiffParam& p, std::ostream* os) { *os << p.seed; }

class PrefixMergeDifferentialTest : public testing::TestWithParam<DiffParam> {
 protected:
  void SetUp() override {
    if (GetParam().workers > 0) {
      pool_ = std::make_unique<WorkerPool>(GetParam().workers);
      pool_->Start();
    }
  }
  void TearDown() override {
    if (pool_ != nullptr) {
      pool_->Stop();
    }
  }
  uint64_t seed() const { return GetParam().seed; }
  KvStoreOptions Options() const {
    KvStoreOptions opts = StoreOptions();
    opts.compaction_pool = pool_.get();
    return opts;
  }

  std::unique_ptr<WorkerPool> pool_;
};

TEST_P(PrefixMergeDifferentialTest, MergesWithCompanionsMatchModel) {
  Random rng(seed());
  const std::vector<std::string> pool = KeyPool(&rng, 700);
  auto device = MakeDevice();
  auto store = KvStore::Create(device.get(), Options());
  ASSERT_TRUE(store.ok());
  RunHistory(store->get(), pool, &rng, 3000);
  ASSERT_TRUE((*store)->ForceFullCompaction().ok());
  RunHistory(store->get(), pool, &rng, 1500);
  ASSERT_TRUE((*store)->WaitForBackgroundWork().ok());
  // The levels the final merges read carry their companions.
  EXPECT_TRUE(AnyLevelHasCompanion(store->get(), true));
  EXPECT_FALSE(AnyLevelHasCompanion(store->get(), false));
  ASSERT_TRUE((*store)->ForceFullCompaction().ok());
  const auto model = ModelFromLog(store->get(), device.get());
  ExpectLastLevelMatchesModel(device.get(), (*store)->level(3), model,
                              StoreOptions().filter_bits_per_key);
}

TEST_P(PrefixMergeDifferentialTest, MergesOfCheckpointRecoveredLevelsMatchModel) {
  Random rng(seed());
  const std::vector<std::string> pool = KeyPool(&rng, 700);
  auto device = MakeDevice();
  SegmentId checkpoint;
  {
    auto store = KvStore::Create(device.get(), Options());
    ASSERT_TRUE(store.ok());
    RunHistory(store->get(), pool, &rng, 3000);
    ASSERT_TRUE((*store)->ForceFullCompaction().ok());
    RunHistory(store->get(), pool, &rng, 800);
    // Quiesce first: a compaction finishing after the checkpoint would free
    // segments the checkpoint still names.
    ASSERT_TRUE((*store)->WaitForBackgroundWork().ok());
    ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
    auto cp = (*store)->Checkpoint();
    ASSERT_TRUE(cp.ok());
    checkpoint = *cp;
  }
  auto recovered_device = device->CloneContents();
  ASSERT_TRUE(recovered_device.ok());
  auto store = KvStore::Recover(recovered_device->get(), Options(), checkpoint);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // Companions are never persisted: every recovered level merges without one.
  EXPECT_FALSE(AnyLevelHasCompanion(store->get(), true));
  EXPECT_TRUE(AnyLevelHasCompanion(store->get(), false));
  RunHistory(store->get(), pool, &rng, 400);
  ASSERT_TRUE((*store)->ForceFullCompaction().ok());
  const auto model = ModelFromLog(store->get(), recovered_device->get());
  ExpectLastLevelMatchesModel(recovered_device->get(), (*store)->level(3), model,
                              StoreOptions().filter_bits_per_key);
}

TEST_P(PrefixMergeDifferentialTest, MergesOfPromotedSendIndexLevelsMatchModel) {
  Random rng(seed());
  const std::vector<std::string> pool = KeyPool(&rng, 700);
  Fabric fabric;
  auto primary_device = MakeDevice();
  auto backup_device = MakeDevice();
  auto primary =
      PrimaryRegion::Create(primary_device.get(), Options(), ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary.ok());
  auto buffer = fabric.RegisterBuffer("backup0", "primary0", kSegmentSize);
  // The backup's options carry the executor its promoted engine compacts on.
  auto backup = SendIndexBackupRegion::Create(backup_device.get(), Options(), buffer);
  ASSERT_TRUE(backup.ok());
  (*primary)->AddBackup(std::make_unique<LocalBackupChannel>(&fabric, "primary0", buffer,
                                                             backup->get(), nullptr));
  RunHistory(primary->get(), pool, &rng, 3000);
  ASSERT_TRUE((*primary)->store()->ForceFullCompaction().ok());
  RunHistory(primary->get(), pool, &rng, 800);
  ASSERT_TRUE((*primary)->store()->WaitForBackgroundWork().ok());

  auto promoted = (*backup)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  // Shipped levels arrive without the primary's in-memory companion.
  EXPECT_FALSE(AnyLevelHasCompanion(promoted->get(), true));
  EXPECT_TRUE(AnyLevelHasCompanion(promoted->get(), false));
  RunHistory(promoted->get(), pool, &rng, 400);
  ASSERT_TRUE((*promoted)->ForceFullCompaction().ok());
  const auto model = ModelFromLog(promoted->get(), backup_device.get());
  ExpectLastLevelMatchesModel(backup_device.get(), (*promoted)->level(3), model,
                              StoreOptions().filter_bits_per_key);
  // The promoted engine kept the executor: with a pool, its merges ran there.
  EXPECT_EQ((*promoted)->stats().background_compactions > 0, GetParam().workers > 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixMergeDifferentialTest,
                         testing::Values(DiffParam{1, 0}, DiffParam{2, 0}, DiffParam{3, 0}));
INSTANTIATE_TEST_SUITE_P(PooledSeeds, PrefixMergeDifferentialTest,
                         testing::Values(DiffParam{1, 2}, DiffParam{2, 2}, DiffParam{3, 2}));

// --- one scheduler: inline and pooled executors run the same compactions --------

// Records what a store ships: the (src, dst) of every begin, every index
// segment's bytes, and every published level's segment CRCs and filter.
class RecordingObserver : public CompactionObserver {
 public:
  struct Segment {
    int dst_level;
    int tree_level;
    SegmentId segment;
    std::string bytes;
    bool operator==(const Segment& o) const {
      return std::tie(dst_level, tree_level, segment, bytes) ==
             std::tie(o.dst_level, o.tree_level, o.segment, o.bytes);
    }
  };
  struct Publish {
    int dst_level;
    std::vector<SegmentChecksum> crcs;
    std::string filter;
    bool operator==(const Publish& o) const {
      return std::tie(dst_level, crcs, filter) == std::tie(o.dst_level, o.crcs, o.filter);
    }
  };

  void OnCompactionBegin(const CompactionInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    begins.emplace_back(info.src_level, info.dst_level);
  }
  void OnIndexSegment(const CompactionInfo& info, int tree_level, SegmentId segment,
                      Slice bytes) override {
    std::lock_guard<std::mutex> lock(mu_);
    segments.push_back(Segment{info.dst_level, tree_level, segment, bytes.ToString()});
  }
  void OnCompactionEnd(const CompactionInfo& info, const BuiltTree& tree) override {
    std::lock_guard<std::mutex> lock(mu_);
    publishes.push_back(Publish{info.dst_level, tree.seg_checksums,
                                tree.filter != nullptr ? *tree.filter : std::string()});
  }

  std::vector<std::pair<int, int>> begins;
  std::vector<Segment> segments;
  std::vector<Publish> publishes;

 private:
  std::mutex mu_;
};

struct SchedulerRun {
  std::unique_ptr<BlockDevice> device = MakeDevice();
  RecordingObserver observer;
  std::unique_ptr<KvStore> store;
};

// A seeded history of puts, deletes, FlushL0 and ForceFullCompaction. With a
// pool, every op is followed by WaitForBackgroundWork, which makes the pooled
// run's compaction order the inline run's.
void RunSchedulerHistory(SchedulerRun* run, WorkerPool* pool, uint64_t seed) {
  KvStoreOptions opts = StoreOptions();
  opts.compaction_pool = pool;
  auto store = KvStore::Create(run->device.get(), opts);
  ASSERT_TRUE(store.ok());
  run->store = std::move(*store);
  run->store->set_compaction_observer(&run->observer);
  Random rng(seed);
  const std::vector<std::string> keys = KeyPool(&rng, 700);
  for (int i = 0; i < 6000; ++i) {
    const uint64_t op = rng.Uniform(1000);
    const std::string& key = keys[rng.Uniform(keys.size())];
    if (op < 4) {
      ASSERT_TRUE(run->store->FlushL0().ok()) << i;
    } else if (op < 6) {
      ASSERT_TRUE(run->store->ForceFullCompaction().ok()) << i;
    } else if (op < 250) {
      ASSERT_TRUE(run->store->Delete(key).ok()) << i;
    } else {
      ASSERT_TRUE(run->store->Put(key, "v" + std::to_string(i) + rng.Bytes(rng.Uniform(24))).ok())
          << i;
    }
    if (pool != nullptr) {
      ASSERT_TRUE(run->store->WaitForBackgroundWork().ok()) << i;
    }
  }
  ASSERT_TRUE(run->store->WaitForBackgroundWork().ok());
}

class SchedulerDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerDifferentialTest, InlineAndPooledRunsShipIdenticalCompactions) {
  SchedulerRun inline_run;
  RunSchedulerHistory(&inline_run, nullptr, GetParam());
  WorkerPool pool(2);
  pool.Start();
  SchedulerRun pooled_run;
  RunSchedulerHistory(&pooled_run, &pool, GetParam());

  const RecordingObserver& a = inline_run.observer;
  const RecordingObserver& b = pooled_run.observer;
  // Cascades happened, on the claiming thread in one run and on the pool in
  // the other.
  ASSERT_GT(a.begins.size(), 20u);
  EXPECT_TRUE(std::find(a.begins.begin(), a.begins.end(), std::make_pair(2, 3)) !=
              a.begins.end());
  const KvStoreStats inline_stats = inline_run.store->stats();
  const KvStoreStats pooled_stats = pooled_run.store->stats();
  EXPECT_EQ(inline_stats.background_compactions, 0u);
  EXPECT_EQ(pooled_stats.background_compactions, pooled_stats.compactions);
  EXPECT_EQ(inline_stats.compactions, pooled_stats.compactions);

  EXPECT_EQ(a.begins, b.begins);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_TRUE(a.segments[i] == b.segments[i]) << "shipped segment " << i << " differs";
  }
  ASSERT_EQ(a.publishes.size(), b.publishes.size());
  for (size_t i = 0; i < a.publishes.size(); ++i) {
    EXPECT_TRUE(a.publishes[i] == b.publishes[i]) << "published level " << i << " differs";
  }
  for (uint32_t level = 1; level <= StoreOptions().max_levels; ++level) {
    const BuiltTree& x = inline_run.store->level(level);
    const BuiltTree& y = pooled_run.store->level(level);
    EXPECT_EQ(x.segments, y.segments) << "L" << level;
    EXPECT_EQ(x.seg_checksums, y.seg_checksums) << "L" << level;
    EXPECT_EQ(x.filter != nullptr, y.filter != nullptr) << "L" << level;
    if (x.filter != nullptr && y.filter != nullptr) {
      EXPECT_TRUE(*x.filter == *y.filter) << "L" << level;
    }
  }
  // And both serve the same reads.
  Random rng(GetParam());
  for (const std::string& key : KeyPool(&rng, 700)) {
    auto x = inline_run.store->Get(key);
    auto y = pooled_run.store->Get(key);
    ASSERT_EQ(x.ok(), y.ok()) << key;
    if (x.ok()) {
      EXPECT_EQ(*x, *y);
    }
  }
  pooled_run.store.reset();  // drains before the pool stops
  pool.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDifferentialTest, testing::Values(1, 2, 3));

// --- value-log reads of one merge --------------------------------------------------

struct TwoLevels {
  std::unique_ptr<BlockDevice> device = MakeDevice(/*granularity=*/512);
  std::unique_ptr<ValueLog> log;
  BuiltTree newer;
  BuiltTree older;
  uint64_t prefix_ties = 0;  // keys of `newer` whose prefix `older` shares
};

std::string TieKey(uint64_t i, char tail) {
  char buf[32];
  snprintf(buf, sizeof(buf), "p%011llu%c", static_cast<unsigned long long>(i), tail);
  return buf;  // 13 bytes: the 12-byte prefix decides unless two keys share `i`
}

// Two filtered levels over flushed log records: `newer` holds even ids,
// `older` odd ids plus, for every `tie_every`-th even id, a key with the same
// 12-byte prefix (a prefix tie the merge must settle from the log).
TwoLevels BuildTwoLevels(uint64_t n, uint64_t tie_every) {
  TwoLevels t;
  auto log = ValueLog::Create(t.device.get());
  EXPECT_TRUE(log.ok());
  t.log = std::move(*log);
  BTreeBuilder newer(t.device.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  BTreeBuilder older(t.device.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  newer.EnableFilter(kDefaultFilterBitsPerKey);
  older.EnableFilter(kDefaultFilterBitsPerKey);
  auto add = [&](BTreeBuilder* builder, const std::string& key) {
    auto res = t.log->Append(key, "value", false);
    ASSERT_TRUE(res.ok());
    ASSERT_TRUE(builder->Add(key, res->offset).ok());
  };
  for (uint64_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      add(&newer, TieKey(i, 'a'));
      if (tie_every != 0 && (i / 2) % tie_every == 0) {
        add(&older, TieKey(i, 'b'));
        t.prefix_ties++;
      }
    } else {
      add(&older, TieKey(i, 'a'));
    }
  }
  EXPECT_TRUE(t.log->FlushTail().ok());
  t.newer = *newer.Finish();
  t.older = *older.Finish();
  return t;
}

// Device reads made by one whole-level iteration: its node reads alone.
uint64_t NodeReads(BlockDevice* device, const BuiltTree& tree) {
  const uint64_t before = device->stats().ReadOps();
  BTreeReader reader(device, nullptr, kDefaultNodeSize, tree, IoClass::kCompactionRead);
  BTreeIterator it(&reader);
  EXPECT_TRUE(it.SeekToFirst().ok());
  while (it.Valid()) {
    EXPECT_TRUE(it.Next().ok());
  }
  return device->stats().ReadOps() - before;
}

struct MergeReads {
  uint64_t written = 0;
  uint64_t ops = 0;
  uint64_t bytes = 0;
};

MergeReads MergeAndCount(TwoLevels* t, const BuiltTree& newer, const BuiltTree& older) {
  MergeReads out;
  const uint64_t ops_before = t->device->stats().ReadOps();
  const uint64_t bytes_before = t->device->stats().ReadBytes(IoClass::kCompactionRead);
  LevelMergeSource a(t->device.get(), kDefaultNodeSize, newer, t->log.get());
  LevelMergeSource b(t->device.get(), kDefaultNodeSize, older, t->log.get());
  EXPECT_TRUE(a.InitForMerge().ok());
  EXPECT_TRUE(b.InitForMerge().ok());
  BTreeBuilder builder(t->device.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  builder.EnableFilter(kDefaultFilterBitsPerKey);
  auto written = MergeSources({&a, &b}, /*drop_tombstones=*/false, &builder);
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  out.written = written.ok() ? *written : 0;
  out.ops = t->device->stats().ReadOps() - ops_before;
  out.bytes = t->device->stats().ReadBytes(IoClass::kCompactionRead) - bytes_before;
  EXPECT_TRUE(builder.Finish().ok());
  return out;
}

uint64_t OutputLeaves(uint64_t entries) {
  const uint64_t cap = LeafCapacity(kDefaultNodeSize);
  return (entries + cap - 1) / cap;
}

TEST(PrefixMergeIoTest, ReadsNodesPlusOneKeyPerOutputLeafWithoutTies) {
  TwoLevels t = BuildTwoLevels(6000, /*tie_every=*/0);
  const uint64_t nodes = NodeReads(t.device.get(), t.newer) + NodeReads(t.device.get(), t.older);
  const MergeReads r = MergeAndCount(&t, t.newer, t.older);
  ASSERT_EQ(r.written, 6000u);
  // Every output leaf's first key is an index pivot: exactly one key read
  // each, one 512-byte sector apiece. Nothing else touches the log.
  const uint64_t leaves = OutputLeaves(r.written);
  EXPECT_EQ(r.ops, nodes + leaves);
  EXPECT_EQ(r.bytes, nodes * kDefaultNodeSize + leaves * 512);
}

TEST(PrefixMergeIoTest, PrefixTiesCostAtMostOneReadPerTiedKey) {
  TwoLevels t = BuildTwoLevels(6000, /*tie_every=*/25);
  ASSERT_GT(t.prefix_ties, 100u);
  const uint64_t nodes = NodeReads(t.device.get(), t.newer) + NodeReads(t.device.get(), t.older);
  const MergeReads r = MergeAndCount(&t, t.newer, t.older);
  ASSERT_EQ(r.written, 6000u + t.prefix_ties);
  // Each tie loads the two tied heads once; a loaded head that then opens a
  // leaf needs no second read.
  const uint64_t budget = nodes + OutputLeaves(r.written) + 2 * t.prefix_ties;
  EXPECT_LE(r.ops, budget);
  EXPECT_GE(r.ops, nodes + 2 * t.prefix_ties);
  EXPECT_LE(r.bytes, nodes * kDefaultNodeSize + (budget - nodes) * 512);
}

TEST(PrefixMergeIoTest, LevelsWithoutCompanionReadEveryKeyOnce) {
  TwoLevels t = BuildTwoLevels(3000, /*tie_every=*/25);
  const uint64_t nodes = NodeReads(t.device.get(), t.newer) + NodeReads(t.device.get(), t.older);
  BuiltTree newer = t.newer;
  BuiltTree older = t.older;
  newer.companion = nullptr;  // as after a checkpoint recovery or a promotion
  older.companion = nullptr;
  const MergeReads r = MergeAndCount(&t, newer, older);
  EXPECT_EQ(r.ops, nodes + newer.num_entries + older.num_entries);
  EXPECT_EQ(r.bytes, nodes * kDefaultNodeSize + (newer.num_entries + older.num_entries) * 512);
}

TEST(PrefixMergeIoTest, LeafKeySizeDisagreeingWithHeaderIsCorruption) {
  auto device = MakeDevice();
  auto log = ValueLog::Create(device.get());
  ASSERT_TRUE(log.ok());
  auto flushed = (*log)->Append("flushed-key-000", "v", false);
  ASSERT_TRUE(flushed.ok());
  ASSERT_TRUE((*log)->FlushTail().ok());
  auto tail = (*log)->Append("tail-key-000000", "v", false);
  ASSERT_TRUE(tail.ok());
  std::string key;
  for (uint64_t offset : {flushed->offset, tail->offset}) {
    EXPECT_TRUE((*log)->ReadKey(offset, 15, &key, nullptr, nullptr, IoClass::kOther).ok());
    EXPECT_TRUE(
        (*log)->ReadKey(offset, 14, &key, nullptr, nullptr, IoClass::kOther).IsCorruption());
    EXPECT_TRUE(
        (*log)->ReadKey(offset, 16, &key, nullptr, nullptr, IoClass::kOther).IsCorruption());
  }

  // The same check guards a merge: a leaf whose key_size is one byte off
  // fails the merge instead of ordering it by a misread key.
  BTreeBuilder builder(device.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  auto first = (*log)->Append("aaaa-first-key", "v", false);
  auto second = (*log)->Append("bbbb-second-key", "v", false);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE((*log)->FlushTail().ok());
  ASSERT_TRUE(builder.Add("aaaa-first-key", first->offset).ok());
  LeafEntry bad;
  bad.log_offset = second->offset;
  bad.key_size = 16;  // the record's key is 15 bytes
  MakePrefix("bbbb-second-key", bad.prefix);
  ASSERT_TRUE(builder.AddEntry(bad, Slice(), FilterKeyHash("bbbb-second-key"), false).ok());
  auto tree = builder.Finish();
  ASSERT_TRUE(tree.ok());
  tree->companion = nullptr;
  LevelMergeSource src(device.get(), kDefaultNodeSize, *tree, log->get());
  ASSERT_TRUE(src.InitForMerge().ok());  // the first entry is sound
  BTreeBuilder out(device.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  auto merged = MergeSources({&src}, /*drop_tombstones=*/false, &out);
  EXPECT_TRUE(merged.status().IsCorruption()) << merged.status().ToString();
}

}  // namespace
}  // namespace tebis
