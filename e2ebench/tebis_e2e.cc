// End-to-end benchmark over the product path: TebisClient -> simulated-RDMA
// message rings -> RegionServer dispatch -> KvStore apply -> PrimaryRegion
// doorbell -> backup commit, on an in-process cluster of a Master and three
// RegionServers with RF=2 Send-Index replication.
//
//   tebis_e2e --workload <ingest-small|read-zipf|update-large> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>] [--break-oracle]
//
// One client thread drives a closed loop: at most `window` operations are in
// flight, and the next one is issued only after the oldest has completed.
// The benchmark measures from outside the program: it times its own calls
// into TebisClient and reads state only through public interfaces (telemetry
// snapshots, device and fabric byte counts, endpoint counters, ClientStats,
// the span rings). --trace 0 prints the end-to-end metrics; --trace 1 runs the
// same workload in alternating untraced/traced chunks and prints the
// per-layer metrics plus the tracing overhead. Every run checks the program's
// outputs against values the benchmark derives itself from (seed, key,
// version); --break-oracle corrupts the expected values, so the run must fail.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "percentiles.h"
#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master.h"
#include "src/cluster/region_map.h"
#include "src/cluster/region_server.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/storage/io_stats.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

namespace {

using namespace tebis;
using e2ebench::Summarize;
using e2ebench::Summary;

// --- cluster shape ---------------------------------------------------------------

constexpr int kServers = 3;
constexpr uint32_t kRegions = 6;  // each server is primary of two, backup of two
constexpr int kReplicationFactor = 2;
constexpr uint64_t kKeySpace = 10'000'000'000ull;  // "user" + 10 digits
constexpr size_t kKeyBytes = 14;
constexpr uint64_t kSegmentBytes = 256 * 1024;
constexpr int kSetupRepeats = 5;
constexpr size_t kOracleSample = 2000;
constexpr int kParts = 10;  // timings: median over this many parts of the measured ops
// The bounded tail latency. On a shared four-core host, bursts of preemption
// delay more than 1% of operations in some runs, which moves p99 by up to 2x
// between runs; p95 lies below those bursts (see README).
constexpr double kTailPercentile = 95;
constexpr uint64_t kTraceChunkNs = 500'000'000;  // alternation period of the traced run

[[noreturn]] void Die(const std::string& what) {
  fprintf(stderr, "tebis_e2e: %s\n", what.c_str());
  exit(2);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    Die(std::string(what) + ": " + s.ToString());
  }
}

// --- seeded inputs ---------------------------------------------------------------

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix64(state_++); }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

// YCSB Zipfian (Gray et al., constant 0.99) over [0, n): item 0 is the
// hottest. Items are key ids; the seeded key bijection (Inputs::Key) already
// scatters them over the key space and the regions.
class Zipf {
 public:
  explicit Zipf(uint64_t n) : n_(n) {
    double zeta_n = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      zeta_n += 1.0 / std::pow(static_cast<double>(i), kTheta);
    }
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, kTheta);
    zeta_n_ = zeta_n;
    alpha_ = 1.0 / (1.0 - kTheta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - kTheta)) / (1.0 - zeta2 / zeta_n);
  }

  uint64_t Next(Rng* rng) const {
    const double u = rng->Unit();
    const double uz = u * zeta_n_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < 1.0 + std::pow(0.5, kTheta)) {
      return 1;
    }
    const auto item =
        static_cast<uint64_t>(static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(item, n_ - 1);
  }

 private:
  static constexpr double kTheta = 0.99;
  uint64_t n_;
  double zeta_n_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

// KV size mixes of the paper's Table 2, in fifths: of every five consecutive
// key ids, the first `small` hold 33 B KVs, the next `medium` 123 B and the
// rest 1023 B. Sizes follow the id, not the seed, so the hottest Zipfian keys
// have the same sizes under every seed and bytes per operation repeat.
struct KvMix {
  const char* name;
  int small;
  int medium;
};

constexpr KvMix kMixS{"S", 5, 0};
constexpr KvMix kMixSD{"SD", 3, 1};
constexpr KvMix kMixLD{"LD", 1, 1};

// Keys and values as pure functions of (seed, key id, version). Key ids map
// to key numbers by a bijection of [0, 10^10) (the stride is coprime to 10),
// so distinct ids never collide; a key's value size is fixed by its id, and
// a value opens with its version in hex so a read names the write it saw.
class Inputs {
 public:
  Inputs(uint64_t seed, KvMix mix) : seed_(seed), mix_(mix), offset_(Mix64(seed) % kKeySpace) {}

  std::string Key(uint64_t id) const {
    const unsigned __int128 n = static_cast<unsigned __int128>(id) * kStride + offset_;
    char buf[32];
    snprintf(buf, sizeof(buf), "user%010" PRIu64, static_cast<uint64_t>(n % kKeySpace));
    return buf;
  }

  size_t ValueBytes(uint64_t id) const {
    const int fifth = static_cast<int>(id % 5);
    const size_t total = fifth < mix_.small ? 33 : fifth < mix_.small + mix_.medium ? 123 : 1023;
    return total - kKeyBytes;
  }

  std::string Value(uint64_t id, uint32_t version) const {
    static constexpr char kAlphabet[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";
    std::string v(ValueBytes(id), '\0');
    char head[9];
    snprintf(head, sizeof(head), "%08" PRIx32, version);
    memcpy(v.data(), head, 8);
    uint64_t h = Mix64(seed_ ^ Mix64(id) ^ (static_cast<uint64_t>(version) << 40));
    for (size_t i = 8; i < v.size(); ++i) {
      if ((i & 7) == 0) {
        h = Mix64(h);
      }
      v[i] = kAlphabet[(h >> ((i & 7) * 8)) & 63];
    }
    return v;
  }

  // Version a stored value claims, or 0 if it carries none.
  static uint32_t VersionOf(const std::string& value) {
    if (value.size() < 8) {
      return 0;
    }
    return static_cast<uint32_t>(strtoul(value.substr(0, 8).c_str(), nullptr, 16));
  }

  uint64_t seed() const { return seed_; }

 private:
  static constexpr uint64_t kStride = 2654435761ull;
  uint64_t seed_;
  KvMix mix_;
  uint64_t offset_;
};

// --- workloads -------------------------------------------------------------------

struct Workload {
  const char* name;
  KvMix mix;
  uint64_t base_keys;  // preloaded during set-up
  int insert_pct;      // new keys
  int update_pct;      // existing keys; the rest are gets
  bool zipf;           // Zipfian choice over the base keys; else uniform over acked keys
  size_t batch_size;   // TebisClient write batching (1 = off)
  size_t window;       // operations in flight
  double cache_ratio;  // page cache per primary store / that store's share of the data
  uint64_t l0_entries;  // KvStoreOptions::l0_max_entries
  uint64_t warmup_ops;
  // The end-to-end metrics are taken over this fixed number of operations at
  // the start of the timed phase, which runs for --seconds and at least until
  // they are done. In an LSM the work an operation causes depends on how much
  // data went in before it, so a fixed amount of work keeps every run (and
  // every version of the program) doing the same compactions.
  uint64_t measured_ops;
};

const Workload kWorkloads[] = {
    {"ingest-small", kMixS, 100'000, 95, 0, false, 16, 64, 0.25, 16 * 1024, 50'000, 1'000'000},
    {"read-zipf", kMixSD, 200'000, 0, 5, true, 1, 1, 0.25, 4 * 1024, 20'000, 350'000},
    {"update-large", kMixLD, 20'000, 0, 50, true, 1, 2, 2.0, 16 * 1024, 20'000, 450'000},
};

double MeanKvBytes(const KvMix& mix) {
  const int large = 5 - mix.small - mix.medium;
  return (mix.small * 33.0 + mix.medium * 123.0 + large * 1023.0) / 5.0;
}

// --- the cluster -----------------------------------------------------------------

class Cluster {
 public:
  Cluster(const Workload& w, bool traced) {
    RegionServerOptions options;
    // One spinner and one worker on each client endpoint: with the replication
    // endpoint's fixed spinner, three servers already keep six threads
    // spinning on four cores (see README).
    options.num_spinners = 1;
    options.num_workers = 1;
    options.compaction_workers = 0;
    options.device_options.segment_size = kSegmentBytes;
    options.device_options.max_segments = 1 << 16;
    options.device_options.accounting_granularity = 512;
    options.kv_options.l0_max_entries = w.l0_entries;
    const double dataset = static_cast<double>(w.base_keys) * MeanKvBytes(w.mix);
    options.kv_options.cache_bytes =
        static_cast<uint64_t>(w.cache_ratio * dataset / static_cast<double>(kRegions));
    options.replication_mode = ReplicationMode::kSendIndex;
    options.expected_regions = kRegions * kReplicationFactor / kServers;
    // The traced run keeps every span of the run; the product default (4096)
    // evicts whole trees and would leave only a tail sample.
    if (traced) {
      options.trace_capacity = 1ull << 26;
    }
    for (int i = 0; i < kServers; ++i) {
      names_.push_back("server" + std::to_string(i));
      servers_.push_back(std::make_unique<RegionServer>(&fabric_, &zk_, names_.back(), options));
      Check(servers_.back()->Start(), "start server");
      directory_[names_.back()] = servers_.back().get();
    }
    master_ = std::make_unique<Master>(&zk_, "master0", directory_);
    Check(master_->Campaign(), "master campaign");
    StatusOr<RegionMap> map =
        RegionMap::CreateUniform(kRegions, "user", 10, kKeySpace, names_, kReplicationFactor);
    Check(map.status(), "region map");
    Check(master_->Bootstrap(*map), "bootstrap");
  }

  ~Cluster() {
    for (auto& server : servers_) {
      server->Stop();
    }
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::unique_ptr<TebisClient> MakeClient(const std::string& name) {
    auto client = std::make_unique<TebisClient>(
        &fabric_, name,
        [this](const std::string& server) -> ServerEndpoint* {
          auto it = directory_.find(server);
          return it == directory_.end() || it->second->crashed() ? nullptr
                                                                 : it->second->client_endpoint();
        },
        names_);
    Check(client->Connect(), "client connect");
    return client;
  }

  Fabric* fabric() { return &fabric_; }
  const std::vector<std::unique_ptr<RegionServer>>& servers() const { return servers_; }

 private:
  Fabric fabric_;
  Coordinator zk_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<RegionServer>> servers_;
  std::map<std::string, RegionServer*> directory_;
  std::unique_ptr<Master> master_;
};

// --- counters read through public interfaces --------------------------------------

const char* const kRegistryCounters[] = {
    "kv.insert_l0_cpu_ns",
    "kv.get_cpu_ns",
    "kv.compactions",
    "kv.compaction_cpu_ns",
    "kv.compaction_merge_ns",
    "kv.compaction_build_ns",
    "kv.compaction_ship_ns",
    "kv.write_stall_ns",
    "kv.write_slowdown_ns",
    "kv.filter_checks",
    "kv.filter_negatives",
    "wp.batch_groups",
    "wp.batch_ops",
    "wp.doorbells",
    "wp.doorbell_records",
    "repl.log_replication_cpu_ns",
    "repl.log_flushes",
    "repl.send_index_cpu_ns",
    "repl.index_bytes_shipped",
    "repl.index_segments_shipped",
    "repl.flow_wait_ns",
    "backup.rewrite_cpu_ns",
    "backup.offsets_rewritten",
    "backup.segments_rewritten",
    "net.rpc_calls",
    "net.rpc_attempts",
};

struct Counters {
  uint64_t wall_ns = 0;
  uint64_t process_cpu_ns = 0;
  uint64_t client_cpu_ns = 0;
  uint64_t fabric_bytes = 0;
  uint64_t device_read[kNumIoClasses] = {};
  uint64_t device_write[kNumIoClasses] = {};
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t allocated_bytes = 0;
  uint64_t client_msgs = 0;
  uint64_t client_polls = 0;
  uint64_t repl_msgs = 0;
  uint64_t repl_polls = 0;
  uint64_t worker_tasks = 0;
  uint64_t primary_puts = 0;  // kv.puts on stores in the primary role
  std::map<std::string, uint64_t> registry;
  Histogram group_commit;  // wp.group_commit_latency_ns, merged over servers
  ClientStats client;

  uint64_t Reg(const char* name) const {
    auto it = registry.find(name);
    return it == registry.end() ? 0 : it->second;
  }
  uint64_t DeviceBytes() const {
    uint64_t total = 0;
    for (int c = 0; c < kNumIoClasses; ++c) {
      total += device_read[c] + device_write[c];
    }
    return total;
  }
};

Counters Sample(Cluster* cluster, const TebisClient& client) {
  Counters c;
  c.wall_ns = NowNanos();
  c.process_cpu_ns = ProcessCpuNanos();
  c.client_cpu_ns = ThreadCpuNanos();
  c.fabric_bytes = cluster->fabric()->TotalBytes();
  for (const auto& server : cluster->servers()) {
    const IoStats& io = server->device()->stats();
    for (int k = 0; k < kNumIoClasses; ++k) {
      c.device_read[k] += io.ReadBytes(static_cast<IoClass>(k));
      c.device_write[k] += io.WriteBytes(static_cast<IoClass>(k));
    }
    c.cache_hits += io.CacheHits();
    c.cache_misses += io.CacheMisses();
    c.allocated_bytes += server->device()->AllocatedSegments() * server->device()->segment_size();
    c.client_msgs += server->client_endpoint()->messages_received();
    c.client_polls += server->client_endpoint()->polls_performed();
    c.repl_msgs += server->replication_endpoint()->messages_received();
    c.repl_polls += server->replication_endpoint()->polls_performed();
    c.worker_tasks += server->client_endpoint()->workers().tasks_executed() +
                      server->replication_endpoint()->workers().tasks_executed();
    MetricsSnapshot snap = server->telemetry()->Snapshot();
    for (const char* name : kRegistryCounters) {
      c.registry[name] += snap.Sum(name);
    }
    c.primary_puts += snap.Sum("kv.puts", "role", "primary");
    for (const MetricSample& sample : snap.samples()) {
      if (sample.kind == InstrumentKind::kHistogram &&
          sample.name == "wp.group_commit_latency_ns") {
        c.group_commit.Merge(sample.histogram);
      }
    }
  }
  c.client = client.stats();
  return c;
}

// Distribution of the values recorded between two cumulative snapshots.
Histogram HistogramDelta(const Histogram& before, const Histogram& after) {
  std::map<uint32_t, uint64_t> buckets;
  for (const auto& [index, count] : after.SparseBuckets()) {
    buckets[index] += count;
  }
  for (const auto& [index, count] : before.SparseBuckets()) {
    buckets[index] -= std::min(buckets[index], count);
  }
  std::vector<std::pair<uint32_t, uint64_t>> sparse;
  uint64_t total = 0;
  for (const auto& [index, count] : buckets) {
    if (count != 0) {
      sparse.emplace_back(index, count);
      total += count;
    }
  }
  Histogram delta;
  if (total != 0) {
    delta.MergeSerialized(total, after.sum() - before.sum(), after.min(), after.max(), sparse);
  }
  return delta;
}

// --- the closed-loop runner ---------------------------------------------------------

enum OpKind : int { kInsert = 0, kUpdate = 1, kGet = 2, kNumKinds = 3 };
const char* const kKindNames[kNumKinds] = {"insert", "update", "get"};

struct PhaseStats {
  uint64_t attempted[kNumKinds] = {};
  uint64_t failed[kNumKinds] = {};
  std::vector<double> put_latency_us;
  std::vector<double> get_latency_us;
  uint64_t completed = 0;
  uint64_t issue_ns = 0;  // time inside PutAsync/GetAsync
  uint64_t wait_ns = 0;   // time inside Wait
  uint64_t user_write_bytes = 0;
  uint64_t user_read_bytes = 0;

  uint64_t Attempted() const { return attempted[kInsert] + attempted[kUpdate] + attempted[kGet]; }
  uint64_t Failed() const { return failed[kInsert] + failed[kUpdate] + failed[kGet]; }
  uint64_t Puts() const { return attempted[kInsert] + attempted[kUpdate]; }
};

// The benchmark's own span around one client call (written out with the
// program's spans at the end of a traced run).
struct BenchSpan {
  bool wait;  // else issue
  uint64_t start_ns;
  uint64_t end_ns;
};

class Runner {
 public:
  Runner(const Workload& w, uint64_t seed, bool break_oracle)
      : w_(w),
        inputs_(seed, w.mix),
        rng_(Mix64(seed ^ 0x5eed)),
        zipf_(w.base_keys),
        break_oracle_(break_oracle) {}

  void Attach(TebisClient* client) { client_ = client; }

  // Loads the base dataset with batched puts (set-up, not measured).
  void Preload() {
    client_->set_batching(64);
    for (uint64_t id = 0; id < w_.base_keys; ++id) {
      Issue(kInsert, NewKey());
      if (window_.size() >= 512) {
        CompleteOldest();
      }
    }
    Drain();
    client_->set_batching(w_.batch_size);
  }

  void RunOps(uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      Step();
    }
    Drain();
  }

  void RunUntil(uint64_t deadline_ns) {
    while (NowNanos() < deadline_ns) {
      Step();
    }
    Drain();
  }

  void BeginPhase() { phase_ = PhaseStats(); }
  const PhaseStats& phase() const { return phase_; }
  const std::vector<BenchSpan>& bench_spans() const { return bench_spans_; }
  void set_record_spans(bool on) { record_spans_ = on; }
  // Calls `fn(completed)` each time another `every` operations of the phase
  // have completed.
  void set_progress(uint64_t every, std::function<void(uint64_t)> fn) {
    progress_every_ = every;
    progress_ = std::move(fn);
  }

  // Bytes of live user data (key + value of every acknowledged key).
  uint64_t LiveBytes() const { return live_bytes_; }
  uint64_t lifetime_put_bytes() const { return lifetime_put_bytes_; }
  const std::string& oracle_error() const { return oracle_error_; }

  // Reads back a seeded sample of keys through `reader` and compares each
  // value with the one the benchmark derives for the last acknowledged
  // version. Returns the number of keys read.
  size_t VerifySample(TebisClient* reader, const char* path) {
    Rng pick(Mix64(inputs_.seed() ^ 0x0ac1e));
    size_t read = 0;
    for (size_t i = 0; i < kOracleSample && oracle_error_.empty(); ++i) {
      const uint64_t id = pick.Uniform(acked_.size());
      if (acked_[id] == 0) {
        continue;
      }
      StatusOr<std::string> got = reader->Get(inputs_.Key(id));
      read++;
      if (!got.ok()) {
        Fail(std::string(path) + " read of " + inputs_.Key(id) + ": " + got.status().ToString());
      } else if (!Matches(id, *got, acked_[id], issued_[id])) {
        Fail(std::string(path) + " read of " + inputs_.Key(id) + " returned a wrong value");
      }
    }
    return read;
  }

 private:
  struct InFlight {
    TebisClient::OpHandle handle;
    OpKind kind;
    uint64_t id;
    uint32_t version;
    uint32_t acked_at_issue;
    uint64_t issue_ns;
  };

  uint64_t NewKey() {
    issued_.push_back(0);
    acked_.push_back(0);
    return issued_.size() - 1;
  }

  void Step() {
    const uint64_t roll = rng_.Uniform(100);
    if (roll < static_cast<uint64_t>(w_.insert_pct)) {
      Issue(kInsert, NewKey());
    } else if (roll < static_cast<uint64_t>(w_.insert_pct + w_.update_pct)) {
      Issue(kUpdate, zipf_.Next(&rng_));
    } else if (w_.zipf) {
      Issue(kGet, zipf_.Next(&rng_));
    } else {
      Issue(kGet, acked_ids_[rng_.Uniform(acked_ids_.size())]);
    }
    if (window_.size() >= w_.window) {
      CompleteOldest();
    }
  }

  void Issue(OpKind kind, uint64_t id) {
    InFlight op{0, kind, id, 0, acked_[id], 0};
    const std::string key = inputs_.Key(id);
    StatusOr<TebisClient::OpHandle> handle = Status::Internal("unset");
    op.issue_ns = NowNanos();
    if (kind == kGet) {
      handle = client_->GetAsync(key);
    } else {
      op.version = ++issued_[id];
      handle = client_->PutAsync(key, inputs_.Value(id, op.version));
    }
    const uint64_t issued_ns = NowNanos();
    phase_.issue_ns += issued_ns - op.issue_ns;
    if (record_spans_) {
      bench_spans_.push_back({false, op.issue_ns, issued_ns});
    }
    if (!handle.ok()) {
      phase_.attempted[kind]++;
      phase_.failed[kind]++;
      return;
    }
    op.handle = *handle;
    window_.push_back(op);
  }

  void CompleteOldest() {
    const InFlight op = window_.front();
    window_.pop_front();
    const uint64_t start_ns = NowNanos();
    TebisClient::OpResult result = client_->Wait(op.handle);
    const uint64_t end_ns = NowNanos();
    phase_.wait_ns += end_ns - start_ns;
    if (record_spans_) {
      bench_spans_.push_back({true, start_ns, end_ns});
    }
    phase_.attempted[op.kind]++;
    if (!result.status.ok()) {
      phase_.failed[op.kind]++;
      return;
    }
    const double latency_us = static_cast<double>(end_ns - op.issue_ns) / 1000.0;
    if (op.kind == kGet) {
      phase_.get_latency_us.push_back(latency_us);
      phase_.user_read_bytes += kKeyBytes + result.value.size();
      // A get may see the last version acknowledged before it was issued, or
      // any version issued since (a put still in flight).
      if (!Matches(op.id, result.value, op.acked_at_issue, issued_[op.id])) {
        Fail("get of " + inputs_.Key(op.id) + " returned a wrong value");
      }
    } else {
      phase_.put_latency_us.push_back(latency_us);
      const uint64_t bytes = kKeyBytes + inputs_.ValueBytes(op.id);
      phase_.user_write_bytes += bytes;
      lifetime_put_bytes_ += bytes;
      if (op.kind == kInsert) {
        acked_ids_.push_back(op.id);
      }
      if (acked_[op.id] == 0) {
        live_bytes_ += bytes;
      }
      acked_[op.id] = std::max(acked_[op.id], op.version);
    }
    phase_.completed++;
    if (progress_every_ != 0 && phase_.completed % progress_every_ == 0) {
      progress_(phase_.completed);
    }
  }

  void Drain() {
    while (!window_.empty()) {
      CompleteOldest();
    }
  }

  bool Matches(uint64_t id, const std::string& value, uint32_t lowest, uint32_t highest) const {
    const uint32_t version = Inputs::VersionOf(value);
    if (version == 0 || version < lowest || version > highest) {
      return false;
    }
    std::string expected = inputs_.Value(id, version);
    if (break_oracle_) {
      expected.back() ^= 1;
    }
    return value == expected;
  }

  void Fail(const std::string& what) {
    if (oracle_error_.empty()) {
      oracle_error_ = what;
    }
  }

  const Workload& w_;
  Inputs inputs_;
  Rng rng_;
  Zipf zipf_;
  const bool break_oracle_;
  TebisClient* client_ = nullptr;
  std::vector<uint32_t> issued_;  // highest version issued, per key id
  std::vector<uint32_t> acked_;   // highest version acknowledged, per key id
  std::vector<uint64_t> acked_ids_;
  std::deque<InFlight> window_;
  PhaseStats phase_;
  bool record_spans_ = false;
  std::vector<BenchSpan> bench_spans_;
  uint64_t progress_every_ = 0;
  std::function<void(uint64_t)> progress_;
  uint64_t lifetime_put_bytes_ = 0;
  uint64_t live_bytes_ = 0;
  std::string oracle_error_;
};

// --- thread placement ------------------------------------------------------------------

// The paper runs clients on machines of their own. Here the client thread gets
// one CPU to itself and the servers' threads (which inherit the affinity of
// the thread that starts them) share the others, so the closed loop is not
// slowed by sharing a core with a spinning server thread. With a single CPU
// available nothing is pinned.
class Placement {
 public:
  Placement() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 2) {
      return;
    }
    CPU_ZERO(&client_);
    CPU_ZERO(&servers_);
    bool client_chosen = false;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) {
        continue;
      }
      if (!client_chosen) {
        CPU_SET(cpu, &client_);
        client_chosen = true;
      } else {
        CPU_SET(cpu, &servers_);
      }
    }
    enabled_ = true;
  }

  // Call on the client thread before it starts server threads.
  void ForServers() const { Apply(servers_); }
  void ForClient() const { Apply(client_); }

 private:
  void Apply(const cpu_set_t& set) const {
    if (enabled_ && sched_setaffinity(0, sizeof(set), &set) != 0) {
      Die("sched_setaffinity failed");
    }
  }

  bool enabled_ = false;
  cpu_set_t client_;
  cpu_set_t servers_;
};

// --- one set-up ------------------------------------------------------------------

// Members are destroyed in reverse order: the runner and the client go before
// the client's span plane, and all of them before the cluster.
struct Deployment {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Telemetry> client_plane;  // receives the client's "client" spans
  std::unique_ptr<TebisClient> client;
  std::unique_ptr<Runner> runner;
};

// Starts the cluster, bootstraps it, preloads the base dataset and warms up
// with the workload's own mix.
std::unique_ptr<Deployment> SetUp(const Workload& w, uint64_t seed, bool traced,
                                  bool break_oracle, const Placement& placement) {
  auto d = std::make_unique<Deployment>();
  placement.ForServers();
  d->cluster = std::make_unique<Cluster>(w, traced);
  placement.ForClient();
  if (traced) {
    d->client_plane = std::make_unique<Telemetry>(1ull << 26);
  }
  d->client = d->cluster->MakeClient("client0");
  d->client->set_telemetry(d->client_plane.get());
  d->runner = std::make_unique<Runner>(w, seed, break_oracle);
  d->runner->Attach(d->client.get());
  d->runner->Preload();
  d->runner->RunOps(w.warmup_ops);
  return d;
}

// --- span analysis (traced run) ------------------------------------------------------

// Length of the part of [start, end) covered by the union of `children`.
uint64_t Covered(uint64_t start, uint64_t end, std::vector<std::pair<uint64_t, uint64_t>> children) {
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t cursor = start;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

struct SpanAnalysis {
  std::vector<double> primary_apply_us;
  std::vector<double> engine_apply_us;
  std::vector<double> backup_commit_us;
  double dispatch_self_us = 0;  // mean primary_apply - engine_apply
  double engine_self_us = 0;    // mean engine_apply - doorbell
  double doorbell_self_us = 0;  // mean doorbell - backup_commit
  double unattributed_us = 0;   // mean client - primary_apply
  double client_us = 0;         // mean client span
  size_t traces = 0;
  size_t spans = 0;
};

double Mean(double total, size_t n) { return n == 0 ? 0 : total / static_cast<double>(n); }

SpanAnalysis AnalyzeSpans(const std::vector<SpanRecord>& spans) {
  std::unordered_map<TraceId, std::vector<const SpanRecord*>> trees;
  SpanAnalysis a;
  for (const SpanRecord& span : spans) {
    if (IsRequestTrace(span.trace)) {
      trees[span.trace].push_back(&span);
      a.spans++;
    }
  }
  a.traces = trees.size();
  double dispatch = 0, engine = 0, doorbell = 0, unattributed = 0, client = 0;
  size_t n_dispatch = 0, n_engine = 0, n_doorbell = 0, n_client = 0;
  auto named = [](const std::vector<const SpanRecord*>& tree, const char* name) {
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (const SpanRecord* s : tree) {
      if (strcmp(s->name, name) == 0) {
        out.emplace_back(s->start_ns, s->end_ns);
      }
    }
    return out;
  };
  for (const auto& [trace, tree] : trees) {
    const auto applies = named(tree, "primary_apply");
    const auto engines = named(tree, "engine_apply");
    const auto doorbells = named(tree, "doorbell");
    const auto commits = named(tree, "backup_commit");
    for (auto [s, e] : applies) {
      a.primary_apply_us.push_back((e - s) / 1000.0);
      dispatch += (e - s - Covered(s, e, engines)) / 1000.0;
      n_dispatch++;
    }
    for (auto [s, e] : engines) {
      a.engine_apply_us.push_back((e - s) / 1000.0);
      engine += (e - s - Covered(s, e, doorbells)) / 1000.0;
      n_engine++;
    }
    for (auto [s, e] : doorbells) {
      doorbell += (e - s - Covered(s, e, commits)) / 1000.0;
      n_doorbell++;
    }
    for (auto [s, e] : commits) {
      a.backup_commit_us.push_back((e - s) / 1000.0);
    }
    for (auto [s, e] : named(tree, "client")) {
      client += (e - s) / 1000.0;
      unattributed += (e - s - Covered(s, e, applies)) / 1000.0;
      n_client++;
    }
  }
  a.dispatch_self_us = Mean(dispatch, n_dispatch);
  a.engine_self_us = Mean(engine, n_engine);
  a.doorbell_self_us = Mean(doorbell, n_doorbell);
  a.unattributed_us = Mean(unattributed, n_client);
  a.client_us = Mean(client, n_client);
  return a;
}

void WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                const std::vector<BenchSpan>& bench) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    Die("cannot write spans to " + path);
  }
  fprintf(f, "trace\tname\tnode\tstart_ns\tend_ns\tbytes\n");
  for (const SpanRecord& s : spans) {
    fprintf(f, "%" PRIx64 "\t%s\t%s\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\n", s.trace, s.name,
            s.node.c_str(), s.start_ns, s.end_ns, s.bytes);
  }
  for (const BenchSpan& s : bench) {
    fprintf(f, "0\t%s\tbench\t%" PRIu64 "\t%" PRIu64 "\t0\n",
            s.wait ? "bench_wait" : "bench_issue", s.start_ns, s.end_ns);
  }
  fclose(f);
}

// --- output ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return e2ebench::PercentileOfSorted(v, p);
}

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Progress of the untraced phase at the end of each part.
struct PartMark {
  size_t puts = 0;  // put latency samples so far
  size_t gets = 0;
  uint64_t wall_ns = 0;
  uint64_t process_cpu_ns = 0;
  uint64_t client_cpu_ns = 0;
};

PartMark Mark(const Runner& runner) {
  return {runner.phase().put_latency_us.size(), runner.phase().get_latency_us.size(), NowNanos(),
          ProcessCpuNanos(), ThreadCpuNanos()};
}

// p99 of the samples, or 0 when fewer than 10 lie beyond it.
double P99OrZero(const std::vector<double>& samples) {
  return e2ebench::SupportsPercentile(samples.size(), 99) ? Percentile(samples, 99) : 0;
}

// Appends the p50 of samples [begin, end), and their tail percentile when at
// least 10 samples lie beyond it.
void PartLatency(const std::vector<double>& all, size_t begin, size_t end,
                 std::vector<double>* p50, std::vector<double>* tail) {
  std::vector<double> v(all.begin() + begin, all.begin() + end);
  std::sort(v.begin(), v.end());
  if (!v.empty()) {
    p50->push_back(e2ebench::PercentileOfSorted(v, 50));
  }
  if (e2ebench::SupportsPercentile(v.size(), kTailPercentile)) {
    tail->push_back(e2ebench::PercentileOfSorted(v, kTailPercentile));
  }
}

// Median of the parts' tail percentiles; the tail percentile of all samples
// when no part alone has enough of them.
double MedianOr(const std::vector<double>& parts, const std::vector<double>& all) {
  return parts.empty() ? Percentile(all, kTailPercentile) : MedianOf(parts);
}

void PrintResult(bool correct, const PhaseStats& p, const std::vector<Metric>& metrics) {
  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": {",
         correct ? "true" : "false", p.Attempted(), p.Failed());
  for (size_t i = 0; i < metrics.size(); ++i) {
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
           metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  printf("}}\n");
  fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  bool break_oracle = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--break-oracle") {
      a.break_oracle = true;
      continue;
    }
    if (i + 1 >= argc) {
      Die("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") {
        Die("--trace takes 0 or 1");
      }
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      Die("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      Die("bad number for " + flag + ": " + value);
    }
  }
  if (!have_workload) {
    Die("--workload is required");
  }
  if (!(a.seconds > 0 && a.seconds <= 120)) {
    Die("--seconds must be in (0, 120]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarn);
  const Args args = ParseArgs(argc, argv);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      found = &w;
    }
  }
  if (found == nullptr) {
    Die("unknown workload " + args.workload);
  }
  const Workload& w = *found;
  if (w.measured_ops % kParts != 0) {
    Die("measured_ops must be a multiple of the number of parts");
  }

  // Set-up, repeated; the last deployment is the one measured.
  std::vector<double> setup_s;
  const Placement placement;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    d.reset();  // tear the previous cluster down first
    const uint64_t start = NowNanos();
    d = SetUp(w, args.seed, args.trace, args.break_oracle, placement);
    setup_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }
  printf("workload %s seed %" PRIu64 ": set-up %.3f s (median of %d)\n", w.name, args.seed,
         MedianOf(setup_s), kSetupRepeats);

  // Timed phase. The traced run alternates untraced and traced chunks so the
  // tracing overhead is a paired comparison within one run.
  Runner& runner = *d->runner;
  TebisClient& client = *d->client;
  const uint64_t duration_ns = static_cast<uint64_t>(args.seconds * 1e9);
  runner.BeginPhase();
  const Counters before = Sample(d->cluster.get(), client);
  double arm_ops[2] = {0, 0}, arm_ns[2] = {0, 0};
  // The untraced phase marks every tenth of its first measured_ops
  // operations and samples the cluster when all of them have completed. The
  // end-to-end metrics are taken over those operations: byte ratios and
  // memory over all of them, timings as the median over the ten parts, so a
  // burst of contention on the machine during one part does not set the
  // run's figure.
  Counters window_end;
  double window_user_bytes = 0, window_live_bytes = 0, window_peak_rss_mb = 0;
  std::vector<PartMark> marks = {Mark(runner)};
  bool window_done = false;
  if (!args.trace) {
    runner.set_progress(w.measured_ops / kParts, [&](uint64_t completed) {
      if (window_done) {
        return;
      }
      const PhaseStats& now = runner.phase();
      marks.push_back(Mark(runner));
      if (completed < w.measured_ops) {
        return;
      }
      window_end = Sample(d->cluster.get(), client);
      window_user_bytes = static_cast<double>(now.user_write_bytes + now.user_read_bytes);
      window_live_bytes = static_cast<double>(runner.LiveBytes());
      window_peak_rss_mb = PeakRssMb();
      window_done = true;
    });
    runner.RunUntil(before.wall_ns + duration_ns);
    if (!window_done) {
      printf("note: %" PRIu64 " operations in %.1f s, fewer than the %" PRIu64
             " measured; running on\n",
             runner.phase().completed, args.seconds, w.measured_ops);
    }
    while (!window_done) {
      runner.RunOps(1000);
    }
  } else {
    const uint64_t deadline = before.wall_ns + duration_ns;
    for (int chunk = 0; NowNanos() < deadline; ++chunk) {
      const int traced = (chunk + static_cast<int>(args.seed % 2)) % 2;
      client.set_request_sampling(traced);
      runner.set_record_spans(traced == 1);
      const uint64_t ops_before = runner.phase().completed;
      const uint64_t chunk_start = NowNanos();
      runner.RunUntil(std::min(deadline, chunk_start + kTraceChunkNs));
      arm_ops[traced] += static_cast<double>(runner.phase().completed - ops_before);
      arm_ns[traced] += static_cast<double>(NowNanos() - chunk_start);
    }
    client.set_request_sampling(0);
    runner.set_record_spans(false);
  }
  const Counters after = Sample(d->cluster.get(), client);
  const PhaseStats& p = runner.phase();

  // Correctness: a seeded read-back through the primary and through a leased
  // backup, then identities the method must satisfy.
  std::string error = runner.oracle_error();
  const size_t primary_reads = runner.VerifySample(&client, "primary");
  std::unique_ptr<TebisClient> reader = d->cluster->MakeClient("reader0");
  reader->set_read_mode(ReadMode::kBoundedStaleness, /*staleness_bound=*/0);
  const size_t replica_reads = runner.VerifySample(reader.get(), "replica");
  if (error.empty()) {
    error = runner.oracle_error();
  }
  const Counters end = Sample(d->cluster.get(), client);
  if (error.empty() && reader->stats().replica_fallbacks != 0) {
    error = "replica reads fell back to the primary " +
            std::to_string(reader->stats().replica_fallbacks) + " times";
  }
  if (error.empty() && reader->stats().replica_reads < replica_reads) {
    error = "only " + std::to_string(reader->stats().replica_reads) + " of " +
            std::to_string(replica_reads) + " oracle reads were served by a backup";
  }
  if (error.empty() && end.client.puts != end.primary_puts) {
    error = "client issued " + std::to_string(end.client.puts) + " puts but the primaries applied " +
            std::to_string(end.primary_puts);
  }
  if (error.empty() &&
      end.Reg("repl.index_segments_shipped") != end.Reg("backup.segments_rewritten")) {
    error = "index segments shipped (" + std::to_string(end.Reg("repl.index_segments_shipped")) +
            ") != segments rewritten on backups (" +
            std::to_string(end.Reg("backup.segments_rewritten")) + ")";
  }
  if (error.empty() &&
      end.fabric_bytes < (kReplicationFactor - 1) * runner.lifetime_put_bytes()) {
    error = "fabric moved " + std::to_string(end.fabric_bytes) +
            " bytes, less than one replica of the value log's " +
            std::to_string(runner.lifetime_put_bytes()) + " user bytes";
  }
  const bool correct = error.empty();
  printf("oracle: %zu primary reads, %zu replica reads (%" PRIu64 " served by backups): %s\n",
         primary_reads, replica_reads, reader->stats().replica_reads,
         correct ? "ok" : error.c_str());

  // Per op type: attempted and failed.
  for (int k = 0; k < kNumKinds; ++k) {
    printf("ops %-6s attempted %" PRIu64 " failed %" PRIu64 "\n", kKindNames[k], p.attempted[k],
           p.failed[k]);
  }

  const double ops = static_cast<double>(p.completed);
  const double user_bytes = static_cast<double>(p.user_write_bytes + p.user_read_bytes);
  const double puts = static_cast<double>(p.Puts());
  const double gets = static_cast<double>(p.attempted[kGet]);
  // Latencies over the measured operations (untraced run) or the whole phase
  // (traced run).
  const size_t put_samples = args.trace ? p.put_latency_us.size() : marks.back().puts;
  const size_t get_samples = args.trace ? p.get_latency_us.size() : marks.back().gets;
  const std::vector<double> put_us(p.put_latency_us.begin(),
                                   p.put_latency_us.begin() + put_samples);
  const std::vector<double> get_us(p.get_latency_us.begin(),
                                   p.get_latency_us.begin() + get_samples);
  const Summary put_lat = Summarize(put_us);
  const Summary get_lat = Summarize(get_us);
  printf("latency put: %zu samples, p50 %.2f us, p%g %.2f us (%zu beyond)\n", put_lat.count,
         put_lat.p50, put_lat.tail_percentile, put_lat.tail_value, put_lat.tail_beyond);
  printf("latency get: %zu samples, p50 %.2f us, p%g %.2f us (%zu beyond)\n", get_lat.count,
         get_lat.p50, get_lat.tail_percentile, get_lat.tail_value, get_lat.tail_beyond);
  if (!e2ebench::SupportsPercentile(put_lat.count, kTailPercentile) ||
      !e2ebench::SupportsPercentile(get_lat.count, kTailPercentile)) {
    Die("too few samples for a tail percentile with 10 samples beyond it");
  }
  auto delta = [&](const char* name) {
    return static_cast<double>(after.Reg(name) - before.Reg(name));
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double window_s = static_cast<double>(window_end.wall_ns - before.wall_ns) / 1e9;
    std::vector<double> kops, cpu_per_op, put_p50, put_p95, get_p50, get_p95;
    const double part_ops = static_cast<double>(w.measured_ops / kParts);
    for (size_t i = 1; i < marks.size(); ++i) {
      const PartMark& a = marks[i - 1];
      const PartMark& b = marks[i];
      kops.push_back(part_ops / static_cast<double>(b.wall_ns - a.wall_ns) * 1e6);
      cpu_per_op.push_back(static_cast<double>((b.process_cpu_ns - a.process_cpu_ns) -
                                               (b.client_cpu_ns - a.client_cpu_ns)) /
                           1000.0 / part_ops);
      PartLatency(p.put_latency_us, a.puts, b.puts, &put_p50, &put_p95);
      PartLatency(p.get_latency_us, a.gets, b.gets, &get_p50, &get_p95);
    }
    printf("measured: the first %" PRIu64 " operations, in %.3f s (%.2f kops/s overall); "
           "per-part kops/s:",
           w.measured_ops, window_s, static_cast<double>(w.measured_ops) / window_s / 1000.0);
    for (double k : kops) {
      printf(" %.1f", k);
    }
    printf("\n");
    metrics = {
        {"setup_s", MedianOf(setup_s), "s"},
        {"throughput_kops", MedianOf(kops), "kops/s"},
        {"put_p50_us", MedianOf(put_p50), "us"},
        {"put_p95_us", MedianOr(put_p95, put_us), "us"},
        {"get_p50_us", MedianOf(get_p50), "us"},
        {"get_p95_us", MedianOr(get_p95, get_us), "us"},
        {"server_cpu_us_per_op", MedianOf(cpu_per_op), "us"},
        {"io_amp",
         static_cast<double>(window_end.DeviceBytes() - before.DeviceBytes()) / window_user_bytes,
         "B/B"},
        {"net_amp",
         static_cast<double>(window_end.fabric_bytes - before.fabric_bytes) / window_user_bytes,
         "B/B"},
        {"space_amp", static_cast<double>(window_end.allocated_bytes) / window_live_bytes, "B/B"},
        {"mem_peak_mb", window_peak_rss_mb, "MB"},
    };
  } else {
    std::vector<SpanRecord> spans = d->client_plane->traces()->Snapshot();
    uint64_t dropped = d->client_plane->traces()->dropped();
    for (const auto& server : d->cluster->servers()) {
      std::vector<SpanRecord> more = server->telemetry()->traces()->Snapshot();
      spans.insert(spans.end(), std::make_move_iterator(more.begin()),
                   std::make_move_iterator(more.end()));
      dropped += server->telemetry()->traces()->dropped();
    }
    if (dropped != 0) {
      Die("span rings dropped " + std::to_string(dropped) + " spans");
    }
    const SpanAnalysis a = AnalyzeSpans(spans);
    if (!args.spans_out.empty()) {
      WriteSpans(args.spans_out, spans, runner.bench_spans());
      printf("spans: %zu program spans and %zu benchmark spans written to %s\n", spans.size(),
             runner.bench_spans().size(), args.spans_out.c_str());
    }
    const Summary apply = Summarize(a.primary_apply_us);
    const Summary engine = Summarize(a.engine_apply_us);
    const Summary commit = Summarize(a.backup_commit_us);
    const Histogram group = HistogramDelta(before.group_commit, after.group_commit);
    const double untraced_kops = Ratio(arm_ops[0], arm_ns[0]) * 1e6;
    const double traced_kops = Ratio(arm_ops[1], arm_ns[1]) * 1e6;
    const ClientStats& c0 = before.client;
    const ClientStats& c1 = after.client;
    const double frames = static_cast<double>(c1.batches_sent - c0.batches_sent) + ops -
                          static_cast<double>(c1.batched_ops - c0.batched_ops);
    const double retries = static_cast<double>(
        (c1.wrong_region_retries - c0.wrong_region_retries) +
        (c1.truncated_retries - c0.truncated_retries) +
        (c1.failover_retries - c0.failover_retries) + (c1.batch_fallbacks - c0.batch_fallbacks));
    const double user_b = user_bytes;
    auto io = [&](IoClass c, bool read) {
      const int k = static_cast<int>(c);
      return static_cast<double>(read ? after.device_read[k] - before.device_read[k]
                                      : after.device_write[k] - before.device_write[k]);
    };
    const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
    const double misses = static_cast<double>(after.cache_misses - before.cache_misses);

    printf("traced: %zu request traces, %zu spans; client %.2f us = unattributed %.2f us + "
           "primary_apply (dispatch self %.2f us, engine self %.2f us, doorbell self %.2f us)\n",
           a.traces, a.spans, a.client_us, a.unattributed_us, a.dispatch_self_us,
           a.engine_self_us, a.doorbell_self_us);
    printf("tracing overhead: untraced %.2f kops/s, traced %.2f kops/s\n", untraced_kops,
           traced_kops);
    metrics = {
        {"client.issue_us", Ratio(static_cast<double>(p.issue_ns) / 1000.0, ops), "us"},
        {"client.wait_us", Ratio(static_cast<double>(p.wait_ns) / 1000.0, ops), "us"},
        {"client.ops_per_frame", Ratio(ops, frames), "ops"},
        {"client.retries", retries, "count"},
        {"net.fabric_bytes_per_op",
         Ratio(static_cast<double>(after.fabric_bytes - before.fabric_bytes), ops), "B"},
        {"net.client_msgs_per_op",
         Ratio(static_cast<double>(after.client_msgs - before.client_msgs), ops), "msgs"},
        {"net.repl_msgs_per_put",
         Ratio(static_cast<double>(after.repl_msgs - before.repl_msgs), puts), "msgs"},
        {"net.useful_poll_ratio",
         Ratio(static_cast<double>(after.client_msgs - before.client_msgs + after.repl_msgs -
                                   before.repl_msgs),
               static_cast<double>(after.client_polls - before.client_polls + after.repl_polls -
                                   before.repl_polls)),
         "ratio"},
        {"net.rpc_attempts_per_call", Ratio(delta("net.rpc_attempts"), delta("net.rpc_calls")),
         "ratio"},
        {"cluster.primary_apply_p50_us", apply.p50, "us"},
        {"cluster.primary_apply_p99_us", P99OrZero(a.primary_apply_us), "us"},
        {"cluster.dispatch_self_us", a.dispatch_self_us, "us"},
        {"cluster.unattributed_us", a.unattributed_us, "us"},
        {"cluster.worker_tasks_per_op",
         Ratio(static_cast<double>(after.worker_tasks - before.worker_tasks), ops), "tasks"},
        {"lsm.engine_apply_p50_us", engine.p50, "us"},
        {"lsm.engine_apply_p99_us", P99OrZero(a.engine_apply_us), "us"},
        {"lsm.engine_self_us", a.engine_self_us, "us"},
        {"lsm.insert_cpu_us_per_put", Ratio(delta("kv.insert_l0_cpu_ns") / 1000.0, puts), "us"},
        {"lsm.get_cpu_us_per_get", Ratio(delta("kv.get_cpu_ns") / 1000.0, gets), "us"},
        {"lsm.group_commit_p50_us", static_cast<double>(group.Percentile(50)) / 1000.0, "us"},
        {"lsm.group_commit_p99_us", static_cast<double>(group.Percentile(99)) / 1000.0, "us"},
        {"lsm.ops_per_group", Ratio(delta("wp.batch_ops"), delta("wp.batch_groups")), "ops"},
        {"lsm.write_stall_ms", (delta("kv.write_stall_ns") + delta("kv.write_slowdown_ns")) / 1e6,
         "ms"},
        {"lsm.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
        {"lsm.filter_skip_ratio", Ratio(delta("kv.filter_negatives"), delta("kv.filter_checks")),
         "ratio"},
        {"lsm.compactions", delta("kv.compactions"), "count"},
        {"lsm.compaction_cpu_us_per_put", Ratio(delta("kv.compaction_cpu_ns") / 1000.0, puts),
         "us"},
        {"lsm.compaction_merge_ms", delta("kv.compaction_merge_ns") / 1e6, "ms"},
        {"lsm.compaction_build_ms", delta("kv.compaction_build_ns") / 1e6, "ms"},
        {"lsm.compaction_ship_ms", delta("kv.compaction_ship_ns") / 1e6, "ms"},
        {"replication.log_cpu_us_per_put",
         Ratio(delta("repl.log_replication_cpu_ns") / 1000.0, puts), "us"},
        {"replication.doorbell_self_us", a.doorbell_self_us, "us"},
        {"replication.backup_commit_p50_us", commit.p50, "us"},
        {"replication.records_per_doorbell",
         Ratio(delta("wp.doorbell_records"), delta("wp.doorbells")), "records"},
        {"replication.log_flushes", delta("repl.log_flushes"), "count"},
        {"replication.send_index_cpu_us_per_put",
         Ratio(delta("repl.send_index_cpu_ns") / 1000.0, puts), "us"},
        {"replication.index_bytes_per_user_byte", Ratio(delta("repl.index_bytes_shipped"), user_b),
         "B/B"},
        {"replication.flow_wait_ms", delta("repl.flow_wait_ns") / 1e6, "ms"},
        {"replication.rewrite_cpu_us_per_put", Ratio(delta("backup.rewrite_cpu_ns") / 1000.0, puts),
         "us"},
        {"replication.rewrite_ns_per_offset",
         Ratio(delta("backup.rewrite_cpu_ns"), delta("backup.offsets_rewritten")), "ns"},
        {"storage.log_write_bytes_per_user_byte", Ratio(io(IoClass::kLogFlush, false), user_b),
         "B/B"},
        {"storage.compaction_bytes_per_user_byte",
         Ratio(io(IoClass::kCompactionRead, true) + io(IoClass::kCompactionWrite, false), user_b),
         "B/B"},
        {"storage.index_rewrite_bytes_per_user_byte",
         Ratio(io(IoClass::kIndexRewrite, false), user_b), "B/B"},
        {"storage.lookup_bytes_per_get", Ratio(io(IoClass::kLookup, true), gets), "B"},
        {"storage.allocated_mb", static_cast<double>(after.allocated_bytes) / (1024.0 * 1024.0),
         "MB"},
        {"trace.untraced_kops", untraced_kops, "kops/s"},
        {"trace.traced_kops", traced_kops, "kops/s"},
        {"trace.overhead_pct", Ratio(untraced_kops - traced_kops, untraced_kops) * 100.0, "%"},
    };
  }
  PrintResult(correct, p, metrics);
  return correct ? 0 : 1;
}
