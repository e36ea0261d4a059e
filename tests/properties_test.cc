// Property-based and parameterized test suites (DESIGN.md §6):
//  - data integrity across every read path x size x transport,
//  - scale invariance of the vRead/vanilla ratio,
//  - scheduler work conservation and fairness across core counts,
//  - SimFs and PageCache checked against in-memory reference models under
//    randomized operation sequences,
//  - determinism across configurations.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <tuple>
#include <type_traits>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "fs/loop_mount.h"
#include "fs/simfs.h"
#include "hw/cpu.h"
#include "mem/buffer.h"
#include "mem/page_cache.h"
#include "sim/random.h"

namespace vread {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using apps::DfsIoResult;
using apps::TestDfsIo;
using mem::Buffer;

// ---------------------------------------------------------------------------
// Integrity matrix: every path delivers byte-identical data.
// ---------------------------------------------------------------------------

// gtest names each case after the raw bytes of its PathCase (there is no
// printer for it), so the struct must have no padding: padding bytes are
// whatever the stack held, which made the test names differ between builds.
// `reserved` fills the gap after the two bools and is always zero.
struct PathCase {
  PathCase(bool vread, bool remote, core::VReadDaemon::Transport transport,
           std::uint64_t file_bytes, std::uint64_t buffer)
      : vread(vread), remote(remote), transport(transport), file_bytes(file_bytes),
        buffer(buffer) {}

  bool vread;
  bool remote;                       // data on the remote datanode only
  std::uint16_t reserved = 0;
  core::VReadDaemon::Transport transport;
  std::uint64_t file_bytes;
  std::uint64_t buffer;
};
static_assert(std::has_unique_object_representations_v<PathCase>,
              "PathCase must have no padding bytes");

class IntegrityMatrix : public ::testing::TestWithParam<PathCase> {};

TEST_P(IntegrityMatrix, ChecksumMatchesGroundTruth) {
  const PathCase& p = GetParam();
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_host("host2");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_datanode("host2", "datanode2");
  c.add_client("client");
  c.preload_file("/data", p.file_bytes, 1234,
                 {{p.remote ? "datanode2" : "datanode1"}});
  if (p.vread) c.enable_vread(p.transport);
  c.drop_all_caches();
  DfsIoResult r;
  c.run_job(TestDfsIo::read(c, "client", "/data", p.buffer, r));
  EXPECT_EQ(r.bytes, p.file_bytes);
  EXPECT_EQ(r.checksum, Buffer::deterministic(1234, 0, p.file_bytes).checksum());
  if (p.vread) {
    EXPECT_EQ(c.daemon("host1")->failed_opens(), 0u);
    EXPECT_EQ(c.datanode(p.remote ? "datanode2" : "datanode1")->bytes_served(), 0u);
  }
  // Re-read (cached) path is also byte-identical.
  DfsIoResult r2;
  c.run_job(TestDfsIo::read(c, "client", "/data", p.buffer, r2));
  EXPECT_EQ(r2.checksum, r.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, IntegrityMatrix,
    ::testing::Values(
        // vanilla local / remote
        PathCase{false, false, core::VReadDaemon::Transport::kRdma, 6 << 20, 1 << 20},
        PathCase{false, true, core::VReadDaemon::Transport::kRdma, 6 << 20, 1 << 20},
        // vread local, both transports (transport irrelevant locally)
        PathCase{true, false, core::VReadDaemon::Transport::kRdma, 6 << 20, 1 << 20},
        // vread remote, RDMA and TCP
        PathCase{true, true, core::VReadDaemon::Transport::kRdma, 6 << 20, 1 << 20},
        PathCase{true, true, core::VReadDaemon::Transport::kTcp, 6 << 20, 1 << 20},
        // odd sizes and small buffers
        PathCase{true, false, core::VReadDaemon::Transport::kRdma, (5 << 20) + 4097,
                 64 << 10},
        PathCase{false, false, core::VReadDaemon::Transport::kRdma, (5 << 20) + 4097,
                 64 << 10},
        PathCase{true, true, core::VReadDaemon::Transport::kRdma, (9 << 20) + 1,
                 333'333},
        // single-byte file
        PathCase{true, false, core::VReadDaemon::Transport::kRdma, 1, 1 << 20},
        PathCase{false, false, core::VReadDaemon::Transport::kRdma, 1, 1 << 20}));

// ---------------------------------------------------------------------------
// Scale invariance: the vRead/vanilla throughput ratio is stable across
// file sizes (justifies the benches' scaled-down datasets).
// ---------------------------------------------------------------------------

class ScaleInvariance : public ::testing::TestWithParam<bool> {};  // remote?

double ratio_for_size(bool remote, std::uint64_t bytes) {
  double mbps[2];
  for (bool vread : {false, true}) {
    ClusterConfig cfg;
    cfg.block_size = 8 * 1024 * 1024;
    Cluster c(cfg);
    c.add_host("host1");
    c.add_host("host2");
    c.add_vm("host1", "client");
    c.create_namenode("client");
    c.add_datanode("host1", "datanode1");
    c.add_datanode("host2", "datanode2");
    c.add_client("client");
    c.preload_file("/data", bytes, 77, {{remote ? "datanode2" : "datanode1"}});
    if (vread) c.enable_vread();
    c.drop_all_caches();
    DfsIoResult r;
    c.run_job(TestDfsIo::read(c, "client", "/data", 1 << 20, r));
    mbps[vread ? 1 : 0] = r.throughput_mbps;
  }
  return mbps[1] / mbps[0];
}

TEST_P(ScaleInvariance, RatioStableAcrossFileSizes) {
  const bool remote = GetParam();
  const double r32 = ratio_for_size(remote, 32ULL << 20);
  const double r96 = ratio_for_size(remote, 96ULL << 20);
  EXPECT_GT(r32, 1.0);
  EXPECT_GT(r96, 1.0);
  EXPECT_NEAR(r32, r96, 0.15 * r96);  // within 15%
}

INSTANTIATE_TEST_SUITE_P(LocalAndRemote, ScaleInvariance, ::testing::Bool());

// ---------------------------------------------------------------------------
// Scheduler properties across core counts and thread counts.
// ---------------------------------------------------------------------------

class SchedulerSweep
    : public ::testing::TestWithParam<std::tuple<int /*cores*/, int /*threads*/>> {};

sim::Task burst_n(hw::CpuScheduler& cpu, hw::ThreadId tid, int bursts,
                  sim::Cycles cycles) {
  for (int i = 0; i < bursts; ++i) {
    co_await cpu.consume(tid, cycles, hw::CycleCategory::kOther);
  }
}

TEST_P(SchedulerSweep, WorkConservationAndFairness) {
  auto [cores, threads] = GetParam();
  sim::Simulation sim;
  metrics::CycleAccounting acct;
  hw::CpuScheduler cpu(sim, acct, {.cores = cores, .freq_ghz = 2.0});
  const sim::Cycles per_thread = 20'000'000;  // 10 ms at 2 GHz
  std::vector<hw::ThreadId> tids;
  for (int t = 0; t < threads; ++t) {
    std::string name = "t";
    name += std::to_string(t);
    tids.push_back(cpu.add_thread(std::move(name), "g"));
    sim.spawn(burst_n(cpu, tids.back(), 10, per_thread / 10));
  }
  sim.run();
  // Work conservation: every demanded cycle was delivered.
  EXPECT_EQ(acct.group_total("g"),
            static_cast<sim::Cycles>(threads) * per_thread);
  // Makespan bound: at least total/(cores*freq); at most ~2x that plus
  // migration slack (round-robin cannot waste cores while work is queued).
  const double ideal_ms =
      static_cast<double>(threads) * 10.0 / std::min(cores, threads);
  EXPECT_GE(sim.now(), sim::ms(static_cast<std::int64_t>(ideal_ms * 0.99)));
  EXPECT_LE(sim.now(), sim::ms(static_cast<std::int64_t>(ideal_ms * 1.5)) + sim::ms(5));
  // Fairness: identical demand => identical totals.
  for (hw::ThreadId t : tids) EXPECT_EQ(acct.thread_total(t), per_thread);
}

INSTANTIATE_TEST_SUITE_P(CoreThreadGrid, SchedulerSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1, 3, 4, 9)));

// ---------------------------------------------------------------------------
// SimFs vs reference model under random operation sequences.
// ---------------------------------------------------------------------------

class SimFsFuzz : public ::testing::TestWithParam<std::uint64_t> {};  // seed

TEST_P(SimFsFuzz, MatchesReferenceModel) {
  sim::Rng rng(GetParam());
  auto img = std::make_shared<fs::DiskImage>(96ULL << 20);
  fs::SimFs fs = fs::SimFs::format(img);
  fs.mkdir("/d");
  std::map<std::string, Buffer> model;  // path -> contents
  std::map<std::string, std::uint32_t> inodes;
  int created = 0;

  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = rng.uniform(0, 9);
    if (op < 3 || model.empty()) {
      // create a new file
      std::string path = "/d/f" + std::to_string(created++);
      inodes[path] = fs.create(path);
      model[path] = Buffer();
    } else {
      // pick an existing file
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.uniform(0, model.size() - 1)));
      const std::string& path = it->first;
      if (op < 7) {
        // append
        const std::uint64_t n = rng.uniform(1, 60'000);
        Buffer data = Buffer::deterministic(rng.next(), 0, n);
        fs.append(inodes[path], data);
        it->second.append(data);
      } else if (op < 9) {
        // random range read
        const Buffer& ref = it->second;
        if (!ref.empty()) {
          const std::uint64_t off = rng.uniform(0, ref.size() - 1);
          const std::uint64_t len = rng.uniform(1, ref.size() - off);
          ASSERT_EQ(fs.read(inodes[path], off, len), ref.slice(off, len))
              << path << " off=" << off << " len=" << len;
        }
      } else {
        // full-file verification + size check
        ASSERT_EQ(fs.file_size(inodes[path]), it->second.size());
        ASSERT_EQ(fs.read(inodes[path], 0, it->second.size()), it->second);
      }
    }
  }
  // Final sweep: every file intact, and a fresh LoopMount sees the same.
  fs::LoopMount mount(img);
  for (const auto& [path, ref] : model) {
    ASSERT_EQ(fs.read(inodes[path], 0, ref.size()), ref);
    auto ino = mount.lookup(path);
    ASSERT_TRUE(ino.has_value()) << path;
    ASSERT_EQ(mount.read(*ino, 0, ref.size()), ref) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFsFuzz, ::testing::Values(1, 2, 3, 42, 999));

// ---------------------------------------------------------------------------
// PageCache vs reference model.
// ---------------------------------------------------------------------------

class PageCacheFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageCacheFuzz, MissAccountingMatchesReferenceSet) {
  sim::Rng rng(GetParam());
  // Large capacity: no evictions, so a plain set is an exact reference.
  mem::PageCache cache(1ULL << 30);
  std::map<std::pair<std::uint64_t, std::uint64_t>, bool> resident;
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t obj = rng.uniform(1, 4);
    const std::uint64_t off = rng.uniform(0, 1 << 22);
    const std::uint64_t len = rng.uniform(1, 64 << 10);
    // Reference miss computation.
    std::uint64_t expected = 0;
    const std::uint64_t first = off / 4096, last = (off + len - 1) / 4096;
    for (std::uint64_t pg = first; pg <= last; ++pg) {
      if (!resident.count({obj, pg})) {
        const std::uint64_t lo = std::max(off, pg * 4096);
        const std::uint64_t hi = std::min(off + len, (pg + 1) * 4096);
        expected += hi - lo;
      }
    }
    ASSERT_EQ(cache.miss_bytes(obj, off, len), expected) << "step " << step;
    if (rng.uniform01() < 0.7) {
      cache.fill(obj, off, len);
      for (std::uint64_t pg = first; pg <= last; ++pg) resident[{obj, pg}] = true;
    }
    if (rng.uniform01() < 0.02) {
      cache.clear();
      resident.clear();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCacheFuzz, ::testing::Values(7, 8, 9));

// Reference LRU for the evicting model test: a std::list in recency order
// plus a map from page to list node (the page cache's former layout).
class ReferenceLru {
 public:
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  explicit ReferenceLru(std::uint64_t capacity_pages) : cap_(capacity_pages) {}

  void insert(std::uint64_t obj, std::uint64_t page) {
    if (cap_ == 0) return;
    const Key k{obj, page};
    if (auto it = map_.find(k); it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(k);
    map_[k] = lru_.begin();
    if (map_.size() > cap_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      ++evictions;
    }
  }
  std::uint64_t miss_bytes(std::uint64_t obj, std::uint64_t off, std::uint64_t len) {
    if (len == 0) return 0;
    if (cap_ == 0) return len;
    std::uint64_t missing = 0;
    for (std::uint64_t p = off / 4096; p <= (off + len - 1) / 4096; ++p) {
      const std::uint64_t lo = std::max(off, p * 4096);
      const std::uint64_t hi = std::min(off + len, (p + 1) * 4096);
      if (auto it = map_.find({obj, p}); it == map_.end()) {
        missing += hi - lo;
        ++misses;
      } else {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++hits;
      }
    }
    return missing;
  }
  void fill(std::uint64_t obj, std::uint64_t off, std::uint64_t len) {
    if (len == 0 || cap_ == 0) return;
    for (std::uint64_t p = off / 4096; p <= (off + len - 1) / 4096; ++p) insert(obj, p);
  }
  void clear() {
    map_.clear();
    lru_.clear();
  }
  const std::list<Key>& lru() const { return lru_; }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

 private:
  std::uint64_t cap_;
  std::list<Key> lru_;
  std::map<Key, std::list<Key>::iterator> map_;
};

class PageCacheEvictingModel : public ::testing::TestWithParam<std::uint64_t> {};

// A capacity of a few dozen pages against a working set several times
// larger: nearly every fill evicts, and the small open-addressed index
// sees long probe runs, so backward-shift deletion is exercised on every
// eviction. After each operation the cache must agree with the reference
// on miss bytes, counters and the exact resident set.
TEST_P(PageCacheEvictingModel, MatchesAReferenceLruAfterEveryOperation) {
  sim::Rng rng(GetParam());
  const std::uint64_t cap_pages = rng.uniform(1, 48);
  mem::PageCache cache(cap_pages * 4096 + rng.uniform(0, 4095));
  ReferenceLru ref(cap_pages);
  for (int step = 0; step < 6000; ++step) {
    const std::uint64_t obj = rng.uniform(1, 4);
    const std::uint64_t off = rng.uniform(0, 160 * 4096);
    const std::uint64_t len = rng.uniform(0, 6 * 4096);
    const double op = rng.uniform01();
    if (op < 0.35) {
      ASSERT_EQ(cache.miss_bytes(obj, off, len), ref.miss_bytes(obj, off, len))
          << "step " << step;
    } else if (op < 0.75) {
      cache.fill(obj, off, len);
      ref.fill(obj, off, len);
    } else if (op < 0.995) {
      const std::uint64_t page = off / 4096;
      cache.insert(obj, page);
      ref.insert(obj, page);
    } else {
      cache.clear();
      ref.clear();
    }
    ASSERT_EQ(cache.hits(), ref.hits) << "step " << step;
    ASSERT_EQ(cache.misses(), ref.misses) << "step " << step;
    ASSERT_EQ(cache.evictions(), ref.evictions) << "step " << step;
    ASSERT_EQ(cache.resident_pages(), ref.lru().size()) << "step " << step;
    for (const auto& [o, p] : ref.lru()) {
      ASSERT_TRUE(cache.contains(o, p)) << "step " << step << " page " << o << ":" << p;
    }
  }
  EXPECT_GT(cache.evictions(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCacheEvictingModel, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Determinism across configurations.
// ---------------------------------------------------------------------------

struct DetCase {
  bool vread;
  bool remote;
  bool four_vms;
};

class DeterminismSweep : public ::testing::TestWithParam<DetCase> {};

std::tuple<sim::SimTime, std::uint64_t, sim::Cycles> det_run(const DetCase& p) {
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_host("host2");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_datanode("host2", "datanode2");
  c.add_client("client");
  if (p.four_vms) {
    c.add_lookbusy("host1", "bg1", 0.85);
    c.add_lookbusy("host1", "bg2", 0.85);
  }
  c.preload_file("/data", 8 << 20, 55, {{p.remote ? "datanode2" : "datanode1"}});
  if (p.vread) c.enable_vread();
  c.drop_all_caches();
  DfsIoResult r;
  c.run_job(TestDfsIo::read(c, "client", "/data", 1 << 20, r));
  return {c.sim().now(), r.checksum, c.acct().group_total("client")};
}

TEST_P(DeterminismSweep, IdenticalRunsBitIdentical) {
  EXPECT_EQ(det_run(GetParam()), det_run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Configs, DeterminismSweep,
                         ::testing::Values(DetCase{false, false, false},
                                           DetCase{true, false, false},
                                           DetCase{true, true, false},
                                           DetCase{false, true, true},
                                           DetCase{true, false, true}));

}  // namespace
}  // namespace vread
