// Tests for the QFS-style filesystem and — the point of the module — the
// paper's §3 generalization claim: the UNMODIFIED vRead daemons + libvread
// accelerate this second, differently-shaped distributed file system.
#include <gtest/gtest.h>

#include "apps/cluster.h"
#include "core/libvread.h"
#include "fs/simfs.h"
#include "mem/buffer.h"
#include "qfs/qfs.h"

namespace vread::qfs {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using mem::Buffer;

constexpr std::uint64_t kChunk = 4ULL << 20;

// Two hosts, a client VM, and two chunkserver VMs. No HDFS anywhere.
struct QfsBed {
  Cluster cluster;
  std::unique_ptr<MetaServer> meta;
  std::unique_ptr<ChunkServer> cs1;
  std::unique_ptr<ChunkServer> cs2;
  std::unique_ptr<QfsClient> client;
  std::unique_ptr<core::LibVread> lib;

  QfsBed() : cluster(ClusterConfig{}) {
    cluster.add_host("host1");
    cluster.add_host("host2");
    virt::Vm& cvm = cluster.add_vm("host1", "client");
    virt::Vm& v1 = cluster.add_vm("host1", "cs1");
    virt::Vm& v2 = cluster.add_vm("host2", "cs2");
    meta = std::make_unique<MetaServer>(cvm, cluster.costs());
    cs1 = std::make_unique<ChunkServer>(v1, *meta, cluster.net(), "cs1");
    cs2 = std::make_unique<ChunkServer>(v2, *meta, cluster.net(), "cs2");
    cs1->start();
    cs2->start();
    client = std::make_unique<QfsClient>(cvm, *meta, cluster.net());
  }

  // Install the unmodified vRead stack under QFS.
  void enable_vread() {
    cluster.enable_vread();  // daemons only: no HDFS datanodes exist
    // Register the chunkserver images with their "/chunks" layout.
    cluster.daemon("host1")->register_local_datanode("cs1", cs1->vm().disk_image(),
                                                     ChunkServer::kChunkDir);
    cluster.daemon("host2")->register_local_datanode("cs2", cs2->vm().disk_image(),
                                                     ChunkServer::kChunkDir);
    cluster.daemon("host1")->register_remote_datanode("cs2",
                                                      cluster.daemon("host2"));
    cluster.daemon("host2")->register_remote_datanode("cs1",
                                                      cluster.daemon("host1"));
    lib = std::make_unique<core::LibVread>(client->vm(), *cluster.daemon("host1"));
    client->set_block_reader(lib.get());
  }
};

TEST(Qfs, WriteReadRoundTripVanilla) {
  QfsBed bed;
  const std::uint64_t bytes = 10ULL << 20;  // 3 chunks over 2 servers
  Buffer data = Buffer::deterministic(51, 0, bytes);
  auto job = [](QfsBed* b, const Buffer* d, Buffer* out) -> sim::Task {
    co_await b->client->write_file("/q", *d, kChunk);
    co_await b->client->read_file("/q", *out);
  };
  Buffer got;
  bed.cluster.run_job(job(&bed, &data, &got));
  EXPECT_EQ(got, data);
  EXPECT_EQ(bed.meta->file_size("/q"), bytes);
  EXPECT_EQ(bed.meta->layout("/q").size(), 3u);
  // Round-robin placement across chunkservers.
  EXPECT_EQ(bed.meta->layout("/q")[0].server, "cs1");
  EXPECT_EQ(bed.meta->layout("/q")[1].server, "cs2");
  // Chunk files live under /chunks on the owning server.
  EXPECT_TRUE(bed.cs1->vm().fs().exists(
      ChunkServer::chunk_path(bed.meta->layout("/q")[0])));
}

// The kWriteChunk path stores each packet as a view of the client's
// buffer: a 64 MiB write materialises no payload bytes on the chunkservers.
TEST(Qfs, ChunkWritesMaterialiseNoPayloadBytes) {
  QfsBed bed;
  const std::uint64_t bytes = 64ULL << 20;  // 16 chunks over 2 servers
  const Buffer data = Buffer::deterministic(56, 0, bytes);
  auto job = [](QfsBed* b, const Buffer* d) -> sim::Task {
    co_await b->client->write_file("/q", *d, kChunk);
  };
  const std::uint64_t before = Buffer::slab_bytes_allocated();
  bed.cluster.run_job(job(&bed, &data));
  const double per_written_byte =
      static_cast<double>(Buffer::slab_bytes_allocated() - before) / static_cast<double>(bytes);

  ASSERT_EQ(bed.meta->layout("/q").size(), bytes / kChunk);
  for (const ChunkInfo& c : bed.meta->layout("/q")) {
    fs::SimFs& fs = (c.server == "cs1" ? bed.cs1 : bed.cs2)->vm().fs();
    const auto ino = fs.lookup(ChunkServer::chunk_path(c));
    ASSERT_TRUE(ino.has_value()) << c.server << " missing chunk " << c.id;
    EXPECT_EQ(fs.read(*ino, 0, c.size), data.slice(c.offset_in_file, c.size)) << c.id;
  }
  EXPECT_LE(per_written_byte, 0.01);
}

TEST(Qfs, PreadClampsAndAddresses) {
  QfsBed bed;
  const std::uint64_t bytes = (2ULL << 20) + 777;
  Buffer data = Buffer::deterministic(52, 0, bytes);
  Buffer mid, tail;
  auto job = [](QfsBed* b, const Buffer* d, std::uint64_t n, Buffer* m,
                Buffer* t) -> sim::Task {
    co_await b->client->write_file("/q", *d, kChunk);
    co_await b->client->pread("/q", 1'000'000, 500'000, *m);
    co_await b->client->pread("/q", n - 100, 9'999, *t);  // clamped at EOF
  };
  bed.cluster.run_job(job(&bed, &data, bytes, &mid, &tail));
  EXPECT_EQ(mid, Buffer::deterministic(52, 1'000'000, 500'000));
  EXPECT_EQ(tail, Buffer::deterministic(52, bytes - 100, 100));
}

TEST(Qfs, VReadAcceleratesUnmodified) {
  // The generalization claim, measured: identical bytes, served by the
  // daemons instead of the chunkserver processes, and faster.
  const std::uint64_t bytes = 24ULL << 20;
  auto run = [&](bool vread, std::uint64_t* daemon_reads,
                 std::uint64_t* cs_bytes) {
    QfsBed bed;
    Buffer data = Buffer::deterministic(53, 0, bytes);
    auto prep = [](QfsBed* b, const Buffer* d) -> sim::Task {
      co_await b->client->write_file("/q", *d, kChunk);
    };
    bed.cluster.run_job(prep(&bed, &data));
    if (vread) bed.enable_vread();
    bed.cluster.drop_all_caches();
    Buffer got;
    const sim::SimTime t0 = bed.cluster.sim().now();
    auto reader = [](QfsBed* b, Buffer* out) -> sim::Task {
      co_await b->client->read_file("/q", *out);
    };
    bed.cluster.run_job(reader(&bed, &got));
    EXPECT_EQ(got, data);
    if (daemon_reads != nullptr) {
      *daemon_reads = bed.cluster.daemon("host1") == nullptr
                          ? 0
                          : bed.cluster.daemon("host1")->reads() +
                                bed.cluster.daemon("host1")->remote_reads();
    }
    if (cs_bytes != nullptr) {
      *cs_bytes = bed.cs1->bytes_served() + bed.cs2->bytes_served();
    }
    return bed.cluster.sim().now() - t0;
  };
  std::uint64_t dr = 0, csb = 0;
  const sim::SimTime vanilla = run(false, nullptr, nullptr);
  const sim::SimTime vr = run(true, &dr, &csb);
  EXPECT_LT(vr, vanilla);          // faster
  EXPECT_GT(dr, 0u);               // served by the unmodified daemons
  EXPECT_EQ(csb, 0u);              // chunkserver processes fully bypassed
}

TEST(Qfs, WriteVisibilityViaUpdate) {
  // Mounts exist BEFORE the file does; the per-chunk vRead_update makes
  // new chunks shortcut-readable with zero failed opens.
  QfsBed bed;
  bed.enable_vread();
  const std::uint64_t bytes = 6ULL << 20;
  Buffer data = Buffer::deterministic(54, 0, bytes);
  Buffer got;
  auto job = [](QfsBed* b, const Buffer* d, Buffer* out) -> sim::Task {
    co_await b->client->write_file("/q", *d, kChunk);
    co_await b->client->read_file("/q", *out);
  };
  bed.cluster.run_job(job(&bed, &data, &got));
  EXPECT_EQ(got, data);
  EXPECT_EQ(bed.cluster.daemon("host1")->failed_opens(), 0u);
  EXPECT_GT(bed.cluster.daemon("host1")->refreshes() +
                bed.cluster.daemon("host2")->refreshes(),
            0u);
}

TEST(Qfs, MetaServerErrors) {
  QfsBed bed;
  EXPECT_THROW(bed.meta->layout("/nope"), QfsError);
  bed.meta->create_file("/f", kChunk);
  EXPECT_THROW(bed.meta->create_file("/f", kChunk), QfsError);
  EXPECT_THROW(bed.meta->complete_chunk("/f", 12345, 1), QfsError);
}

}  // namespace
}  // namespace vread::qfs
