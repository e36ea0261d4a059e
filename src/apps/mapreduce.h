// Miniature MapReduce over the simulated cluster: one map task per HDFS
// block (reading its split through DfsInputStream — vRead-accelerated when
// installed), an in-memory shuffle, reducers that merge partitions, and
// job output written back to HDFS through the replication pipeline.
//
// The job computes a byte-value histogram of the input, which makes the
// whole pipeline end-to-end verifiable: the result must equal a direct
// scan of the deterministic input payload, on every read path.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "apps/cluster.h"
#include "hdfs/dfs_client.h"
#include "mem/buffer.h"

namespace vread::apps {

struct MapReduceResult {
  std::array<std::uint64_t, 256> histogram{};
  std::uint64_t input_bytes = 0;
  std::uint64_t map_tasks = 0;
  sim::SimTime elapsed = 0;
  double cpu_time_ms = 0.0;

  std::uint64_t total_count() const {
    std::uint64_t sum = 0;
    for (std::uint64_t v : histogram) sum += v;
    return sum;
  }
};

class MapReduceJob {
 public:
  struct Config {
    std::string input;        // HDFS file to process
    std::string output;       // HDFS path for the serialized result
    int reducers = 2;         // partitions (byte value % reducers)
  };

  // Runs the job in `client_vm` and reports the merged histogram.
  static sim::Task run(Cluster& cluster, std::string client_vm, Config config,
                       MapReduceResult& out);

  // Ground truth for a deterministic payload (seed, size): what the job
  // must produce.
  static std::array<std::uint64_t, 256> expected_histogram(std::uint64_t seed,
                                                           std::uint64_t bytes) {
    std::array<std::uint64_t, 256> h{};
    for (std::uint64_t i = 0; i < bytes; ++i) ++h[mem::Buffer::byte_at(seed, i)];
    return h;
  }
};

}  // namespace vread::apps
