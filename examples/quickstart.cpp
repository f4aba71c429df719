// Quickstart: run PageRank on a simulated 4-machine Chaos cluster.
//
//   build/examples/quickstart [--scale N] [--machines M]
//
// Demonstrates the core public API: generate (or load) an edge list, size a
// cluster with ClusterConfig, hand a GAS program to a Cluster (which runs it
// through its GasKernel) and read results + run metrics.
#include <cstdio>
#include <numeric>

#include "algorithms/basic.h"
#include "core/cluster.h"
#include "graph/generators.h"
#include "util/options.h"
#include "util/stats.h"

using namespace chaos;

int main(int argc, char** argv) {
  Options opt;
  opt.AddInt("scale", 12, "RMAT scale: 2^scale vertices, 16x edges");
  opt.AddInt("machines", 4, "simulated machines");
  opt.AddInt("iterations", 5, "PageRank iterations");
  if (auto err = opt.Parse(argc - 1, argv + 1); err || opt.help_requested()) {
    if (err) {
      std::fprintf(stderr, "error: %s\n", err->c_str());
    }
    opt.PrintHelp(argv[0]);
    return err ? 1 : 0;
  }

  // 1. An unsorted edge list is all Chaos needs (paper §3: partitioning for
  //    sequentiality is the only pre-processing).
  RmatOptions graph_opt;
  graph_opt.scale = static_cast<uint32_t>(opt.GetInt("scale"));
  graph_opt.seed = 42;
  InputGraph graph = GenerateRmat(graph_opt);
  std::printf("graph: %llu vertices, %llu edges (%s on storage)\n",
              static_cast<unsigned long long>(graph.num_vertices),
              static_cast<unsigned long long>(graph.num_edges()),
              FormatBytes(graph.input_wire_bytes()).c_str());

  // 2. Describe the cluster: machine count, per-machine memory for vertex
  //    state, chunk size, device/network profiles.
  ClusterConfig config;
  config.machines = static_cast<int>(opt.GetInt("machines"));
  config.memory_budget_bytes = graph.num_vertices * 12;  // force several partitions
  config.chunk_bytes = 64 << 10;
  config.storage = StorageConfig::Ssd();
  config.net = NetworkConfig::FortyGigE();

  // 3. Run the GAS program.
  Cluster cluster(config, PageRankProgram(static_cast<uint32_t>(opt.GetInt("iterations"))));
  RunResult result = cluster.Run(graph);

  // 4. Results: highest-ranked vertices.
  std::vector<VertexId> order(graph.num_vertices);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::partial_sort(order.begin(), order.begin() + 10, order.end(),
                    [&](VertexId a, VertexId b) { return result.values[a] > result.values[b]; });
  std::printf("\ntop 10 vertices by PageRank:\n");
  for (int i = 0; i < 10; ++i) {
    std::printf("  #%2d vertex %8llu  rank %.3f\n", i + 1,
                static_cast<unsigned long long>(order[static_cast<size_t>(i)]),
                result.values[order[static_cast<size_t>(i)]]);
  }

  // 5. Metrics: simulated runtime, I/O and the Fig. 17-style breakdown.
  std::printf("\n%s", result.metrics.Summary().c_str());
  std::printf("partitions: %u (%u per machine)\n", cluster.partitioning().num_partitions(),
              cluster.partitioning().partitions_per_machine());
  return 0;
}
