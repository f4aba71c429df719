// Single-machine X-Stream baseline (Roy et al., SOSP 2013): edge-centric
// scatter-gather over streaming partitions, reading and writing one local
// storage device directly (no client-server storage protocol, no network).
//
// Used by bench_table1 to reproduce the paper's Table 1 comparison: Chaos on
// one machine is architecturally X-Stream plus the chunk-server indirection,
// so the two runtimes should be close, with Chaos paying the messaging
// overhead (paper §8). To keep that the only difference, X-Stream shares
// Chaos's per-record code and chunking: it sees the program only through
// ProgramKernel (one machine kernel does every scatter, gather and apply),
// and RecordBinner cuts its edge and update chunks at RecordsPerChunk.
#ifndef CHAOS_BASELINES_XSTREAM_H_
#define CHAOS_BASELINES_XSTREAM_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/gas.h"
#include "core/gas_kernel.h"
#include "core/program_kernel.h"
#include "graph/types.h"
#include "sim/time.h"

namespace chaos {

struct XStreamResult {
  std::vector<double> values;  // Extract() of every vertex
  double scalar = 0.0;         // ProgramScalar (gas.h)
  uint64_t output_records = 0;
  uint64_t supersteps = 0;
  TimeNs total_time = 0;
  TimeNs preprocess_time = 0;
  uint64_t bytes_read = 0;
  double device_utilization = 0.0;
};

class XStreamEngine {
 public:
  // X-Stream reads the memory budget (its partitioning), chunk_bytes,
  // fetch_window (device requests in flight while streaming a set), storage
  // and cost of `config`; the cluster fields go unused. `program` is a
  // program's kernel (GasKernel<P>(prog)).
  XStreamEngine(ClusterConfig config, std::shared_ptr<const ProgramKernel> program)
      : config_(std::move(config)), program_(std::move(program)) {}

  template <GasProgram P>
  XStreamEngine(ClusterConfig config, P prog)
      : XStreamEngine(std::move(config), std::make_shared<GasKernel<P>>(std::move(prog))) {}

  // Pre-processes `input` and runs the program to its fixed point.
  XStreamResult Run(const InputGraph& input) const;

 private:
  ClusterConfig config_;
  std::shared_ptr<const ProgramKernel> program_;
};

}  // namespace chaos

#endif  // CHAOS_BASELINES_XSTREAM_H_
