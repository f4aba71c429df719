// Cluster driver: assembles the simulated rack (network, storage engines,
// optional directory, computation engines), ingests the input edge list,
// runs the computation to completion and extracts results + metrics.
// It compiles once (cluster.cc) and sees the program only through its
// ProgramKernel (program_kernel.h); its one template wraps a GAS program.
#ifndef CHAOS_CORE_CLUSTER_H_
#define CHAOS_CORE_CLUSTER_H_

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/buffer_pool.h"
#include "core/engine_core.h"
#include "core/gas_kernel.h"
#include "core/job_spec.h"
#include "core/mutation_feed.h"
#include "core/record_arena.h"
#include "graph/types.h"

namespace chaos {

struct RunResult {
  RunMetrics metrics;
  std::vector<double> values;    // prog.Extract() per vertex
  double scalar = 0.0;           // ProgramScalar (gas.h) of the final global and outputs
  uint64_t output_records = 0;   // program outputs, e.g. MSF edges
  std::vector<uint8_t> outputs;  // those records, output_record_bytes() each
  bool crashed = false;
  uint64_t supersteps = 0;
  // Recovery bookkeeping (committed checkpoint, §6.6).
  bool has_checkpoint = false;
  std::vector<uint8_t> checkpoint_global;  // the program's GlobalState, as a blob
  uint64_t checkpoint_superstep = 0;
  SetKind checkpoint_side = SetKind::kCheckpointA;
  // Evolving graphs: the edge side (kEdges/kEdgesB) live at that checkpoint
  // and the number of mutation epochs durably baked into it.
  SetKind checkpoint_edges_kind = SetKind::kEdges;
  uint64_t checkpoint_epoch = 0;
};

class Cluster {
 public:
  // `program` is a program's kernel (GasKernel<P>(prog)); it makes the
  // machine kernels of every run of this cluster.
  Cluster(ClusterConfig config, std::shared_ptr<const ProgramKernel> program);

  template <GasProgram P>
  Cluster(ClusterConfig config, P prog)
      : Cluster(std::move(config), std::make_shared<GasKernel<P>>(std::move(prog))) {}
  ~Cluster();

  // Runs from an input edge list (includes pre-processing, as all paper
  // results do): the list is ingested as one batch.
  RunResult Run(const InputGraph& input) {
    return RunStreaming(input.num_vertices, input.weighted,
                        [&input](const BatchSink& sink) { sink(input.edges); });
  }

  // Streaming variant of Run(): the edge list arrives in generator-supplied
  // batches instead of a materialized InputGraph, so host memory is bounded
  // by one batch plus the simulated chunks. `feed` is called once with a
  // sink; it pushes every batch through the sink and returns. Chunking and
  // placement are identical to Run() on the concatenated batches.
  using BatchSink = std::function<void(const std::vector<Edge>&)>;
  RunResult RunStreaming(uint64_t num_vertices, bool weighted,
                         const std::function<void(const BatchSink&)>& feed);

  // Restarts a stopped run (a crash, or a preemption at a scripted barrier)
  // on this fresh cluster from the checkpoint `stopped` committed on
  // `donor`, the cluster that ran it with the same program (an evolving job
  // attaches its feed first). Imports the edge side live at the checkpoint
  // as kEdges, the checkpoint side as the vertex sets, and the side's
  // commit-time update snapshot (gather-phase emissions the resumed scatter
  // cannot regenerate) under the update-set kind the first resumed gather
  // scans. At the same machine count chunk homes are stable, so sets copy
  // across position for position; otherwise they are re-partitioned. A
  // crash mid-apply leaves partial chunks on an evolving run's in-flight
  // edge side; they are never imported. The result's outputs begin with the
  // ones the donor's chain committed before the checkpoint.
  RunResult Resume(Cluster& donor, const RunResult& stopped, const GraphMeta& meta);

  // Evolving graphs: attaches the shared mutation feed the coordinator
  // consults at every convergence barrier (core/mutation_feed.h). Must be
  // called before Run/Resume; the feed outlives the run.
  void AttachMutations(MutationFeed* feed) { mutations_ = feed; }

  // Host-side storage access (setup, inspection, checkpoint export/import).
  StorageEngine* storage(MachineId m) { return storage_[static_cast<size_t>(m)].get(); }
  const Partitioning& partitioning() const {
    CHAOS_CHECK(parts_ != nullptr);
    return *parts_;
  }
  const ClusterConfig& config() const { return config_; }

  // Computes the partitioning for `n` vertices under this configuration
  // (needed before ImportRepartitioned; Resume calls it itself).
  const Partitioning& PreparePartitioning(uint64_t n);

  // Host-side: reassembles the full per-vertex state array from an indexed
  // vertex/checkpoint set of this cluster (the inverse of WriteVertexSet)
  // into `out`, num_vertices records of vertex_state_bytes() each. Returns
  // false if any chunk is missing — only possible for a run that crashed
  // before vertex-set initialization completed.
  bool TryHostReadStates(SetKind kind, void* out) const;

  // Typed: `T` is the program's VertexState.
  template <typename T>
  void HostReadStates(SetKind kind, std::vector<T>* out) const {
    CHAOS_CHECK_EQ(sizeof(T), program_->vertex_state_bytes());
    out->assign(partitioning().num_vertices(), T{});
    CHAOS_CHECK_MSG(TryHostReadStates(kind, out->data()),
                    "missing vertex chunks in " + std::string(SetKindName(kind)) + " set");
  }

  // Re-imports the durable state of a crashed cluster whose machine count
  // differs from ours (rescaled recovery, e.g. N-1 survivors): vertex states
  // are reassembled from `vertex_source` (the committed checkpoint side)
  // under the old partitioning, then re-chunked under THIS cluster's
  // partitioning and placed at their new hashed homes; edges are re-binned
  // by the new vertex ranges, and the checkpoint's update-set snapshot
  // (`updates_source`, when given) is re-binned by the new partition of
  // each record's destination vertex and relabeled `updates_as`. Call
  // PreparePartitioning first. Also valid for equal machine counts, where
  // ImportSets is the cheaper path. `edges_source` selects which edge side
  // of the crashed cluster to drain (an evolving run's committed side may
  // be kEdgesB); the imported copy is always relabeled kEdges, the side a
  // fresh cluster reads first.
  void ImportRepartitioned(Cluster& from, SetKind vertex_source, const GraphMeta& meta,
                           std::optional<SetKind> updates_source = std::nullopt,
                           SetKind updates_as = SetKind::kUpdatesEven,
                           SetKind edges_source = SetKind::kEdges);

 private:
  void ImportSets(Cluster& from, SetKind kind, SetKind as);
  void Rebin(Cluster& from, SetKind source, SetKind as, ChunkLayout layout,
             uint64_t record_wire_bytes, Rng* rng);
  void IngestInput(uint64_t num_vertices, uint64_t edge_wire_bytes,
                   const std::function<void(const BatchSink&)>& feed);
  RunResult Execute(const GraphMeta& meta, const std::vector<uint8_t>& initial_global,
                    std::optional<uint64_t> resume_superstep);
  Task<> Supervise();

  ClusterConfig config_;
  std::shared_ptr<const ProgramKernel> program_;
  Simulator sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<MessageBus> bus_;
  std::vector<std::unique_ptr<StorageEngine>> storage_;
  std::vector<std::unique_ptr<BufferPool>> pools_;
  std::vector<std::unique_ptr<RecordArena>> arenas_;
  std::unique_ptr<DirectoryServer> directory_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<Partitioning> parts_;
  MutationFeed* mutations_ = nullptr;
  // Output records a restart carried over from the run it replaces (Resume).
  std::vector<uint8_t> resumed_outputs_;
  // Per machine: the program's kernel for that machine (typed per-edge /
  // per-update / per-vertex loops and results) and the untemplated core
  // that drives it. The core holds a pointer to its kernel, so both live
  // behind stable addresses.
  std::vector<std::unique_ptr<ProgramKernel>> kernels_;
  std::vector<std::unique_ptr<EngineCore>> cores_;
  std::vector<MachineMetrics> machine_metrics_;
  TimeNs finish_time_ = 0;
};

// One job as a chain of cluster runs ("slices"), driven by RunJob, machine
// failure recovery and scheduler preemption. Each slice builds a fresh
// Cluster over the job's program kernel, attaches an evolving job's
// mutation controller at the epoch its starting state holds, and runs from
// the input or resumes from the checkpoint the previous slice committed on
// its cluster (the donor, freed once the next slice has run). A slice ends
// in one of three ways:
//
//  * Complete. Without spec.recover, a run a machine failure aborted is
//    final too: the crashed run is the result.
//  * Stopped by the scheduler (preemption): a scripted crash at the stop
//    barrier, with the one checkpoint commit covering every superstep the
//    slice completed, so the resume loses none and the values stay bitwise
//    equal to an unpreempted run's (tests/scheduler_test.cc).
//  * Aborted by a machine failure, for a spec.recover job (paper §6.6): the
//    next slice runs on a healthy replacement cluster (same size, or
//    spec.recovery.replacement_machines with repartitioned vertex ranges)
//    from the last committed checkpoint, or from the input when none had
//    committed. Storage is durable, so the donor's sets are re-imported
//    host-side. One failure per run: the replacement cluster is healthy.
class JobExecution {
 public:
  // Binds an evolving job's controller to a slice's cluster at an epoch.
  using AttachMutationsFn = std::function<void(Cluster*, uint64_t epoch)>;

  JobExecution(JobSpec spec, std::shared_ptr<const ProgramKernel> program,
               AttachMutationsFn attach = nullptr);

  const JobSpec& spec() const { return spec_; }

  // First superstep the next slice will execute (0 before the first slice;
  // the committed checkpoint superstep after a preemption or a failure).
  uint64_t next_superstep() const { return stopped_.checkpoint_superstep; }

  // Runs the job from its current resume point until it completes or until
  // the scripted preemption point `stop_after_superstep` (an absolute
  // superstep index, > next_superstep(); < 0 = run to completion). A
  // preempted slice commits a checkpoint at stop_after_superstep so the next
  // slice resumes with zero completed supersteps lost. A machine failure
  // stops a JobSpec::recover job's slice too, once.
  SliceResult RunSlice(int64_t stop_after_superstep);

  // After a slice returned completed = true: the finished result.
  AlgoResult TakeResult();

 private:
  void FinishRecoveryReport(const RunMetrics& metrics);

  JobSpec spec_;
  std::shared_ptr<const ProgramKernel> program_;
  AttachMutationsFn attach_;  // null for static jobs
  ClusterConfig config_;  // the next slice's: the spec's, or the replacement's
  std::unique_ptr<Cluster> cluster_;  // previous slice = next slice's donor
  RunResult stopped_;  // the previous slice's committed checkpoint, if any
  RecoveryReport recovery_;  // filled for spec.recover jobs only
  bool died_in_preprocess_ = false;
  bool done_ = false;
  AlgoResult result_;
};

}  // namespace chaos

#endif  // CHAOS_CORE_CLUSTER_H_
