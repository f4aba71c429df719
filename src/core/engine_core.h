// EngineCore: the untemplated engine of the Chaos computation loop
// (paper §5). One per machine. Owns every piece of control flow that used
// to live in the 1,000-line ComputeEngine<Program> template — the main
// superstep FSM, pre-processing, vertex-set load/store, randomized work
// stealing, the control server, the barrier protocol and the 2-phase
// checkpoint FSM — and compiles exactly once. Typed per-edge/per-update
// work is delegated at chunk granularity to a ProgramKernel
// (program_kernel.h / gas_kernel.h); data moves as type-erased RecordBatch
// buffers and Chunk payloads.
//
// The streaming phases themselves are driven by the ScatterPhase and
// GatherPhase drivers (scatter_phase.h, gather_phase.h); the barrier and
// checkpoint FSMs live in barrier_fsm.cc. The cluster driver (cluster.h)
// builds one core per machine over that machine's GasKernel<P>, which keeps
// the per-edge/per-update/per-vertex loops typed and inlined and holds the
// program's results (global state, outputs).
//
// Per superstep:
//   scatter phase:  own partitions, then steal (Fig. 4, lines 23-33)
//   barrier
//   gather phase:   own partitions (gather + accumulator pull + merge +
//                   apply + vertex write-back + update-set delete), then
//                   steal (lines 35-53)
//   barrier with global-state reduction (aggregator) and convergence check
//
// Machine 0 additionally runs the barrier coordinator; every machine runs a
// control server answering steal proposals and accumulator pulls while its
// main loop is busy streaming.
//
// Memory: every vertex-state / accumulator batch this core loads acquires
// pages from the machine's BufferPool (core/buffer_pool.h); batches are
// Touch()-ed per streamed chunk so evicted pages fault back in as simulated
// I/O — the mechanism behind graceful degradation under memory pressure.
#ifndef CHAOS_CORE_ENGINE_CORE_H_
#define CHAOS_CORE_ENGINE_CORE_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/buffer_pool.h"
#include "core/chunk_io.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/partition.h"
#include "core/program_kernel.h"
#include "core/record_batch.h"
#include "core/record_binner.h"
#include "net/wire.h"
#include "sim/sync.h"
#include "storage/storage_engine.h"
#include "util/rng.h"

namespace chaos {

// Scoped simulated-time accounting into a metrics bucket. Safe across
// co_await: locals live in the coroutine frame.
class BucketTimer {
 public:
  BucketTimer(Simulator* sim, MachineMetrics* metrics, Bucket bucket)
      : sim_(sim), metrics_(metrics), bucket_(bucket), start_(sim->now()) {}
  ~BucketTimer() { Stop(); }
  BucketTimer(const BucketTimer&) = delete;
  BucketTimer& operator=(const BucketTimer&) = delete;

  void Stop() {
    if (!stopped_) {
      stopped_ = true;
      metrics_->Add(bucket_, sim_->now() - start_);
    }
  }

 private:
  Simulator* sim_;
  MachineMetrics* metrics_;
  Bucket bucket_;
  TimeNs start_;
  bool stopped_ = false;
};

// A loaded type-erased batch plus the buffer-pool lease backing its pages.
struct PooledBatch {
  RecordBatch batch;
  BufferPool::Lease lease;
};

// What a coordinator release told this engine to do next (net/wire.h,
// BarrierReleaseMsg): finish, abort, or run the apply-mutations stage and
// keep going (evolving graphs — `done` and `mutate` are mutually exclusive).
struct BarrierOutcome {
  bool done = false;
  bool crash = false;
  bool mutate = false;
};

class EngineCore {
 public:
  // `resume_superstep` set: skip pre-processing and start at that absolute
  // superstep over vertex and edge sets already imported into storage from
  // a committed checkpoint (Cluster::Resume).
  EngineCore(EngineContext ctx, ProgramKernel* kernel, GraphMeta meta,
             const Partitioning* parts, MachineMetrics* metrics,
             std::optional<uint64_t> resume_superstep);

  // Spawns the main loop, the control server, and (machine 0) the barrier
  // coordinator.
  void Start();

  bool finished() const { return finished_; }
  bool crashed() const { return crashed_; }
  uint64_t supersteps_run() const { return superstep_; }
  // Bytes of the kernel's outputs emitted by supersteps that completed
  // their gather barrier before absolute superstep `superstep`. Recovery
  // uses this to carry a crashed run's already-committed output stream
  // (e.g. MSF edges) across the restart: the aborted superstep's partial
  // emissions fall after the last mark and are excluded.
  size_t OutputBytesBefore(uint64_t superstep) const;
  TimeNs preprocess_end_time() const { return preprocess_end_time_; }
  // Coordinator-side (machine 0): sim time at the end of each completed
  // superstep, indexed from the first superstep this run executed. Recovery
  // reads this to measure the time to re-reach the point of failure.
  const std::vector<TimeNs>& superstep_end_times() const { return superstep_end_times_; }
  // Superstep captured at the last committed checkpoint (the committed
  // global state itself is held typed by the kernel).
  uint64_t checkpointed_superstep() const { return checkpointed_superstep_; }
  bool has_checkpoint() const { return has_checkpoint_; }
  // Latest committed checkpoint side (for recovery imports).
  SetKind committed_checkpoint_side() const {
    CHAOS_CHECK(has_checkpoint_);
    return checkpoint_counter_ % 2 == 1 ? SetKind::kCheckpointA : SetKind::kCheckpointB;
  }
  // Edge side live at the last committed checkpoint (kEdges/kEdgesB): an
  // evolving run alternates edge sides per applied mutation batch, so a
  // recovery driver must import THIS side, not unconditionally kEdges.
  SetKind checkpoint_edges_kind() const { return checkpoint_edges_kind_; }
  // Mutation epochs durably applied at the last committed checkpoint: the
  // recovery driver restarts the MutationFeed here and replays the rest.
  uint64_t checkpoint_epoch() const { return checkpoint_epoch_; }
  // One record per mutation epoch this engine committed (machine 0 only).
  const std::vector<MutationEpochRecord>& mutation_records() const {
    return mutation_records_;
  }

 private:
  friend class ScatterPhase;
  friend class GatherPhase;

  struct PartStatus {
    enum class S { kPending, kActive, kClosed };
    S s = S::kPending;
    int workers = 0;
    std::vector<MachineId> gather_stealers;
  };

  // True once a MachineCrash fault has killed this machine. The engine
  // polls this at loop boundaries: streams are abandoned, new stealing
  // stops, and the next barrier arrival is flagged `failed`, which makes
  // the coordinator abort the run cluster-wide. Protocol handshakes that
  // peers are already blocked on (accumulator pulls, parked replicas)
  // still complete so the simulation drains — the *work* dies, the wires
  // stay up just long enough to tear down.
  bool Dead() const { return ctx_.faults != nullptr && ctx_.faults->dead(ctx_.machine); }

  // ----- epochs: every distinct sequential scan gets a unique epoch id.
  uint64_t ScatterEpoch() const { return 3 + 2 * superstep_; }
  uint64_t GatherEpoch() const { return 4 + 2 * superstep_; }
  // Commit-time update-snapshot scans use a disjoint range so they never
  // collide with a phase scan of the same set.
  uint64_t CheckpointScanEpoch() const { return (1ull << 40) + superstep_; }
  // Apply-mutations edge re-scan: its own disjoint range (one per superstep;
  // at most one mutation batch applies per convergence barrier).
  uint64_t MutateScanEpoch() const { return (1ull << 41) + superstep_; }
  static constexpr uint64_t kInputEpoch = 1;
  static constexpr uint64_t kDegreesEpoch = 2;

  uint64_t VertsPerChunk() const {
    return VertexChunkCapacity(ctx_.config->chunk_bytes, kernel_->vertex_state_bytes());
  }

  // The edge side currently being read. An evolving run's apply-mutations
  // stage writes the post-batch edge set to the OTHER side, commits, then
  // flips this parity and deletes the old side — so every scatter (and
  // steal D-estimate) automatically follows the committed side.
  SetKind EdgesKind() const {
    return edges_flips_ % 2 == 0 ? SetKind::kEdges : SetKind::kEdgesB;
  }
  SetId EdgesSet(PartitionId p) const { return SetId{p, EdgesKind()}; }
  SetId UpdatesSet(PartitionId p, uint64_t superstep) const {
    return SetId{p, UpdatesFor(superstep)};
  }
  MachineId LocalMasterTarget(MachineId master) const {
    return ctx_.config->placement == Placement::kLocalMaster ? master : kNoMachine;
  }

  // ------------------------------------------------------------- main loop
  Task<> Main();

  // --------------------------------------------------------- preprocessing
  // Streaming partition creation (§3): drain the shared input-chunk pool,
  // bin edges by partition of their source, count out-degrees (combiner),
  // then initialize and store the vertex sets of owned partitions.
  Task<> Preprocess();
  Task<> WriteVertexSetFromInit(PartitionId p, const std::vector<uint32_t>& degrees,
                                ChunkWriter* writer);

  // --------------------------------------------------- vertex set load/store
  // Admits `count` records of `record_bytes` through the buffer pool (when
  // there is one), then takes the batch from the record arena.
  Task<PooledBatch> AllocBatch(uint64_t record_bytes, uint64_t count);
  // Acquires pool pages for the partition's vertex states and fills the
  // batch from the indexed vertex chunks at their hashed homes (§6.4).
  Task<PooledBatch> LoadVertexSet(PartitionId p);
  Task<> LoadVertexChunk(PartitionId p, uint64_t idx, RecordBatch* out, Semaphore* window);
  // Write-back: borrows chunk-sized ranges of the batch zero-copy.
  Task<> WriteVertexSet(PartitionId p, const RecordBatch& states, SetKind kind,
                        ChunkWriter* writer);
  // Faults a batch's evicted pages back in (no-op without a pool).
  Task<> TouchBatch(const PooledBatch& b);

  // ------------------------------------------------------------- stealing
  void ResetOwnStatuses();
  void OnMasterStartsPartition(PartitionId p);
  void OnMasterFinishesPartition(PartitionId p);
  // The steal decision (§5.4): accept iff V + D/(H+1) < alpha * D/H
  // (StealAccept in steal_policy.h), with D estimated as (local remaining
  // bytes) * machines.
  bool StealDecision(PartitionId p, EnginePhase phase);
  // Randomized proposal sweep (§5.3) under the configured StealMode:
  // per-victim-machine proposals in StealVictimOrder over a permutation
  // drawn from the dedicated steal RNG (so steal traffic never perturbs
  // placement draws); adaptive adds task-indicator skips, exponential
  // backoff after dry sweeps with a quiescence exit, and steal-half
  // escalation.
  // `work` streams one stolen partition in the current phase (supplied by
  // the phase driver). Taken by value: coroutine parameters are copied into
  // the frame, so the callable safely outlives every suspension.
  Task<> StealLoop(EnginePhase phase, std::function<Task<>(PartitionId)> work);

  // ------------------------------------------------------- control server
  Task<> ControlServer();
  // Grant logic + reply for one queued steal proposal. Synchronous: the
  // per-message CPU charge is the caller's — ControlServer charges one
  // MessageTime() per popped message.
  void HandleHelpProposal(const Message& m);
  Task<> HandleAccumPull(Message m);
  // Stolen-gather replica handshake (Fig. 4 line 52).
  void ParkStolenAccums(PartitionId p, Chunk accums);
  Task<> WaitStolenAccumsTaken(PartitionId p);

  // ------------------------------------------------------------- barriers
  // Returns the coordinator's release verdict.
  Task<BarrierOutcome> Barrier(bool advance);
  // Coordinator (machine 0): collects all machines' arrivals, folds
  // aggregator blobs through the kernel, runs Advance at gather barriers,
  // and releases everyone with the new canonical global.
  Task<> BarrierService();

  // ----------------------------------------------------------- checkpoint
  SetKind CheckpointSide() const {
    return checkpoint_counter_ % 2 == 0 ? SetKind::kCheckpointA : SetKind::kCheckpointB;
  }
  // True when the gather phase of this superstep must write the hot
  // checkpoint copy (2-phase step 1, §6.6).
  bool CheckpointCopyDue() const {
    return ctx_.config->checkpoint_interval > 0 && !Dead() &&
           (superstep_ + 1) % ctx_.config->checkpoint_interval == 0;
  }
  // 2-phase commit: all checkpoint data is durable (written during gather)
  // before the commit barrier; the previous side is deleted only afterwards.
  Task<> CommitCheckpoint();

  // ------------------------------------------------------------ mutations
  // Evolving graphs: applies the MutationFeed's planned delta. Streams the
  // current edge side of every owned partition (the read cost of finding
  // survivors), writes the post-batch edge set to the other side and the
  // reseeded vertex states over kVertices (+ the hot checkpoint copy when
  // checkpointing is on), commits at a barrier, flips the edge side, forces
  // a checkpoint commit, and only then deletes the old side — a crash at
  // any point leaves either the pre-batch or the post-batch state fully
  // intact (barrier_fsm.cc).
  Task<> ApplyMutationStage();
  Task<> WriteSeedStates(PartitionId p, ChunkWriter* writer);

  EngineContext ctx_;
  ProgramKernel* kernel_;
  GraphMeta meta_;
  const Partitioning* parts_;
  MachineMetrics* metrics_;
  Rng rng_;
  // Victim-selection stream, seeded via DeriveSeed from (config seed,
  // machine) — bitwise independent of --jobs and of the placement RNG.
  Rng steal_rng_;
  // Master-side grant cursor: successive granted proposals start their
  // own-partition sweep one slot later, spreading helpers across distinct
  // partitions instead of piling every helper onto the first open one.
  size_t grant_cursor_ = 0;

  uint64_t changed_ = 0;
  uint64_t superstep_ = 0;
  uint64_t start_superstep_ = 0;
  uint64_t next_phase_id_ = 0;
  EnginePhase phase_ = EnginePhase::kScatter;

  std::vector<PartitionId> own_partitions_;
  std::unordered_map<PartitionId, PartStatus> own_status_;

  std::unordered_map<PartitionId, Chunk> stolen_accums_;
  CondEvent stolen_ready_;
  CondEvent stolen_taken_;

  std::vector<size_t> output_marks_;  // kernel output bytes per completed superstep
  uint64_t checkpoint_counter_ = 0;
  uint64_t checkpointed_superstep_ = 0;
  bool has_checkpoint_ = false;
  // Evolving graphs: committed edge-side flips (parity picks kEdges/kEdgesB),
  // the edge side + mutation epoch captured at the last committed
  // checkpoint, and the per-epoch records (machine 0).
  uint64_t edges_flips_ = 0;
  SetKind checkpoint_edges_kind_ = SetKind::kEdges;
  uint64_t checkpoint_epoch_ = 0;
  std::vector<MutationEpochRecord> mutation_records_;
  TimeNs preprocess_end_time_ = 0;
  std::vector<TimeNs> superstep_end_times_;  // machine 0 only (coordinator)
  bool finished_ = false;
  bool crashed_ = false;
  bool aborted_ = false;  // a barrier released with crash: unwind, no more arrivals
  const std::optional<uint64_t> resume_superstep_;  // set: skip pre-processing
};

}  // namespace chaos

#endif  // CHAOS_CORE_ENGINE_CORE_H_
