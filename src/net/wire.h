// The cluster's wire protocol: every message type and the typed body it
// carries. Message::body (net/network.h) is the closed MessageBody variant
// below, read through the checked accessor Message::As<T>().
//
// Three services speak it (section / figure references are to the Chaos
// paper; "Fig. 4" line numbers are the paper's pseudocode listing of the
// engine loop, which src/core/engine_core.h mirrors):
//
//   Storage engine (storage/storage_engine.h, §6): sequential chunk reads
//   drained once per epoch, indexed vertex-chunk reads, chunk writes and
//   set deletion.
//
//   Central directory (storage/directory.h): the placement service of the
//   baseline design Chaos argues against (§10.1, Fig. 15).
//
//   Compute engine to compute engine (core/engine_core.h):
//   kHelpProposalReq/Resp  work stealing (§5.3-§5.4, Fig. 4 lines 23-33 for
//                          scatter, 46-53 for gather): an idle engine
//                          proposes to help a VICTIM MACHINE; the victim
//                          grants partitions it masters, each admitted iff
//                          V + D/(H+1) < alpha * D/H (§5.4). The request
//                          carries an amount hint (steal-half vs steal-one,
//                          core/steal_policy.h) and the response carries a
//                          task-indicator hint ("I still have open work")
//                          so helpers can skip drained victims — one
//                          round-trip per victim per sweep instead of one
//                          per partition, which is what keeps the request
//                          storm linear at 32-128 machines. With
//                          steal_combine on, proposals from one steal
//                          domain queued together at a victim are modeled
//                          as ONE merged control message (amount = sum of
//                          the members' asks): the victim pays a single
//                          per-message MessageTime() charge per co-domain
//                          run, while every member still receives its own
//                          grant decision and response (engine_core.cc
//                          ControlServer; pure math in steal_policy.h
//                          CombinedProposalCharges).
//   kAccumPullReq/Resp     gather-phase accumulator reconciliation (§5.3,
//                          Fig. 4 line 52): the master pulls each stealer's
//                          replica accumulator array and merges it before
//                          apply; the stealer parks its replica until taken.
//   kBarrierArrive/Release the end-of-phase global barrier (§4, §5.2): the
//                          coordinator (machine 0) folds every machine's
//                          aggregator delta into the global state, runs the
//                          program's Advance, and releases everyone with the
//                          canonical global for the next phase. Arrivals
//                          double as the failure detector (§6.6): an engine
//                          on a fault-killed machine flags its arrival
//                          (`failed`), and the coordinator aborts the
//                          superstep cluster-wide by releasing with `crash`.
//                          A release can also signal the scripted
//                          whole-cluster crash of the checkpoint-recovery
//                          experiments (§6.6/Fig. 13).
//   kControlShutdown       simulation teardown, no paper counterpart.
//
// The header depends on storage/chunk.h alone (chunks and set ids travel in
// bodies), so the network layer needs nothing from storage/ or core/.
#ifndef CHAOS_NET_WIRE_H_
#define CHAOS_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "storage/chunk.h"
#include "util/common.h"

namespace chaos {

enum MessageType : uint32_t {
  // Storage engine.
  kReadChunkReq = 100,     // body: ReadChunkReq  -> kReadChunkResp
  kReadChunkResp = 101,    // body: ReadChunkResp
  kWriteChunkReq = 102,    // body: WriteChunkReq -> kWriteAck
  kWriteAck = 103,         // no body
  kReadIndexedReq = 104,   // body: ReadIndexedReq -> kReadChunkResp
  kDeleteSetReq = 105,     // body: DeleteSetReq  -> kDeleteAck
  kDeleteAck = 106,        // no body
  kStorageShutdown = 107,  // no body
  // Central directory.
  kDirAllocReq = 200,    // body: DirAllocReq  -> kDirAllocResp
  kDirAllocResp = 201,   // body: DirAllocResp
  kDirNextReq = 202,     // body: DirNextReq   -> kDirNextResp
  kDirNextResp = 203,    // body: DirNextResp
  kDirForgetReq = 204,   // body: DirForgetReq -> kDirForgetResp
  kDirForgetResp = 205,  // no body
  kDirShutdown = 206,    // no body
  // Compute engine to compute engine.
  kHelpProposalReq = 300,   // body: HelpProposalReq -> kHelpProposalResp
  kHelpProposalResp = 301,  // body: HelpProposalResp
  kAccumPullReq = 302,      // body: AccumPullReq -> kAccumPullResp
  kAccumPullResp = 303,     // body: AccumPullResp
  kBarrierArrive = 304,     // body: BarrierArriveMsg -> kBarrierRelease
  kBarrierRelease = 305,    // body: BarrierReleaseMsg
  kControlShutdown = 306,   // no body
};

// Modeled wire size of a bare request/ack message.
constexpr uint64_t kControlMsgBytes = 64;

// ---------------------------------------------------------------- storage

struct ReadChunkReq {
  SetId set;
  uint64_t epoch = 0;
  // Keep consume-once payloads (update sets) resident after serving: set by
  // checkpoint snapshot scans, which read the set a later gather must still
  // be able to drain.
  bool preserve_payload = false;
};

struct ReadChunkResp {
  bool ok = false;
  Chunk chunk;
};

struct WriteChunkReq {
  SetId set;
  Chunk chunk;
};

struct ReadIndexedReq {
  SetId set;
  uint64_t index = 0;
  // When true the read counts against the epoch's served bytes (and frees
  // consume-once payloads), so the D estimate works in directory mode too.
  bool consume = false;
  uint64_t epoch = 0;
};

struct DeleteSetReq {
  SetId set;
};

// -------------------------------------------------------------- directory

struct DirAllocReq {
  SetId set;
};

struct DirAllocResp {
  MachineId engine = kNoMachine;
  uint64_t index = 0;  // directory-assigned, globally unique within the set
};

struct DirNextReq {
  SetId set;
  uint64_t epoch = 0;
};

struct DirNextResp {
  bool ok = false;
  MachineId engine = kNoMachine;
  uint64_t index = 0;
};

struct DirForgetReq {
  SetId set;
};

// ---------------------------------------------------------------- compute

// The two streaming phases of a superstep (§4). Steal proposals carry the
// proposer's phase so a master never hands out work for a phase it has
// already left (the proposal is then rejected, Fig. 4 line 27).
enum class EnginePhase : uint8_t {
  kScatter = 0,
  kGather = 1,
};

// "May I help you?" (Fig. 4 lines 24-26), sent by an engine that has
// finished its own partitions to a victim machine chosen in a seeded random
// sweep order (§5.3: randomized stealing needs no load information;
// EngineCore::StealVictimOrder adds the optional 2-level domain routing).
// `steal_half` is the amount hint of the configured StealMode: ask for up
// to half of the victim's open partitions instead of one. The superstep
// guards against stale proposals crossing a barrier.
struct HelpProposalReq {
  EnginePhase phase = EnginePhase::kScatter;
  uint64_t superstep = 0;
  bool steal_half = false;
};

// The victim's grant (§5.4, Fig. 4 lines 27-31): the partitions — up to
// StealGrantLimit(steal_half, open) of them, swept from a rotating cursor —
// whose steal decision accepted one more helper: remaining work D
// (estimated from local storage's unserved bytes, scaled by the machine
// count) must justify copying the partition's vertex set V to one more
// helper, V + D/(H+1) < alpha * D/H. alpha is the stealing bias of
// ClusterConfig (Fig. 18 sweeps it; 0 disables stealing). `more_work` is
// the task-indicator hint (victim still has open partitions); with
// victim_check on, a helper skips victims that said false for the rest of
// the phase.
struct HelpProposalResp {
  std::vector<PartitionId> granted;
  bool more_work = false;
};

// After closing a gather-phase partition, the master pulls the replica
// accumulators of every helper it admitted (Fig. 4 line 52) and merges them
// with MergeAccum before apply (§5.3: replicas make gather idempotent under
// concurrent streaming).
struct AccumPullReq {
  PartitionId partition = 0;
  uint64_t superstep = 0;
};

// The stealer's accumulator array for the partition, shipped as a chunk
// (count = partition vertex count, wire = count * sizeof(Accumulator)).
struct AccumPullResp {
  Chunk accums;
  uint64_t updates_gathered = 0;
};

// Arrival at the end-of-phase barrier (§5.2). `local` carries the
// machine's aggregator delta (e.g. PageRank's dangling mass, BFS's frontier
// count) as an opaque byte blob serialized by the program kernel
// (core/program_kernel.h) — the barrier protocol itself is untyped, so the
// coordinator FSM compiles once for every GAS program. The modeled wire
// size is kControlMsgBytes + the kernel's global_wire_bytes(). `advance`
// marks the gather barrier where the coordinator reduces the deltas and
// runs Advance to decide convergence (Fig. 4 line 54).
struct BarrierArriveMsg {
  uint64_t phase_id = 0;        // monotonically increasing per barrier
  std::vector<uint8_t> local;   // per-machine aggregator delta (kernel blob)
  uint64_t vertices_changed = 0;
  bool advance = false;  // gather barrier: reduce aggregators and Advance()
  bool failed = false;   // this machine was fault-killed mid-run: the
                         // coordinator must abort the superstep (§6.6).
                         // Models failure detection at the barrier — the
                         // point where a real cluster's heartbeat timeout
                         // would fire — without un-draining the sim.
  uint64_t superstep = 0;
};

// Coordinator release: the canonical global state every machine computes
// the next phase under (kernel blob). `done` ends the run (Advance returned
// true); `crash` aborts it — either a machine failure was detected this
// barrier (an arrival carried `failed`) or the scripted whole-cluster
// failure of the recovery experiments fired (§6.6). In both cases engines
// stop without finishing and durable storage contents survive, so a
// recovery driver can re-import the last committed checkpoint
// (core/recovery.h).
struct BarrierReleaseMsg {
  std::vector<uint8_t> global;  // canonical global state for the next phase
  bool done = false;
  bool crash = false;  // failure: stop without finishing, storage survives
  bool mutate = false;  // evolving graphs: the program converged but the
                        // attached MutationFeed has a pending batch — every
                        // engine must run the apply-mutations stage (re-bin
                        // the planned delta, reseed vertex states, commit)
                        // and continue instead of finishing.
};

// ------------------------------------------------------------------ body

// Every body the protocol carries; monostate for the bodiless types.
using MessageBody =
    std::variant<std::monostate, ReadChunkReq, ReadChunkResp, WriteChunkReq, ReadIndexedReq,
                 DeleteSetReq, DirAllocReq, DirAllocResp, DirNextReq, DirNextResp, DirForgetReq,
                 HelpProposalReq, HelpProposalResp, AccumPullReq, AccumPullResp,
                 BarrierArriveMsg, BarrierReleaseMsg>;

}  // namespace chaos

#endif  // CHAOS_NET_WIRE_H_
