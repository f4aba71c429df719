#include "graph/mutation_log.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>

#include "util/common.h"
#include "util/rng.h"

namespace chaos {
namespace {

// Exact-record key for delete matching: weight compared by bit pattern so
// the multiset semantics are total (no NaN/-0.0 surprises), and all 32 flag
// bits. Matching always compares the whole key — the incremental seeders'
// reseed math relies on the graph diff being exactly the batch's records.
struct RecordKey {
  VertexId src;
  VertexId dst;
  uint32_t wbits;
  uint32_t flags;

  bool operator==(const RecordKey&) const = default;
};

RecordKey KeyOf(const Edge& e) {
  uint32_t wbits = 0;
  static_assert(sizeof(wbits) == sizeof(e.weight));
  std::memcpy(&wbits, &e.weight, sizeof(wbits));
  return RecordKey{e.src, e.dst, wbits, e.flags};
}

// The pending deletes of one batch, as a multiset of exact records. An
// open-addressing table indexes them; its hash only picks the probe start,
// and a slot matches only on the full RecordKey, so a collision costs a
// probe, never a wrong delete. A (src, dst) bit filter in front of the
// table lets almost every surviving edge skip the probe.
class PendingDeletes {
 public:
  explicit PendingDeletes(const std::vector<Edge>& deletes) {
    const uint64_t cap = std::bit_ceil(std::max<uint64_t>(2 * deletes.size(), 16));
    slots_.resize(cap);
    slot_mask_ = cap - 1;
    filter_.assign(cap / 4, 0);  // >= 32 filter bits per delete
    filter_shift_ = 64 - std::countr_zero(cap * 16);
    for (const Edge& e : deletes) {
      const uint64_t h = EndpointHash(e);
      const uint64_t bit = h >> filter_shift_;
      filter_[bit >> 6] |= uint64_t{1} << (bit & 63);
      const RecordKey key = KeyOf(e);
      Slot& s = Find(key, h);
      s.key = key;
      s.used = true;
      ++s.pending;
    }
  }

  // Consumes one pending occurrence of `e`'s record; false if none is left.
  bool Take(const Edge& e) {
    const uint64_t h = EndpointHash(e);
    const uint64_t bit = h >> filter_shift_;
    if ((filter_[bit >> 6] & (uint64_t{1} << (bit & 63))) == 0) {
      return false;
    }
    Slot& s = Find(KeyOf(e), h);
    if (s.pending == 0) {
      return false;
    }
    --s.pending;
    return true;
  }

 private:
  struct Slot {
    RecordKey key{};
    uint32_t pending = 0;
    bool used = false;
  };

  // Multiplicative hash of (src, dst); the filter reads its top bits. It
  // runs once per surviving edge, so it stays one multiply-add deep.
  static uint64_t EndpointHash(const Edge& e) {
    return (e.src * 0x9e3779b97f4a7c15ULL + e.dst) * 0xc2b2ae3d27d4eb4fULL;
  }

  // The slot holding `key`, or the empty slot where it would go.
  Slot& Find(const RecordKey& key, uint64_t endpoint_hash) {
    const uint64_t h =
        HashCombine(endpoint_hash, (uint64_t{key.flags} << 32) | key.wbits);
    for (uint64_t i = h & slot_mask_;; i = (i + 1) & slot_mask_) {
      Slot& s = slots_[i];
      if (!s.used || s.key == key) {
        return s;
      }
    }
  }

  std::vector<Slot> slots_;  // at most half full, so probes terminate
  uint64_t slot_mask_ = 0;
  std::vector<uint64_t> filter_;
  int filter_shift_ = 0;  // 64 - log2(filter bits)
};

Edge RandomInsert(Rng& rng, const InputGraph& g, VertexId hot_base, VertexId hot_span,
                  bool hotspot) {
  Edge e;
  const VertexId n = g.num_vertices;
  auto pick = [&](bool hot) -> VertexId {
    if (hot && hot_span > 0) {
      return hot_base + rng.Below(hot_span);
    }
    return rng.Below(n);
  };
  // Hotspot inserts anchor one endpoint in the hot set 7 times out of 8.
  const bool hot = hotspot && rng.Below(8) != 0;
  e.src = pick(hot && rng.Below(2) == 0);
  e.dst = pick(hot);
  if (e.src == e.dst) {
    e.dst = (e.dst + 1) % n;
  }
  e.weight = g.weighted ? static_cast<float>(1 + rng.Below(9)) : 1.0f;
  e.flags = kEdgeForward;
  return e;
}

}  // namespace

const char* MutatePresetName(MutatePreset preset) {
  switch (preset) {
    case MutatePreset::kUniform:
      return "uniform";
    case MutatePreset::kHotspot:
      return "hotspot";
    case MutatePreset::kChurn:
      return "churn";
  }
  return "?";
}

std::optional<MutatePreset> MutatePresetByName(const std::string& name) {
  if (name == "uniform") {
    return MutatePreset::kUniform;
  }
  if (name == "hotspot") {
    return MutatePreset::kHotspot;
  }
  if (name == "churn") {
    return MutatePreset::kChurn;
  }
  return std::nullopt;
}

MutationLog::MutationLog(const InputGraph& base, const MutationLogOptions& opt)
    : base_(base) {
  CHAOS_CHECK_GT(base.num_vertices, 1u);
  CHAOS_CHECK(opt.rate > 0.0 && opt.rate <= 1.0);  // NaN and inf fail too
  CHAOS_CHECK(opt.delete_fraction >= 0.0 && opt.delete_fraction <= 1.0);

  InputGraph current = base;
  // Hot set: a contiguous 1/16 slice of the id space, placed by the seed.
  const VertexId hot_span = std::max<VertexId>(current.num_vertices / 16, 1);
  const VertexId hot_base =
      Mix64(opt.seed, 0x407u) % (current.num_vertices - hot_span + 1);
  const bool hotspot = opt.preset == MutatePreset::kHotspot;

  std::vector<Edge> prev_inserts;  // churn: last batch's inserts
  batches_.reserve(opt.num_batches);
  for (uint32_t k = 0; k < opt.num_batches; ++k) {
    Rng rng(Mix64(opt.seed, 0x6d75u + k));  // per-batch stream
    MutationBatch b;
    const uint64_t edges_now = current.edges.size();
    const uint64_t total = std::max<uint64_t>(
        static_cast<uint64_t>(opt.rate * static_cast<double>(edges_now) + 0.5), 1);
    uint64_t num_del = static_cast<uint64_t>(
        opt.delete_fraction * static_cast<double>(total) + 0.5);
    num_del = std::min(num_del, edges_now);

    // ---- Deletes: distinct indices into the current edge list.
    std::unordered_set<uint64_t> taken;
    auto take_index = [&](uint64_t idx) -> bool {
      if (!taken.insert(idx).second) {
        return false;
      }
      b.deletes.push_back(current.edges[idx]);
      return true;
    };
    if (opt.preset == MutatePreset::kChurn && !prev_inserts.empty()) {
      // Short-lived edges: retire the previous batch's inserts first. They
      // live at the tail of the current edge list (Apply appends inserts).
      const uint64_t tail = edges_now - prev_inserts.size();
      for (uint64_t i = 0; i < prev_inserts.size() && b.deletes.size() < num_del; ++i) {
        take_index(tail + i);
      }
    }
    uint64_t attempts = 0;
    while (b.deletes.size() < num_del && attempts < 64 * num_del + 64) {
      ++attempts;
      const uint64_t idx = rng.Below(edges_now);
      if (hotspot) {
        // Bias deletes toward hot-set edges: non-hot picks survive 1 in 4.
        const Edge& e = current.edges[idx];
        const bool touches_hot = (e.src >= hot_base && e.src < hot_base + hot_span) ||
                                 (e.dst >= hot_base && e.dst < hot_base + hot_span);
        if (!touches_hot && rng.Below(4) != 0) {
          continue;
        }
      }
      take_index(idx);
    }

    // ---- Inserts.
    const uint64_t num_ins = total - std::min<uint64_t>(num_del, total);
    b.inserts.reserve(num_ins);
    for (uint64_t i = 0; i < num_ins; ++i) {
      b.inserts.push_back(RandomInsert(rng, current, hot_base, hot_span, hotspot));
    }

    prev_inserts = b.inserts;
    Apply(&current, b);
    batches_.push_back(std::move(b));
  }
}

void MutationLog::Apply(InputGraph* g, const MutationBatch& b) {
  std::vector<Edge>& edges = g->edges;
  if (!b.deletes.empty()) {
    // Multiset subtraction in place: remove the first occurrence of each
    // delete record, compacting survivors forward in their relative order
    // (determinism of downstream binning).
    PendingDeletes pending(b.deletes);
    uint64_t remaining = b.deletes.size();
    const size_t n = edges.size();
    size_t kept = 0;
    size_t i = 0;
    for (; i < n && remaining > 0; ++i) {
      if (pending.Take(edges[i])) {
        --remaining;
        continue;
      }
      if (kept != i) {
        edges[kept] = edges[i];
      }
      ++kept;
    }
    CHAOS_CHECK_EQ(remaining, 0u);  // every delete must name a present edge
    // Every delete is matched: the rest of the list survives as is.
    std::copy(edges.begin() + static_cast<ptrdiff_t>(i), edges.end(),
              edges.begin() + static_cast<ptrdiff_t>(kept));
    edges.resize(kept + (n - i));
  }
  for (const Edge& e : b.inserts) {
    CHAOS_CHECK(e.src < g->num_vertices && e.dst < g->num_vertices);
  }
  edges.insert(edges.end(), b.inserts.begin(), b.inserts.end());
}

InputGraph MutationLog::GraphAfter(uint64_t k) const {
  CHAOS_CHECK_LE(k, batches_.size());
  InputGraph g = base_;
  for (uint64_t i = 0; i < k; ++i) {
    Apply(&g, batches_[i]);
  }
  return g;
}

}  // namespace chaos
