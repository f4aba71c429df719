#include "graph/generators.h"

#include <algorithm>
#include <cmath>

#include "util/common.h"

namespace chaos {
namespace {

float RandomWeight(Rng& rng, double max_weight) {
  // Strictly positive, effectively-distinct weights (helps MSF tie-breaks).
  return static_cast<float>(rng.NextDouble() * (max_weight - 0.001) + 0.001);
}

// Samples an index in [0, n) from a Zipf-like distribution with exponent s
// using inverse-CDF over precomputed cumulative weights.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s) : cdf_(n) {
    CHAOS_CHECK_GT(n, 0u);
    double total = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (auto& v : cdf_) {
      v /= total;
    }
  }

  uint64_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// The one RMAT core behind GenerateRmat and StreamRmat, so that their RNG
// consumption (and thus the edge sequence) cannot diverge. The id
// permutation is drawn first; then each edge draws `scale` quadrants, and
// its weight after them when weighted.
class RmatCore {
 public:
  explicit RmatCore(const RmatOptions& options) : options_(options), rng_(options.seed) {
    CHAOS_CHECK_LE(options.scale, 40u);
    CHAOS_CHECK_MSG(!options.permute_ids || options.scale <= 31,
                    "RMAT with permute_ids needs scale <= 31 (the permutation holds 32-bit ids)");
    // The branchless quadrant pick below needs nondecreasing thresholds.
    CHAOS_CHECK_MSG(options.a >= 0.0 && options.b >= 0.0 && options.c >= 0.0,
                    "RMAT quadrant probabilities a, b and c must be >= 0");
    const double d = 1.0 - options.a - options.b - options.c;
    CHAOS_CHECK_MSG(d > 0.0, "RMAT quadrant probabilities must sum to < 1");
    const double ab = options.a + options.b;
    t_a_ = Rng::UnitThreshold(options.a);
    t_ab_ = Rng::UnitThreshold(ab);
    t_abc_ = Rng::UnitThreshold(ab + options.c);
    if (options.permute_ids) {
      perm_ = rng_.Permutation(static_cast<uint32_t>(1ull << options.scale));
    }
  }

  uint64_t num_edges() const { return (1ull << options_.scale) * options_.edges_per_vertex; }

  // Writes the next `count` edges of the sequence to `out`, one piece at a
  // time: raw recursive ids first, then the permutation over the whole
  // piece, so that its table misses overlap instead of each waiting behind
  // an edge's RNG steps.
  void Fill(Edge* out, uint64_t count) {
    while (count > 0) {
      const uint64_t n = std::min(count, kPieceEdges);
      DrawRaw(out, n);
      if (options_.permute_ids) {
        for (Edge* e = out; e != out + n; ++e) {
          e->src = perm_[e->src];
          e->dst = perm_[e->dst];
        }
      }
      out += n;
      count -= n;
    }
  }

 private:
  static constexpr uint64_t kPieceEdges = 1 << 16;

  // Not inlined into Fill, whose live values would otherwise push the level
  // loop's counter onto the stack. The locals keep the RNG state and the
  // thresholds in registers across the stores to `out` (a uint64_t id
  // store may alias members).
  [[gnu::noinline]] void DrawRaw(Edge* out, uint64_t count) {
    Rng rng = rng_;
    const uint32_t scale = options_.scale;
    const uint64_t t_a = t_a_;
    const uint64_t t_ab = t_ab_;
    const uint64_t t_abc = t_abc_;
    for (Edge* e = out; e != out + count; ++e) {
      uint64_t src = 0;
      uint64_t dst = 0;
      for (uint32_t level = scale; level > 0; --level) {
        // Quadrant 0..3 is the number of thresholds at or below the draw;
        // x >= T(p) is exactly !(NextDouble() < p) for the same draw.
        const uint64_t x = rng.Next53();
        const uint64_t q = uint64_t{x >= t_a} + (x >= t_ab) + (x >= t_abc);
        src = (src << 1) | (q >> 1);
        dst = (dst << 1) | (q & 1);
      }
      e->src = src;
      e->dst = dst;
      e->weight = options_.weighted ? RandomWeight(rng, 100.0) : 1.0f;
      e->flags = kEdgeForward;
    }
    rng_ = rng;
  }

  RmatOptions options_;
  Rng rng_;
  uint64_t t_a_ = 0;
  uint64_t t_ab_ = 0;
  uint64_t t_abc_ = 0;
  std::vector<uint32_t> perm_;
};

}  // namespace

InputGraph GenerateRmat(const RmatOptions& options) {
  RmatCore core(options);
  InputGraph g;
  g.num_vertices = 1ull << options.scale;
  g.weighted = options.weighted;
  g.edges.resize(core.num_edges());
  core.Fill(g.edges.data(), g.edges.size());
  return g;
}

void StreamRmat(const RmatOptions& options, uint64_t batch_edges,
                const std::function<bool(const std::vector<Edge>&)>& sink) {
  CHAOS_CHECK_GT(batch_edges, 0u);
  RmatCore core(options);
  std::vector<Edge> batch;
  for (uint64_t left = core.num_edges(); left > 0;) {
    batch.resize(std::min(batch_edges, left));
    core.Fill(batch.data(), batch.size());
    left -= batch.size();
    if (!sink(batch)) {
      return;
    }
  }
}

InputGraph GenerateWebGraph(const WebGraphOptions& options) {
  CHAOS_CHECK_GT(options.num_hosts, 0u);
  CHAOS_CHECK_GE(options.num_pages, options.num_hosts);
  InputGraph g;
  g.num_vertices = options.num_pages;
  g.weighted = options.weighted;

  Rng rng(options.seed);

  // Assign pages to hosts with Zipf-distributed host sizes.
  ZipfSampler host_sampler(options.num_hosts, options.host_zipf_exponent);
  std::vector<uint64_t> host_of(options.num_pages);
  std::vector<std::vector<uint64_t>> host_pages(options.num_hosts);
  for (uint64_t p = 0; p < options.num_pages; ++p) {
    const uint64_t h = p < options.num_hosts ? p : host_sampler.Sample(rng);
    host_of[p] = h;
    host_pages[h].push_back(p);
  }

  // Popular cross-host targets (global Zipf over pages).
  ZipfSampler page_sampler(options.num_pages, options.page_zipf_exponent);

  const auto target_edges =
      static_cast<uint64_t>(options.mean_out_degree * static_cast<double>(options.num_pages));
  g.edges.reserve(target_edges);
  for (uint64_t i = 0; i < target_edges; ++i) {
    // Source pages: heavier pages link more (size-biased via global Zipf).
    const uint64_t src = page_sampler.Sample(rng);
    uint64_t dst;
    if (rng.Bernoulli(options.intra_host_fraction)) {
      const auto& pages = host_pages[host_of[src]];
      dst = pages[rng.Below(pages.size())];
    } else {
      dst = page_sampler.Sample(rng);
    }
    Edge e;
    e.src = src;
    e.dst = dst;
    e.weight = options.weighted ? RandomWeight(rng, 10.0) : 1.0f;
    g.edges.push_back(e);
  }
  return g;
}

InputGraph GenerateGridGraph(const GridGraphOptions& options) {
  InputGraph g;
  const uint64_t w = options.width;
  const uint64_t h = options.height;
  g.num_vertices = w * h;
  g.weighted = options.weighted;
  Rng rng(options.seed);
  auto id = [w](uint64_t x, uint64_t y) { return y * w + x; };
  for (uint64_t y = 0; y < h; ++y) {
    for (uint64_t x = 0; x < w; ++x) {
      if (x + 1 < w) {
        const float weight =
            options.weighted ? RandomWeight(rng, options.max_weight) : 1.0f;
        g.edges.push_back(Edge{id(x, y), id(x + 1, y), weight, kEdgeForward});
        g.edges.push_back(Edge{id(x + 1, y), id(x, y), weight, kEdgeForward});
      }
      if (y + 1 < h) {
        const float weight =
            options.weighted ? RandomWeight(rng, options.max_weight) : 1.0f;
        g.edges.push_back(Edge{id(x, y), id(x, y + 1), weight, kEdgeForward});
        g.edges.push_back(Edge{id(x, y + 1), id(x, y), weight, kEdgeForward});
      }
    }
  }
  return g;
}

InputGraph GenerateUniformRandom(uint64_t num_vertices, uint64_t num_edges, bool weighted,
                                 uint64_t seed) {
  CHAOS_CHECK_GT(num_vertices, 0u);
  InputGraph g;
  g.num_vertices = num_vertices;
  g.weighted = weighted;
  g.edges.reserve(num_edges);
  Rng rng(seed);
  for (uint64_t i = 0; i < num_edges; ++i) {
    Edge e;
    e.src = rng.Below(num_vertices);
    e.dst = rng.Below(num_vertices);
    e.weight = weighted ? RandomWeight(rng, 100.0) : 1.0f;
    g.edges.push_back(e);
  }
  return g;
}

}  // namespace chaos
