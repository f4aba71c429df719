// Deterministic pseudo-random number generation.
//
// Chaos relies on randomization for chunk placement, engine selection and
// steal-sweep ordering; reproducibility of a whole simulated run therefore
// requires seeded, stable generators. We use splitmix64 for seeding and
// xoshiro256** for the stream — both stable across platforms, unlike
// std::mt19937 + std::uniform_int_distribution.
#ifndef CHAOS_UTIL_RNG_H_
#define CHAOS_UTIL_RNG_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/common.h"

namespace chaos {

// One step of splitmix64; also a good 64-bit mixing/hash function.
constexpr uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Stateless 64-bit hash of a value, suitable for placement decisions.
constexpr uint64_t Mix64(uint64_t x) {
  uint64_t s = x;
  return SplitMix64(s);
}

// Combines two 64-bit values into one hash (order-sensitive).
constexpr uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

// Two-input mix: the seed-derivation rule of the parallel sweep subsystem
// (util/parallel.h), spelled Mix64(base_seed, point_index). DELIBERATELY
// the same operation as HashCombine — one mixing function, two names for
// two roles (hashing vs. seed derivation); keep them aliased.
constexpr uint64_t Mix64(uint64_t a, uint64_t b) { return HashCombine(a, b); }

// xoshiro256** by Blackman & Vigna. Deterministic and fast.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) {
      word = SplitMix64(sm);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). Uses Lemire's multiply-shift reduction
  // with rejection for exact uniformity.
  uint64_t Below(uint64_t bound) {
    CHAOS_DCHECK(bound > 0);
    // Rejection sampling on the top bits.
    const uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
    while (true) {
      const uint64_t r = Next();
      const __uint128_t m = static_cast<__uint128_t>(r) * bound;
      const auto low = static_cast<uint64_t>(m);
      if (low >= threshold) {
        return static_cast<uint64_t>(m >> 64);
      }
    }
  }

  // Uniform integer in [0, 2^53): the draw behind NextDouble().
  uint64_t Next53() { return Next() >> 11; }

  // Uniform double in [0, 1): exactly Next53() * 2^-53.
  double NextDouble() { return static_cast<double>(Next53()) * 0x1.0p-53; }

  // The integer form of `NextDouble() < p`: for every x in [0, 2^53),
  //   x < UnitThreshold(p)  <=>  x * 2^-53 < p.
  // NextDouble() is exactly x * 2^-53 for x = Next53() (an integer below
  // 2^53 times a power of two), so u < p <=> x < p * 2^53 <=>
  // x < ceil(p * 2^53), x being an integer; ldexp(p, 53) is exact. The
  // threshold is clamped to [0, 2^53]: no draw is below a p <= 0 (or a
  // NaN), every draw is below a p >= 1.
  static uint64_t UnitThreshold(double p) {
    if (!(p > 0.0)) {
      return 0;
    }
    if (p >= 1.0) {
      return 1ull << 53;
    }
    return static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
  }

  bool Bernoulli(double p) { return NextDouble() < p; }

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(Below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Returns a shuffled vector {0, 1, ..., n-1}.
  std::vector<uint32_t> Permutation(uint32_t n) {
    std::vector<uint32_t> p(n);
    std::iota(p.begin(), p.end(), 0u);
    Shuffle(p);
    return p;
  }

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<uint64_t, 4> state_;
};

}  // namespace chaos

#endif  // CHAOS_UTIL_RNG_H_
