// Deterministic random number generation.
//
// All stochastic components in mphpc (dataset synthesis, model training,
// scheduling workload sampling) draw from explicitly-seeded generators so
// that every experiment is bit-reproducible. We implement xoshiro256**
// (Blackman & Vigna) seeded through SplitMix64, plus a stable string
// hashing scheme for deriving independent per-entity streams, e.g.
//   Rng rng(derive_seed(base, "CoMD", "lassen", run_index));
#pragma once

#include <cstdint>
#include <string_view>

namespace mphpc {

/// SplitMix64 step; used for seeding and seed derivation.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a hash of a string, for mixing names into seed derivations.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

namespace detail {

constexpr std::uint64_t mix_one(std::uint64_t seed, std::uint64_t v) noexcept {
  std::uint64_t s = seed ^ (v + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2));
  return splitmix64(s);
}

constexpr std::uint64_t to_u64(std::uint64_t v) noexcept { return v; }
constexpr std::uint64_t to_u64(std::string_view v) noexcept { return fnv1a(v); }
constexpr std::uint64_t to_u64(const char* v) noexcept { return fnv1a(v); }

}  // namespace detail

/// Derives an independent seed from a base seed and any mix of integer /
/// string tags. Same inputs always yield the same seed.
template <typename... Tags>
constexpr std::uint64_t derive_seed(std::uint64_t base, const Tags&... tags) noexcept {
  std::uint64_t s = base;
  ((s = detail::mix_one(s, detail::to_u64(tags))), ...);
  return s;
}

/// xoshiro256** generator. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x853C49E6748FEA9BULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Advances the stream past `n` raw draws, as `n` calls of operator()
  /// would. The state update is linear over GF(2), so from kDiscardBlock
  /// draws on the whole blocks are applied as precomputed powers
  /// T^(kDiscardBlock * 2^k) of the update matrix T, each built once on
  /// first use: O(log n) instead of O(n). Fewer draws, and the remainder
  /// below one block, run the plain loop. One jump costs about as much as
  /// 300 draws (x86-64, -O2), so every count with a whole block gains.
  void discard(std::uint64_t n) noexcept {
    if (n >= kDiscardBlock) {
      jump_blocks(n / kDiscardBlock);
      n %= kDiscardBlock;
    }
    for (; n > 0; --n) (void)(*this)();
  }

  /// Draws the smallest jump-ahead power stands for.
  static constexpr std::uint64_t kDiscardBlock = 1024;

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's method.
  /// Consumes exactly one operator() output for every n, so a caller may
  /// replay k below() calls whose results it does not need as discard(k)
  /// (sched::RandomAssigner::skip_rejected relies on this).
  constexpr std::uint64_t below(std::uint64_t n) noexcept {
    // Debiased multiply-shift; bias is < 2^-64 for the n used here, which
    // is negligible for simulation purposes and keeps this branch-light.
    const std::uint64_t x = (*this)();
    // 128-bit multiply via the GCC/Clang extension type.
    __extension__ using u128 = unsigned __int128;
    return static_cast<std::uint64_t>((static_cast<u128>(x) * static_cast<u128>(n)) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  constexpr std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli draw with probability p of returning true.
  constexpr bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// Advances the state by `blocks` * kDiscardBlock draws (rng.cpp).
  void jump_blocks(std::uint64_t blocks) noexcept;

  std::uint64_t state_[4]{};
};

}  // namespace mphpc
