#include "common/rng.hpp"

#include <array>
#include <mutex>

namespace mphpc {

namespace {

/// xoshiro256's 256-bit state as four words.
using State = std::array<std::uint64_t, 4>;

/// The state update raised to some power, as a 256x256 matrix over GF(2):
/// column i is the image of the state with only bit i set (word i / 64,
/// bit i % 64). 8 KB.
struct JumpMatrix {
  std::array<State, 256> column;

  [[nodiscard]] State apply(const State& s) const noexcept {
    State out{};
    for (std::size_t w = 0; w < 4; ++w) {
      for (std::size_t b = 0; b < 64; ++b) {
        const std::uint64_t mask = std::uint64_t{0} - ((s[w] >> b) & 1U);
        const State& c = column[w * 64 + b];
        for (std::size_t k = 0; k < 4; ++k) out[k] ^= c[k] & mask;
      }
    }
    return out;
  }
};

/// Powers kDiscardBlock * 2^k for every k a 64-bit count can need.
constexpr std::size_t kLevels = 64 - 10;
static_assert(Rng::kDiscardBlock == std::uint64_t{1} << 10);

// Static storage: a level's pages are written, and so resident, only once
// a discard() needs that power.
std::array<JumpMatrix, kLevels> g_levels;
std::array<std::once_flag, kLevels> g_built;

/// Copy of operator()'s state update, without the output.
void step(State& s) noexcept {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = (s[3] << 45) | (s[3] >> 19);
}

const JumpMatrix& level(std::size_t k) {
  std::call_once(g_built[k], [k] {
    JumpMatrix& m = g_levels[k];
    if (k == 0) {
      for (std::size_t i = 0; i < 256; ++i) {
        State s{};
        s[i / 64] = std::uint64_t{1} << (i % 64);
        for (std::uint64_t n = 0; n < Rng::kDiscardBlock; ++n) step(s);
        m.column[i] = s;
      }
    } else {
      // Squaring: column i of M^2 is M applied to column i of M.
      const JumpMatrix& half = level(k - 1);
      for (std::size_t i = 0; i < 256; ++i) m.column[i] = half.apply(half.column[i]);
    }
  });
  return g_levels[k];
}

}  // namespace

void Rng::jump_blocks(std::uint64_t blocks) noexcept {
  State s = {state_[0], state_[1], state_[2], state_[3]};
  for (std::size_t k = 0; blocks != 0; ++k, blocks >>= 1) {
    if ((blocks & 1U) != 0) s = level(k).apply(s);
  }
  for (std::size_t w = 0; w < 4; ++w) state_[w] = s[w];
}

}  // namespace mphpc
