#include "ml/compiled_ensemble.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/contract.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbt.hpp"
#include "ml/random_forest.hpp"

namespace mphpc::ml {

namespace {

/// Output width of a fitted CART tree: the value size of any leaf.
std::size_t tree_output_width(const DecisionTree& tree) {
  for (const TreeNode& node : tree.nodes()) {
    if (node.is_leaf()) return node.value.size();
  }
  MPHPC_UNREACHABLE("fitted tree has no leaf");
}

/// Longest root-to-leaf edge count — the fixed walk length of a tree.
template <typename Node>
std::int32_t tree_depth(const std::vector<Node>& nodes) {
  std::int32_t max_depth = 0;
  std::vector<std::pair<std::int32_t, std::int32_t>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [i, d] = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(i)];
    if (node.is_leaf()) {
      max_depth = std::max(max_depth, d);
      continue;
    }
    stack.push_back({node.left, d + 1});
    stack.push_back({node.right, d + 1});
  }
  return max_depth;
}

/// Leaf payload of a CART tree: appends the leaf's value vector to
/// `values` and returns its offset (exact in a double far beyond any pool).
auto cart_leaf_payload(std::vector<double>& values) {
  return [&values](const TreeNode& leaf) {
    const auto offset = static_cast<double>(values.size());
    values.insert(values.end(), leaf.value.begin(), leaf.value.end());
    return offset;
  };
}

// Leaf marker cut of each word: no internal node's cut index reaches it
// (a narrow feature has at most 255 cuts, so indices stop at 254; a wide
// one at most 65535, indices stop at 65534), and no code exceeds it.
constexpr std::uint64_t kLeafCut32 = 0xFFU;
constexpr std::uint64_t kLeafCut64 = 0xFFFFU;

/// One walk step: `w` is a packed node word, `qr` the row's bin codes.
/// Decodes to `left_child + (code > cut)` — branch-free (flag
/// materialized by setcc, no data-dependent jump); a leaf's all-ones cut
/// makes the predicate false so the self-loop holds.
template <typename Code>
std::uint32_t qstep(std::uint32_t w, const Code* qr) noexcept {
  const std::uint32_t code = qr[w & 0xFFU];
  const std::uint32_t cut = (w >> 8) & 0xFFU;
  return (w >> 16) + static_cast<std::uint32_t>(code > cut);
}
template <typename Code>
std::uint32_t qstep(std::uint64_t w, const Code* qr) noexcept {
  const std::uint32_t code = qr[w & 0xFFFFU];
  const auto cut = static_cast<std::uint32_t>((w >> 16) & 0xFFFFU);
  return static_cast<std::uint32_t>(w >> 32) +
         static_cast<std::uint32_t>(code > cut);
}

/// Walks one tree (`qn` = its packed nodes) for a pre-binned row for
/// exactly `steps` steps; returns the tree-local leaf index.
template <typename Word, typename Code>
std::uint32_t qwalk(const Word* qn, std::int32_t steps, const Code* qr) noexcept {
  std::uint32_t local = 0;
  for (std::int32_t s = 0; s < steps; ++s) local = qstep(qn[local], qr);
  return local;
}

}  // namespace

template <typename Node, typename LeafPayload>
void CompiledEnsemble::build_pool(const std::vector<const std::vector<Node>*>& trees,
                                  LeafPayload leaf_payload) {
  // Per-feature sorted distinct cut tables from the fitted thresholds.
  std::vector<std::vector<double>> cuts(n_features_);
  std::size_t n_nodes = 0;
  std::size_t widest_tree = 0;
  for (const std::vector<Node>* tree : trees) {
    n_nodes += tree->size();
    widest_tree = std::max(widest_tree, tree->size());
    for (const Node& node : *tree) {
      if (!node.is_leaf()) {
        cuts[static_cast<std::size_t>(node.feature)].push_back(node.threshold);
      }
    }
  }
  MPHPC_EXPECTS(n_nodes <
                static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));
  std::size_t most_cuts = 0;
  cut_begin_.assign(1, 0);
  for (std::vector<double>& fc : cuts) {
    std::sort(fc.begin(), fc.end());
    fc.erase(std::unique(fc.begin(), fc.end()), fc.end());
    most_cuts = std::max(most_cuts, fc.size());
    cuts_.insert(cuts_.end(), fc.begin(), fc.end());
    cut_begin_.push_back(static_cast<std::uint32_t>(cuts_.size()));
  }
  // A row code can be n_cuts itself, so a word needs n_cuts <= its leaf
  // marker cut.
  const bool narrow =
      n_features_ <= 255 && most_cuts <= kLeafCut32 &&
      widest_tree <= std::size_t{std::numeric_limits<std::uint16_t>::max()};
  if (!narrow && (n_features_ > std::size_t{1} << 16 || most_cuts > kLeafCut64)) {
    throw std::length_error(
        "CompiledEnsemble: model exceeds the wide node word (" +
        std::to_string(n_features_) + " features, up to " +
        std::to_string(most_cuts) +
        " distinct thresholds on one feature; limits 65536 and 65535)");
  }
  if (narrow) {
    node32_.assign(n_nodes, 0);
  } else {
    node64_.assign(n_nodes, 0);
  }
  payload_.assign(n_nodes, 0.0);
  roots_.reserve(trees.size());
  depth_.reserve(trees.size());
  // Renumber each tree in BFS order so an internal node's children land
  // adjacent (left at child, right at child + 1: the walk step is then one
  // add off a flag), and pack each node into a single word.
  std::vector<std::uint32_t> order;  // order[new_local] = old_local
  std::vector<std::uint32_t> child;  // per new_local
  std::size_t begin = 0;
  for (const std::vector<Node>* tree : trees) {
    roots_.push_back(static_cast<std::int32_t>(begin));
    depth_.push_back(tree_depth(*tree));
    order.assign(1, 0);
    child.clear();
    for (std::size_t head = 0; head < order.size(); ++head) {
      const Node& node = (*tree)[order[head]];
      if (node.is_leaf()) {
        child.push_back(static_cast<std::uint32_t>(head));  // self-loop
        continue;
      }
      child.push_back(static_cast<std::uint32_t>(order.size()));
      order.push_back(static_cast<std::uint32_t>(node.left));
      order.push_back(static_cast<std::uint32_t>(node.right));
      // Every node has at most one parent (a tree, not a DAG), so the BFS
      // never outgrows the tree's slice of the pool.
      MPHPC_ASSERT(order.size() <= tree->size());
    }
    for (std::size_t j = 0; j < order.size(); ++j) {
      const Node& node = (*tree)[order[j]];
      std::uint64_t feat = 0;
      std::uint64_t cut = narrow ? kLeafCut32 : kLeafCut64;
      if (node.is_leaf()) {
        payload_[begin + j] = leaf_payload(node);
      } else {
        const auto f = static_cast<std::size_t>(node.feature);
        const std::vector<double>& fc = cuts[f];
        feat = f;
        cut = static_cast<std::uint64_t>(
            std::lower_bound(fc.begin(), fc.end(), node.threshold) - fc.begin());
      }
      if (narrow) {
        node32_[begin + j] = static_cast<std::uint32_t>(
            feat | (cut << 8) | (static_cast<std::uint64_t>(child[j]) << 16));
      } else {
        node64_[begin + j] =
            feat | (cut << 16) | (static_cast<std::uint64_t>(child[j]) << 32);
      }
    }
    begin += tree->size();
  }
}

CompiledEnsemble CompiledEnsemble::compile(const GbtRegressor& model) {
  MPHPC_EXPECTS(model.fitted());
  CompiledEnsemble ce;
  ce.kind_ = Kind::kGbt;
  ce.n_features_ = model.n_features();
  ce.n_outputs_ = model.n_outputs();
  std::vector<const std::vector<GbtNode>*> trees;
  ce.output_begin_ = {0};
  for (std::size_t k = 0; k < model.n_outputs(); ++k) {
    ce.base_.push_back(model.base_score(k));
    for (const GbtTree& tree : model.ensemble(k)) trees.push_back(&tree.nodes);
    ce.output_begin_.push_back(static_cast<std::int32_t>(trees.size()));
  }
  ce.build_pool(trees, [](const GbtNode& leaf) { return leaf.weight; });
  MPHPC_ENSURES(ce.compiled());
  return ce;
}

CompiledEnsemble CompiledEnsemble::compile(const RandomForest& model) {
  MPHPC_EXPECTS(model.fitted());
  CompiledEnsemble ce;
  ce.kind_ = Kind::kForestMean;
  ce.n_outputs_ = tree_output_width(model.trees().front());
  ce.value_width_ = ce.n_outputs_;
  ce.n_trees_ = static_cast<double>(model.trees().size());
  // Every fitted tree saw the same X, so any tree's feature count works.
  ce.n_features_ = model.trees().front().n_features();
  std::vector<const std::vector<TreeNode>*> trees;
  for (const DecisionTree& tree : model.trees()) {
    MPHPC_EXPECTS(tree.fitted());
    trees.push_back(&tree.nodes());
  }
  ce.build_pool(trees, cart_leaf_payload(ce.values_));
  MPHPC_ENSURES(ce.compiled());
  return ce;
}

CompiledEnsemble CompiledEnsemble::compile(const DecisionTree& model) {
  MPHPC_EXPECTS(model.fitted());
  CompiledEnsemble ce;
  ce.kind_ = Kind::kSingleTree;
  ce.n_outputs_ = tree_output_width(model);
  ce.value_width_ = ce.n_outputs_;
  ce.n_features_ = model.n_features();
  ce.build_pool(std::vector<const std::vector<TreeNode>*>{&model.nodes()},
                cart_leaf_payload(ce.values_));
  MPHPC_ENSURES(ce.compiled());
  return ce;
}

// The chop is branchless (the advance is a masked add, not a
// data-dependent jump): std::lower_bound mispredicts ~50% per probe on
// real feature values, which costs as much as the tree walks it feeds.
// Its predicate is `!(v <= cut)`, not `cut < v`: the two agree on every
// ordered value, and the negated form sends NaN past every cut (code
// n_cuts, so right at every node) as the reference `v <= threshold` does.
template <typename Code>
void CompiledEnsemble::bin_row(const double* xr, Code* codes) const noexcept {
  for (std::size_t f = 0; f < n_features_; ++f) {
    const double* start = cuts_.data() + cut_begin_[f];
    const double* base = start;
    const double v = xr[f];
    std::size_t n = cut_begin_[f + 1] - cut_begin_[f];
    while (n > 1) {
      const std::size_t half = n / 2;
      base += half & (0 - static_cast<std::size_t>(!(v <= base[half - 1])));
      n -= half;
    }
    const std::size_t above = n == 1 && !(v <= base[0]) ? 1 : 0;
    codes[f] = static_cast<Code>(static_cast<std::size_t>(base - start) + above);
  }
}

// Bins the tile once: every later tree walk reads codes, so the per-row
// hot state is n_features_ codes (a 512-row tile of 21 features is ~10 KB
// of uint8 codes — the whole tile stays L1-resident across the ensemble).
// Eight rows chop in lock-step per feature: they share one cut table and
// one range width, so every probe is eight independent masked adds off a
// hot table (bin_row's scalar chop, serial per feature, would cost as
// much as the tree walks it feeds). Same predicate as bin_row.
template <typename Code>
void CompiledEnsemble::bin_tile(const Matrix& x, std::size_t lo, std::size_t hi,
                                Code* codes) const noexcept {
  constexpr std::size_t kLanes = 8;
  std::size_t r = lo;
  std::array<const double*, kLanes> xr;
  std::array<const double*, kLanes> base;
  std::array<double, kLanes> v;
  for (; r + kLanes <= hi; r += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) xr[l] = x.row(r + l).data();
    Code* crow = codes + (r - lo) * n_features_;
    for (std::size_t f = 0; f < n_features_; ++f) {
      const double* start = cuts_.data() + cut_begin_[f];
      std::size_t n = cut_begin_[f + 1] - cut_begin_[f];
      for (std::size_t l = 0; l < kLanes; ++l) {
        base[l] = start;
        v[l] = xr[l][f];
      }
      while (n > 1) {
        const std::size_t half = n / 2;
        for (std::size_t l = 0; l < kLanes; ++l) {
          base[l] +=
              half & (0 - static_cast<std::size_t>(!(v[l] <= base[l][half - 1])));
        }
        n -= half;
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::size_t above = n == 1 && !(v[l] <= base[l][0]) ? 1 : 0;
        crow[l * n_features_ + f] =
            static_cast<Code>(static_cast<std::size_t>(base[l] - start) + above);
      }
    }
  }
  for (; r < hi; ++r) bin_row(x.row(r).data(), codes + (r - lo) * n_features_);
}

#if defined(__AVX512F__)
// GCC's avx512 headers spell "undefined vector" as `__m512i __Y = __Y;`,
// which -Wmaybe-uninitialized flags once the shift intrinsics inline into
// the walk below. Silence that known-bogus warning for this region only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
namespace {

/// Rows per vector walk: four 16-lane gather groups in flight. A single
/// group is latency-bound — the serial gather -> compare -> gather chain
/// of one step runs ~25 cycles — so three more independent groups overlap
/// it and keep the gather ports busy instead of idle.
constexpr std::size_t kQuadRows = 64;

/// Walks one tree for four 16-lane groups of pre-binned rows. `qn` is
/// the tree's packed 32-bit node pool, `codes` the tile's row-major
/// uint8 code matrix (padded so the dword gathers of the last code stay
/// inside the buffer), `rowoff[g]` lane byte-offsets of each row's code
/// block. One step per lane is two gathers (node word, code byte) plus
/// shift/mask/compare — the same arithmetic as the scalar qstep, so
/// leaves (and therefore results) are identical. Leaf indices land in
/// `loc`, tree-local.
inline void qwalk_quad(const std::uint32_t* qn, std::int32_t steps,
                       const std::uint8_t* codes, const __m512i* rowoff,
                       __m512i* loc) noexcept {
  const __m512i k_ff = _mm512_set1_epi32(0xFF);
  const __m512i k_one = _mm512_set1_epi32(1);
  for (int g = 0; g < 4; ++g) loc[g] = _mm512_setzero_si512();
  for (std::int32_t s = 0; s < steps; ++s) {
    for (int g = 0; g < 4; ++g) {
      const __m512i w = _mm512_i32gather_epi32(loc[g], qn, 4);
      const __m512i cidx =
          _mm512_add_epi32(_mm512_and_si512(w, k_ff), rowoff[g]);
      const __m512i code =
          _mm512_and_si512(_mm512_i32gather_epi32(cidx, codes, 1), k_ff);
      const __m512i cut = _mm512_and_si512(_mm512_srli_epi32(w, 8), k_ff);
      const __m512i child = _mm512_srli_epi32(w, 16);
      const __mmask16 gt = _mm512_cmp_epu32_mask(code, cut, _MM_CMPINT_NLE);
      loc[g] = _mm512_mask_add_epi32(child, gt, child, k_one);
    }
  }
}

/// Lane byte-offsets of rows [first_row, first_row + 64) into the tile's
/// code matrix, one vector per 16-row group.
inline void quad_row_offsets(std::size_t first_row, std::size_t n_features,
                             __m512i* rowoff) noexcept {
  const __m512i lane_off = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(n_features)));
  for (int g = 0; g < 4; ++g) {
    rowoff[g] = _mm512_add_epi32(
        lane_off, _mm512_set1_epi32(static_cast<int>(
                      (first_row + 16 * static_cast<std::size_t>(g)) *
                      n_features)));
  }
}

}  // namespace
#endif  // __AVX512F__

// Lanes per lock-step walk: enough independent chains to saturate the
// load ports, few enough that lane state stays in registers. A step is
// two loads (the packed node word + the row's code) and a handful of
// integer ops per lane. When the build targets AVX-512 and the pool is
// narrow, full 64-row quads take the gather-based vector walk instead
// (identical integer arithmetic and FP accumulation order, so results
// stay bit-identical); the scalar lanes then only mop up the remainder.
template <typename Word, typename Code>
void CompiledEnsemble::walk_tile(const Word* pool, std::size_t lo, std::size_t hi,
                                 Matrix& out, const Code* codes) const {
  constexpr std::size_t kLanes = 8;
  std::size_t scalar_lo = lo;  // rows below it were served by the vector path
#if defined(__AVX512F__)
  if constexpr (sizeof(Word) == 4) {
    const std::size_t vec_rows = (hi - lo) / kQuadRows * kQuadRows;
    if (vec_rows > 0) {
      scalar_lo = lo + vec_rows;
      if (kind_ == Kind::kGbt) {
        std::array<double, kQuadRows> accbuf;
        for (std::size_t k = 0; k < n_outputs_; ++k) {
          const auto t_begin = static_cast<std::size_t>(output_begin_[k]);
          const auto t_end = static_cast<std::size_t>(output_begin_[k + 1]);
          for (std::size_t q = 0; q < vec_rows; q += kQuadRows) {
            __m512i rowoff[4];
            quad_row_offsets(q, n_features_, rowoff);
            __m512d acc[8];
            for (__m512d& a : acc) a = _mm512_set1_pd(base_[k]);
            for (std::size_t t = t_begin; t < t_end; ++t) {
              const auto origin = static_cast<std::size_t>(roots_[t]);
              __m512i leaf[4];
              qwalk_quad(pool + origin, depth_[t], codes, rowoff, leaf);
              const double* qp = payload_.data() + origin;
              for (int g = 0; g < 4; ++g) {
                acc[2 * g] = _mm512_add_pd(
                    acc[2 * g],
                    _mm512_i32gather_pd(_mm512_castsi512_si256(leaf[g]), qp,
                                        8));
                acc[2 * g + 1] = _mm512_add_pd(
                    acc[2 * g + 1],
                    _mm512_i32gather_pd(_mm512_extracti64x4_epi64(leaf[g], 1),
                                        qp, 8));
              }
            }
            for (int i = 0; i < 8; ++i) {
              _mm512_storeu_pd(accbuf.data() + 8 * i, acc[i]);
            }
            for (std::size_t l = 0; l < kQuadRows; ++l) {
              out(lo + q + l, k) = accbuf[l];
            }
          }
        }
      } else {
        std::array<std::uint32_t, kQuadRows> leafbuf;
        for (std::size_t q = 0; q < vec_rows; q += kQuadRows) {
          __m512i rowoff[4];
          quad_row_offsets(q, n_features_, rowoff);
          for (std::size_t t = 0; t < roots_.size(); ++t) {
            const auto origin = static_cast<std::size_t>(roots_[t]);
            __m512i leaf[4];
            qwalk_quad(pool + origin, depth_[t], codes, rowoff, leaf);
            for (int g = 0; g < 4; ++g) {
              _mm512_storeu_si512(leafbuf.data() + 16 * g, leaf[g]);
            }
            const double* qp = payload_.data() + origin;
            for (std::size_t l = 0; l < kQuadRows; ++l) {
              const double* v =
                  values_.data() + static_cast<std::size_t>(qp[leafbuf[l]]);
              double* dst = out.row(lo + q + l).data();
              for (std::size_t c = 0; c < value_width_; ++c) dst[c] += v[c];
            }
          }
        }
      }
    }
  }
#endif  // __AVX512F__
  if (kind_ == Kind::kGbt) {
    // Lane group outer, trees inner: the group's code pointers and running
    // sums live in registers across the whole ensemble, so per-tree cost
    // is the walk plus one add. Accumulation order per (row, output) is
    // base + trees in boosting order, exactly the reference order.
    for (std::size_t k = 0; k < n_outputs_; ++k) {
      const auto t_begin = static_cast<std::size_t>(output_begin_[k]);
      const auto t_end = static_cast<std::size_t>(output_begin_[k + 1]);
      std::size_t r = scalar_lo;
      std::array<const Code*, kLanes> qr;
      std::array<std::uint32_t, kLanes> local;
      std::array<double, kLanes> acc;
      for (; r + kLanes <= hi; r += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          qr[l] = codes + (r + l - lo) * n_features_;
        }
        acc.fill(base_[k]);
        for (std::size_t t = t_begin; t < t_end; ++t) {
          const Word* qn = pool + static_cast<std::size_t>(roots_[t]);
          const double* qp = payload_.data() + static_cast<std::size_t>(roots_[t]);
          const std::int32_t steps = depth_[t];
          local.fill(0);
          for (std::int32_t s = 0; s < steps; ++s) {
            for (std::size_t l = 0; l < kLanes; ++l) {
              local[l] = qstep(qn[local[l]], qr[l]);
            }
          }
          for (std::size_t l = 0; l < kLanes; ++l) acc[l] += qp[local[l]];
        }
        for (std::size_t l = 0; l < kLanes; ++l) out(r + l, k) = acc[l];
      }
      for (; r < hi; ++r) {
        double sum = base_[k];
        const Code* qr1 = codes + (r - lo) * n_features_;
        for (std::size_t t = t_begin; t < t_end; ++t) {
          const auto origin = static_cast<std::size_t>(roots_[t]);
          sum += payload_[origin + qwalk(pool + origin, depth_[t], qr1)];
        }
        out(r, k) = sum;
      }
    }
    return;
  }
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const Word* qn = pool + static_cast<std::size_t>(roots_[t]);
    const double* qp = payload_.data() + static_cast<std::size_t>(roots_[t]);
    const std::int32_t steps = depth_[t];
    const auto add_leaf = [&](std::size_t r, std::uint32_t leaf) {
      const double* v = values_.data() + static_cast<std::size_t>(qp[leaf]);
      double* dst = out.row(r).data();
      for (std::size_t k = 0; k < value_width_; ++k) dst[k] += v[k];
    };
    std::size_t r = scalar_lo;
    std::array<const Code*, kLanes> qr;
    std::array<std::uint32_t, kLanes> local;
    for (; r + kLanes <= hi; r += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        qr[l] = codes + (r + l - lo) * n_features_;
      }
      local.fill(0);
      for (std::int32_t s = 0; s < steps; ++s) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          local[l] = qstep(qn[local[l]], qr[l]);
        }
      }
      for (std::size_t l = 0; l < kLanes; ++l) add_leaf(r + l, local[l]);
    }
    for (; r < hi; ++r) add_leaf(r, qwalk(qn, steps, codes + (r - lo) * n_features_));
  }
  if (kind_ == Kind::kForestMean) {
    for (std::size_t r = lo; r < hi; ++r) {
      for (double& v : out.row(r)) v /= n_trees_;
    }
  }
}

#if defined(__AVX512F__)
#pragma GCC diagnostic pop
#endif

template <typename Word, typename Code>
void CompiledEnsemble::predict_rows(const Word* pool, const Matrix& x,
                                    std::size_t row_begin, std::size_t row_end,
                                    Matrix& out) const {
  // One code buffer per chunk, reused across its tiles: the only
  // allocation the batch path makes. The +4 pad keeps the vector walk's
  // dword gather of the last code byte inside the buffer (it masks the
  // extra bytes off; they are never used).
  std::vector<Code> codes(kTile * n_features_ + 4);
  for (std::size_t lo = row_begin; lo < row_end; lo += kTile) {
    const std::size_t hi = std::min(row_end, lo + kTile);
    bin_tile(x, lo, hi, codes.data());
    walk_tile(pool, lo, hi, out, codes.data());
  }
}

Matrix CompiledEnsemble::predict(const Matrix& x, ThreadPool* pool) const {
  MPHPC_EXPECTS(compiled());
  MPHPC_EXPECTS(x.cols() == n_features_);
  Matrix out(x.rows(), n_outputs_);
  const auto run_rows = [&](std::size_t row_begin, std::size_t row_end) {
    if (!node32_.empty()) {
      predict_rows<std::uint32_t, std::uint8_t>(node32_.data(), x, row_begin,
                                                row_end, out);
    } else {
      predict_rows<std::uint64_t, std::uint16_t>(node64_.data(), x, row_begin,
                                                 row_end, out);
    }
  };
  if (pool != nullptr && x.rows() > 1) {
    // Chunks are contiguous row ranges; every (row, output) accumulator is
    // owned by exactly one chunk, so the partition cannot change results.
    pool->parallel_chunks(0, x.rows(),
                          [&](std::size_t, std::size_t b, std::size_t e) {
                            run_rows(b, e);
                          });
  } else {
    run_rows(0, x.rows());
  }
  return out;
}

// Eight trees walk in lock-step, as the tile kernel walks eight rows: one
// tree's walk is a chain of dependent loads, so eight independent chains
// keep the load ports busy where a single chain would wait on each step.
// A group walks its deepest tree's step count (leaves self-loop, so the
// shallower trees just sit on their leaves), and a short last group pads
// its spare lanes with its first tree, walked but never added. Leaves are
// added in tree order, so every sum is bit-identical to a tree-at-a-time
// walk.
template <typename Word>
void CompiledEnsemble::walk_row(const Word* pool, const std::uint16_t* codes,
                                std::span<double> out) const noexcept {
  constexpr std::size_t kLanes = 8;
  std::array<std::uint32_t, kLanes> local;
  std::array<std::size_t, kLanes> origin;
  // Walks trees [t, t + n) (n <= kLanes) to their leaves; leaf l lands at
  // pool offset origin[l] + local[l].
  const auto walk_group = [&](std::size_t t, std::size_t n) {
    std::int32_t steps = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::size_t tree = l < n ? t + l : t;
      origin[l] = static_cast<std::size_t>(roots_[tree]);
      steps = std::max(steps, depth_[tree]);
    }
    local.fill(0);
    for (std::int32_t s = 0; s < steps; ++s) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        local[l] = qstep(pool[origin[l] + local[l]], codes);
      }
    }
  };
  if (kind_ == Kind::kGbt) {
    for (std::size_t k = 0; k < n_outputs_; ++k) {
      double acc = base_[k];
      const auto t_end = static_cast<std::size_t>(output_begin_[k + 1]);
      for (auto t = static_cast<std::size_t>(output_begin_[k]); t < t_end;
           t += kLanes) {
        const std::size_t n = std::min(kLanes, t_end - t);
        walk_group(t, n);
        for (std::size_t l = 0; l < n; ++l) acc += payload_[origin[l] + local[l]];
      }
      out[k] = acc;
    }
    return;
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t t = 0; t < roots_.size(); t += kLanes) {
    const std::size_t n = std::min(kLanes, roots_.size() - t);
    walk_group(t, n);
    for (std::size_t l = 0; l < n; ++l) {
      const double* v = values_.data() +
                        static_cast<std::size_t>(payload_[origin[l] + local[l]]);
      for (std::size_t k = 0; k < value_width_; ++k) out[k] += v[k];
    }
  }
  if (kind_ == Kind::kForestMean) {
    for (double& v : out) v /= n_trees_;
  }
}

// lint:allow-next-line contract-coverage -- delegate; the scratch overload owns the contracts
void CompiledEnsemble::predict_row(std::span<const double> x,
                                   std::span<double> out) const {
  // One scratch per thread: steady-state single-row serving allocates
  // nothing (the bench asserts this).
  thread_local RowScratch scratch;
  predict_row(x, out, scratch);
}

void CompiledEnsemble::predict_row(std::span<const double> x,
                                   std::span<double> out,
                                   RowScratch& scratch) const {
  MPHPC_EXPECTS(compiled());
  MPHPC_EXPECTS(out.size() == n_outputs_);
  MPHPC_EXPECTS(x.size() == n_features_);
  if (scratch.codes.size() < n_features_) scratch.codes.resize(n_features_);
  // uint16 codes serve both words: a narrow pool's codes never pass 255.
  bin_row(x.data(), scratch.codes.data());
  if (!node32_.empty()) {
    walk_row(node32_.data(), scratch.codes.data(), out);
  } else {
    walk_row(node64_.data(), scratch.codes.data(), out);
  }
}

}  // namespace mphpc::ml
