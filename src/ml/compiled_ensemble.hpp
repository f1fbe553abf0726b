// Compiled batched inference over fitted tree ensembles.
//
// The reference predictors (GbtTree::predict, DecisionTree::predict_one)
// walk per-tree node vectors one row at a time — pointer chasing through
// scattered allocations, re-touching every tree's nodes for every row.
// CompiledEnsemble re-encodes a fitted GbtRegressor, RandomForest, or
// DecisionTree into one contiguous bin-code node pool and predicts
// blockwise: rows are processed in small tiles with the tree loop outside
// the row loop, so one tree's nodes stay cache-resident while a whole
// tile streams through them, and row tiles fan out across a ThreadPool.
//
// Bin codes. Every distinct split threshold of each feature becomes an
// entry in a sorted per-feature cut table, a node keeps only the index of
// its cut, and each input row is binned ONCE per tile (or per predict_row
// call) to one code per feature: code(v) = #{cuts c : !(v <= c)}. For an
// ordinary value that is #{cuts < v}, so the walk comparison
// `code(v) <= cut_index` decides identically to the reference
// `v <= threshold` — a lossless re-encoding, not an approximation. The
// negated form also settles the values the comparison is fragile on: NaN
// compares false against every cut, so it codes to n_cuts and goes right
// at every node, exactly as the reference walkers route it (`NaN <= t` is
// false); +inf codes to n_cuts (right), -inf to 0 (left), and a value
// exactly on a cut codes to that cut's index (left).
//
// The pool. Each tree's nodes are renumbered in BFS order so an internal
// node's two children sit adjacent, and a node packs into ONE word:
//   - narrow, 32 bits: uint8 feature | uint8 cut index | uint16
//     tree-local index of the left child (right = left + 1), with uint8
//     row codes. Used when the model has at most 255 features, at most
//     255 distinct cuts on every feature and at most 65535 nodes per tree
//     — every hist-trained model (max_bins <= 255 edges per feature).
//   - wide, 64 bits: uint16 feature | uint16 cut index | 32-bit tree-local
//     left child, with uint16 row codes. Everything else, e.g. exact-greedy
//     models, which mint fresh midpoint thresholds every round.
// A model beyond the wide word (more than 65536 features, or more than
// 65535 distinct cuts on one feature) makes compile() throw
// std::length_error. A walk step is two loads — the node word and the
// row's code — plus `next = child + (code > cut)`; at 4 bytes per hot
// node a whole boosted ensemble's walk pool sits L1-resident. Leaves store
// the all-ones cut (255 or 65535, an index no internal node reaches) with
// the child pointing at themselves, so `code > cut` is always false there
// and walking any row for exactly depth(tree) steps lands on its leaf
// with no per-step leaf test. Leaf payloads live in a parallel payload_
// array in the same BFS order.
//
// Determinism contract: predictions are bit-identical to the reference
// walking path at any thread count. Every (row, output) accumulator sums
// leaf contributions in exactly the reference tree order, rows are
// partitioned into chunks that never split a (row, output) pair, and no
// cross-row arithmetic exists — so chunking and tiling cannot change a
// single result bit.
//
// Compile once at train/load time (CrossArchPredictor does); compilation
// is one pass over the nodes plus a sort of each feature's cuts, and the
// compiled form is immutable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "ml/matrix.hpp"

namespace mphpc::ml {

class DecisionTree;
class GbtRegressor;
class RandomForest;

class CompiledEnsemble {
 public:
  /// Reusable per-caller state for single-row prediction: holds the row's
  /// bin codes so hot serving paths never allocate per request. A
  /// default-constructed scratch is valid for any engine; it grows to the
  /// engine's feature count on first use and is then allocation-free.
  struct RowScratch {
    std::vector<std::uint16_t> codes;
  };

  /// Default-constructed engines are empty (compiled() == false).
  CompiledEnsemble() = default;

  /// Re-encodes a fitted model. The model can be dropped afterwards for
  /// inference-only serving; keep it for serialization or importances.
  /// Throws std::length_error when the model exceeds the wide word (see
  /// the file comment).
  [[nodiscard]] static CompiledEnsemble compile(const GbtRegressor& model);
  [[nodiscard]] static CompiledEnsemble compile(const RandomForest& model);
  [[nodiscard]] static CompiledEnsemble compile(const DecisionTree& model);

  [[nodiscard]] bool compiled() const noexcept { return !roots_.empty(); }
  [[nodiscard]] std::size_t n_features() const noexcept { return n_features_; }
  [[nodiscard]] std::size_t n_outputs() const noexcept { return n_outputs_; }
  [[nodiscard]] std::size_t n_nodes() const noexcept { return payload_.size(); }

  /// Batched prediction, bit-identical to the source model's predict().
  /// `pool` distributes row chunks; results do not depend on it.
  [[nodiscard]] Matrix predict(const Matrix& x, ThreadPool* pool = nullptr) const;

  /// Single-row prediction into `out` (size n_outputs()). Uses a
  /// thread-local scratch; see the overload below for caller-owned state.
  void predict_row(std::span<const double> x, std::span<double> out) const;

  /// Single-row prediction with caller-owned scratch: allocation-free
  /// after the scratch's first use with this engine's feature count.
  void predict_row(std::span<const double> x, std::span<double> out,
                   RowScratch& scratch) const;

 private:
  enum class Kind : std::uint8_t { kGbt = 0, kForestMean = 1, kSingleTree = 2 };

  /// Rows per tile: big enough to amortize per-tree loop overhead, small
  /// enough that a tile's codes and one tree's hot nodes share L1.
  static constexpr std::size_t kTile = 512;

  /// Derives the per-feature cut tables and the packed pool (narrow or
  /// wide word) from the fitted trees (node vectors, root at 0) in pool
  /// order; sets roots_ and depth_. `leaf_payload(leaf)` gives payload_.
  template <typename Node, typename LeafPayload>
  void build_pool(const std::vector<const std::vector<Node>*>& trees,
                  LeafPayload leaf_payload);

  /// Batch kernel over rows [row_begin, row_end): bins each tile into
  /// `Code`s, then walks it over `pool`.
  template <typename Word, typename Code>
  void predict_rows(const Word* pool, const Matrix& x, std::size_t row_begin,
                    std::size_t row_end, Matrix& out) const;
  /// Bins rows [lo, hi) into `codes` (row-major, n_features_ per row).
  template <typename Code>
  void bin_tile(const Matrix& x, std::size_t lo, std::size_t hi,
                Code* codes) const noexcept;
  /// Bins one row: codes[f] = #{cuts c of feature f : !(x[f] <= c)}.
  template <typename Code>
  void bin_row(const double* xr, Code* codes) const noexcept;
  /// The walk half of the tile kernel; `codes` already binned.
  template <typename Word, typename Code>
  void walk_tile(const Word* pool, std::size_t lo, std::size_t hi, Matrix& out,
                 const Code* codes) const;
  /// Single-row walk over every tree for a pre-binned row.
  template <typename Word>
  void walk_row(const Word* pool, const std::uint16_t* codes,
                std::span<double> out) const noexcept;

  Kind kind_ = Kind::kGbt;
  std::vector<std::int32_t> roots_;  ///< pool offset of each tree's root
  std::vector<std::int32_t> depth_;  ///< per-tree walk length (max depth)
  // kGbt: trees [output_begin_[k], output_begin_[k+1]) belong to output k,
  // in boosting-round order; base_[k] is the per-output prior.
  std::vector<std::int32_t> output_begin_;
  std::vector<double> base_;
  // kForestMean / kSingleTree: flat leaf payloads, value_width_ doubles
  // per leaf (== n_outputs_).
  std::vector<double> values_;
  std::size_t value_width_ = 0;
  std::size_t n_features_ = 0;
  std::size_t n_outputs_ = 0;
  double n_trees_ = 1.0;  ///< kForestMean: mean divisor (reference divides)

  // Per-feature sorted distinct cut values, flat in cuts_ with cut_begin_
  // offsets (size n_features_ + 1) — the FeatureBins layout from hist
  // training.
  std::vector<double> cuts_;
  std::vector<std::uint32_t> cut_begin_;
  // The packed pool, in BFS order per tree; exactly one of the two is
  // non-empty once compiled. node32_: bits [0,8) feature, [8,16) cut
  // index (255 marks a leaf), [16,32) tree-local left child. node64_:
  // [0,16) feature, [16,32) cut index (65535 marks a leaf), [32,64)
  // tree-local left child. A leaf's child is itself.
  std::vector<std::uint32_t> node32_;
  std::vector<std::uint64_t> node64_;
  // Per pool node: the scalar leaf weight for GBT, the values_ offset for
  // forest/tree, 0 for internal nodes.
  std::vector<double> payload_;
};

}  // namespace mphpc::ml
