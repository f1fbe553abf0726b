#include "ml/gbt.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <numeric>

#include <optional>

#include "common/contract.hpp"
#include "common/distributions.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "ml/binning.hpp"
#include "ml/hist_common.hpp"

namespace mphpc::ml {

double GbtTree::predict(std::span<const double> x) const {
  MPHPC_EXPECTS(!nodes.empty());
  std::size_t i = 0;
  while (!nodes[i].is_leaf()) {
    const GbtNode& n = nodes[i];
    i = static_cast<std::size_t>(
        x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left : n.right);
  }
  return nodes[i].weight;
}

namespace {

struct SplitCandidate {
  double gain = 0.0;
  double threshold = 0.0;
  int feature = -1;
  int bin = -1;  ///< kHist: last bin going left (codes <= bin)
};

/// Per-fit shared context: the method-specific view of X (global feature
/// pre-sort for kExact; quantile bins plus a row-major copy of their codes
/// for kHist) and the pool, if any, for per-feature parallelism inside a
/// tree.
struct BuildContext {
  const Matrix& x;
  std::vector<std::vector<std::uint32_t>> sorted;  ///< kExact: [feature] order
  std::optional<BinnedMatrix> binned;              ///< kHist: uint8 codes
  hist::Layout layout;  ///< kHist: ragged (G, H) histogram layout
  /// kHist: the bin codes again, row-major, each offset to its feature's
  /// slice: [row * cols + f] = layout.offsets[f] + code. A histogram pass
  /// reads a row's bins from one or two cache lines, and a bin's cells
  /// sit at 2 * bin.
  std::vector<std::uint32_t> row_bins;
  /// kHist: false when X holds a NaN. Binning puts NaN in bin 0 (left)
  /// while the tree test `x <= threshold` sends it right, so only without
  /// NaN does a row's partition leaf equal the leaf predict() reaches.
  /// Goes, with the walk in HistTreeBuilder::add_to, once binning sends
  /// NaN to the last bin.
  bool codes_route_like_walk = true;
  ThreadPool* tree_pool = nullptr;

  /// `pool` bins the features; `per_tree` (null or `pool`) parallelises
  /// split search across features inside each tree.
  BuildContext(const Matrix& matrix, const GbtOptions& opt, ThreadPool* pool,
               ThreadPool* per_tree)
      : x(matrix), tree_pool(per_tree) {
    if (opt.tree_method == GbtTreeMethod::kHist) {
      binned.emplace(BinnedMatrix::build(x, opt.max_bins, pool));
      layout = hist::Layout::make(*binned, 2);
      MPHPC_EXPECTS(layout.cells() <= std::numeric_limits<std::uint32_t>::max());
      const std::size_t n_feat = x.cols();
      row_bins.resize(x.rows() * n_feat);
      for (std::size_t f = 0; f < n_feat; ++f) {
        const std::uint8_t* codes = binned->codes(f);
        const auto first = static_cast<std::uint32_t>(layout.offsets[f]);
        for (std::size_t r = 0; r < x.rows(); ++r) {
          row_bins[r * n_feat + f] = first + codes[r];
        }
      }
      codes_route_like_walk = std::none_of(x.flat().begin(), x.flat().end(),
                                           [](double v) { return std::isnan(v); });
      return;
    }
    const std::size_t n = x.rows();
    sorted.resize(x.cols());
    for (std::size_t f = 0; f < x.cols(); ++f) {
      auto& order = sorted[f];
      order.resize(n);
      std::iota(order.begin(), order.end(), std::uint32_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [&, f](std::uint32_t a, std::uint32_t b) {
                         return x(a, f) < x(b, f);
                       });
    }
  }
};

/// Builds one boosted tree with exact-greedy splits on the in-sample rows
/// with gradients g and hessians h, accumulating split gains into
/// `gain_sum`/`split_count`. Reference implementation for kHist.
GbtTree build_tree_exact(const BuildContext& ctx, const GbtOptions& opt,
                   std::span<const double> g, std::span<const double> h,
                   std::span<const std::uint8_t> in_sample,
                   std::span<const std::uint8_t> in_cols,
                   std::span<double> gain_sum, std::span<double> split_count) {
  const Matrix& x = ctx.x;
  const std::size_t n = x.rows();
  const std::size_t n_feat = x.cols();

  GbtTree tree;
  tree.nodes.emplace_back();

  // node_of[row] = current node, or -1 if the row is out-of-sample.
  std::vector<std::int32_t> node_of(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    if (!in_sample[r]) node_of[r] = -1;
  }

  std::vector<std::int32_t> level_nodes = {0};
  // Per-node G/H, indexed by node id (grows as nodes are added).
  std::vector<double> node_g = {0.0};
  std::vector<double> node_h = {0.0};
  for (std::size_t r = 0; r < n; ++r) {
    if (node_of[r] == 0) {
      node_g[0] += g[r];
      node_h[0] += h[r];
    }
  }

  for (int depth = 0; depth < opt.max_depth && !level_nodes.empty(); ++depth) {
    const std::size_t n_dense = level_nodes.size();
    std::vector<std::int32_t> dense_of(tree.nodes.size(), -1);
    for (std::size_t d = 0; d < n_dense; ++d) {
      dense_of[static_cast<std::size_t>(level_nodes[d])] = static_cast<std::int32_t>(d);
    }

    std::vector<double> parent_score(n_dense);
    std::vector<std::uint8_t> may_split(n_dense);
    for (std::size_t d = 0; d < n_dense; ++d) {
      const auto node = static_cast<std::size_t>(level_nodes[d]);
      parent_score[d] = node_g[node] * node_g[node] / (node_h[node] + opt.lambda);
      may_split[d] = node_h[node] >= 2.0 * opt.min_child_weight ? 1 : 0;
    }

    // Sweep every active feature; keep the per-feature best per node and
    // reduce in feature order for determinism.
    std::vector<SplitCandidate> bests(n_feat * n_dense);
    for (std::size_t f = 0; f < n_feat; ++f) {
      if (!in_cols[f]) continue;
      std::vector<double> gl(n_dense, 0.0);
      std::vector<double> hl(n_dense, 0.0);
      std::vector<double> prev(n_dense, 0.0);
      std::vector<std::uint8_t> has_prev(n_dense, 0);
      SplitCandidate* best = &bests[f * n_dense];

      for (const std::uint32_t r : ctx.sorted[f]) {
        const std::int32_t node = node_of[r];
        if (node < 0) continue;
        const std::int32_t d32 = dense_of[static_cast<std::size_t>(node)];
        if (d32 < 0) continue;
        const auto d = static_cast<std::size_t>(d32);
        if (!may_split[d]) continue;
        const double v = x(r, f);
        const auto nid = static_cast<std::size_t>(node);

        if (has_prev[d] && v > prev[d] && hl[d] >= opt.min_child_weight &&
            node_h[nid] - hl[d] >= opt.min_child_weight) {
          const double gr = node_g[nid] - gl[d];
          const double hr = node_h[nid] - hl[d];
          const double gain = 0.5 * (gl[d] * gl[d] / (hl[d] + opt.lambda) +
                                     gr * gr / (hr + opt.lambda) - parent_score[d]) -
                              opt.gamma;
          if (gain > best[d].gain) {
            best[d] = {gain, 0.5 * (prev[d] + v), static_cast<int>(f)};
          }
        }
        gl[d] += g[r];
        hl[d] += h[r];
        prev[d] = v;
        has_prev[d] = 1;
      }
    }

    std::vector<SplitCandidate> winner(n_dense);
    for (std::size_t f = 0; f < n_feat; ++f) {
      for (std::size_t d = 0; d < n_dense; ++d) {
        const SplitCandidate& c = bests[f * n_dense + d];
        if (c.feature >= 0 && c.gain > winner[d].gain) winner[d] = c;
      }
    }

    std::vector<std::int32_t> next_level;
    bool any_split = false;
    for (std::size_t d = 0; d < n_dense; ++d) {
      const SplitCandidate& w = winner[d];
      if (w.feature < 0 || w.gain <= 0.0) continue;
      const auto node = static_cast<std::size_t>(level_nodes[d]);
      tree.nodes[node].feature = w.feature;
      tree.nodes[node].threshold = w.threshold;
      tree.nodes[node].left = static_cast<int>(tree.nodes.size());
      tree.nodes[node].right = static_cast<int>(tree.nodes.size() + 1);
      next_level.push_back(static_cast<std::int32_t>(tree.nodes.size()));
      next_level.push_back(static_cast<std::int32_t>(tree.nodes.size() + 1));
      tree.nodes.emplace_back();
      tree.nodes.emplace_back();
      node_g.resize(tree.nodes.size(), 0.0);
      node_h.resize(tree.nodes.size(), 0.0);
      gain_sum[static_cast<std::size_t>(w.feature)] += w.gain;
      split_count[static_cast<std::size_t>(w.feature)] += 1.0;
      any_split = true;
    }
    if (!any_split) break;

    // Re-partition rows and accumulate child G/H.
    for (std::size_t r = 0; r < n; ++r) {
      const std::int32_t node = node_of[r];
      if (node < 0) continue;
      const GbtNode& parent = tree.nodes[static_cast<std::size_t>(node)];
      if (parent.is_leaf()) continue;
      const std::int32_t child =
          x(r, static_cast<std::size_t>(parent.feature)) <= parent.threshold
              ? parent.left
              : parent.right;
      node_of[r] = child;
      node_g[static_cast<std::size_t>(child)] += g[r];
      node_h[static_cast<std::size_t>(child)] += h[r];
    }
    level_nodes = std::move(next_level);
  }

  // Leaf weights: w* = -G/(H+lambda), shrunk by the learning rate.
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    if (!tree.nodes[i].is_leaf()) continue;
    tree.nodes[i].weight =
        -node_g[i] / (node_h[i] + opt.lambda) * opt.learning_rate;
  }
  return tree;
}

// ---------------------------------------------------------------- kHist ----

/// Per-node histogram: interleaved (G, H) per (feature, bin), laid out
/// raggedly via hist::Layout (width 2) so near-constant features (one-hots,
/// flags) cost a few cells instead of a full max_bins stride.
using Histogram = std::vector<double>;
using hist::SiblingPair;

/// Accumulates rows `node_rows` into `hist` for the features `feats`, row
/// by row over the row-major bins: every cell still receives its rows in
/// node order, one (G, H) pair per row.
void accumulate_rows(const BuildContext& ctx, std::span<const std::uint32_t> feats,
                     std::span<const std::uint32_t> node_rows,
                     std::span<const double> g, std::span<const double> h,
                     double* hist) {
  const std::size_t n_feat = ctx.x.cols();
  for (const std::uint32_t r : node_rows) {
    const std::uint32_t* bins = ctx.row_bins.data() + r * n_feat;
    const double gr = g[r];
    const double hr = h[r];
    for (const std::uint32_t f : feats) {
      double* cell = hist + 2 * static_cast<std::size_t>(bins[f]);
      cell[0] += gr;
      cell[1] += hr;
    }
  }
}

/// Sweeps the bin boundaries of feature f in `hist` and records the best
/// split for a node with totals (sum_g, sum_h). The cumulative left sums
/// accumulate in ascending bin order, so re-summing bins [0, best.bin]
/// later reproduces the winning child sums bit-for-bit.
void best_bin_split(const BinnedMatrix& bm, std::size_t f,
                    const hist::Layout& layout, const Histogram& hist,
                    double sum_g, double sum_h, const GbtOptions& opt,
                    SplitCandidate& best) {
  const FeatureBins& fb = bm.bins(f);
  const int nb = fb.n_bins();
  const double* slice = hist.data() + layout.begin_cell(f);
  const double parent_score = sum_g * sum_g / (sum_h + opt.lambda);
  double gl = 0.0;
  double hl = 0.0;
  for (int b = 0; b + 1 < nb; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    gl += slice[2 * bi];
    hl += slice[2 * bi + 1];
    if (hl < opt.min_child_weight) continue;
    const double hr = sum_h - hl;
    if (hr < opt.min_child_weight) break;  // hl only grows, hr only shrinks
    const double gr = sum_g - gl;
    const double gain = 0.5 * (gl * gl / (hl + opt.lambda) +
                               gr * gr / (hr + opt.lambda) - parent_score) -
                        opt.gamma;
    if (gain > best.gain) {
      best = {gain, fb.thresholds[bi], static_cast<int>(f), b};
    }
  }
}

/// Bookkeeping for one tree level: dense node ids and their histograms.
struct HistLevel {
  std::vector<std::int32_t> nodes;  ///< tree node id per dense index
  std::vector<Histogram> hists;     ///< per dense index
};

/// Level-wise histogram tree builder (kHist). One instance builds one
/// boosted tree; shared per-tree state lives here so each level step stays
/// small. In-sample rows live in a hist::NodePartition: one ascending
/// array, stably partitioned so that every node owns a contiguous range
/// and row order inside a node never depends on the split schedule.
struct HistTreeBuilder {
  const GbtOptions& opt;
  const BuildContext& ctx;
  const BinnedMatrix& bm;
  std::span<const double> g;
  std::span<const double> h;
  std::span<double> gain_sum;
  std::span<double> split_count;
  const hist::Layout& layout;          ///< ragged (G, H) histogram layout
  std::vector<std::uint32_t> active;   ///< this tree's sampled features

  hist::NodePartition part;  ///< in-sample rows, node-partitioned
  /// Out-of-sample rows, split alongside `part` but never accumulated:
  /// their leaf ranges give their prediction update without a tree walk.
  hist::NodePartition held_out;
  GbtTree tree;
  std::vector<double> node_g;  ///< per node id, gradient/hessian totals
  std::vector<double> node_h;

  HistTreeBuilder(const BuildContext& context, const GbtOptions& options,
                  std::span<const double> grad, std::span<const double> hess,
                  std::span<const std::uint8_t> in_sample,
                  std::span<const std::uint8_t> in_cols,
                  std::span<double> gains, std::span<double> counts)
      : opt(options), ctx(context), bm(*context.binned), g(grad), h(hess),
        gain_sum(gains), split_count(counts),
        layout(context.layout) {
    for (std::size_t f = 0; f < in_cols.size(); ++f) {
      if (in_cols[f]) active.push_back(static_cast<std::uint32_t>(f));
    }
    // Branchless split of the rows by the sample mask, ascending on both
    // sides (the write cursors only advance past rows they keep).
    const std::size_t n = ctx.x.rows();
    std::vector<std::uint32_t> rows(n);
    std::vector<std::uint32_t> others(n);
    std::size_t n_in = 0;
    std::size_t n_out = 0;
    for (std::size_t r = 0; r < n; ++r) {
      rows[n_in] = static_cast<std::uint32_t>(r);
      others[n_out] = static_cast<std::uint32_t>(r);
      n_in += in_sample[r] != 0 ? 1 : 0;
      n_out += in_sample[r] != 0 ? 0 : 1;
    }
    rows.resize(n_in);
    others.resize(n_out);
    part.reset(std::move(rows));
    held_out.reset(std::move(others));
    tree.nodes.emplace_back();
    node_g = {0.0};
    node_h = {0.0};
    for (const std::uint32_t r : part.items(0)) {
      node_g[0] += g[r];
      node_h[0] += h[r];
    }
  }

  /// Runs fn(features) over the active features: in pool-sized chunks when
  /// the tree has a pool (single-output fits), else all at once. Each
  /// feature's work is self-contained, so chunking never changes a result.
  template <typename Fn>
  void for_feature_chunks(const Fn& fn) const {
    const std::span<const std::uint32_t> feats(active);
    if (ctx.tree_pool != nullptr && feats.size() > 1) {
      ctx.tree_pool->parallel_chunks(
          0, feats.size(), [&](std::size_t, std::size_t lo, std::size_t hi) {
            fn(feats.subspan(lo, hi - lo));
          });
      return;
    }
    fn(feats);
  }

  /// Records feature f's best bin split for tree node nid, provided the
  /// node has enough hessian mass for two children.
  void sweep_node(std::size_t f, const Histogram& hist, std::size_t nid,
                  SplitCandidate& best) const {
    if (node_h[nid] < 2.0 * opt.min_child_weight) return;
    best_bin_split(bm, f, layout, hist, node_g[nid], node_h[nid], opt, best);
  }

  /// Applies the winning split of dense node d: writes the parent's split,
  /// appends the two children, stably partitions the parent's row range by
  /// bin code, and derives child G/H sums (left by re-summing the winning
  /// histogram prefix — the same additions the sweep performed, so the
  /// totals match it bit-for-bit — right by subtraction).
  void apply_split(const HistLevel& level, std::size_t d, const SplitCandidate& w,
                   HistLevel& next, std::vector<SiblingPair>& pairs) {
    const auto nid = static_cast<std::size_t>(level.nodes[d]);
    const auto left_id = static_cast<int>(tree.nodes.size());
    tree.nodes[nid].feature = w.feature;
    tree.nodes[nid].threshold = w.threshold;
    tree.nodes[nid].left = left_id;
    tree.nodes[nid].right = left_id + 1;
    tree.nodes.emplace_back();
    tree.nodes.emplace_back();

    const std::uint8_t* codes = bm.codes(static_cast<std::size_t>(w.feature));
    const std::size_t left_count = part.split(nid, codes, w.bin);
    held_out.split(nid, codes, w.bin);

    const double* slice = level.hists[d].data() +
                          layout.begin_cell(static_cast<std::size_t>(w.feature));
    double gl = 0.0;
    double hl = 0.0;
    for (int b = 0; b <= w.bin; ++b) {
      gl += slice[2 * static_cast<std::size_t>(b)];
      hl += slice[2 * static_cast<std::size_t>(b) + 1];
    }
    node_g.insert(node_g.end(), {gl, node_g[nid] - gl});
    node_h.insert(node_h.end(), {hl, node_h[nid] - hl});

    const std::size_t left_dense = next.nodes.size();
    next.nodes.push_back(left_id);
    next.nodes.push_back(left_id + 1);
    const bool left_small =
        left_count <= part.count(static_cast<std::size_t>(left_id) + 1);
    pairs.push_back(left_small ? SiblingPair{d, left_dense, left_dense + 1}
                               : SiblingPair{d, left_dense + 1, left_dense});
    gain_sum[static_cast<std::size_t>(w.feature)] += w.gain;
    split_count[static_cast<std::size_t>(w.feature)] += 1.0;
  }

  /// Builds the next level's histograms and that level's per-feature split
  /// candidates: each pair's smaller child is accumulated from its rows,
  /// the larger derived by subtracting it from the parent's histogram
  /// (whose buffer it inherits), and both are swept while still cache-hot.
  /// The candidate reduction happens later in fixed feature order.
  std::vector<SplitCandidate> make_child_level(
      HistLevel& level, HistLevel& next, const std::vector<SiblingPair>& pairs) {
    const std::size_t n_next = next.nodes.size();
    next.hists.resize(n_next);
    for (const SiblingPair& pair : pairs) {
      next.hists[pair.small_dense].assign(layout.cells(), 0.0);
      next.hists[pair.big_dense] = std::move(level.hists[pair.parent_dense]);
    }
    std::vector<SplitCandidate> bests(ctx.x.cols() * n_next);
    for_feature_chunks([&](std::span<const std::uint32_t> feats) {
      for (const SiblingPair& pair : pairs) {
        Histogram& small = next.hists[pair.small_dense];
        Histogram& big = next.hists[pair.big_dense];
        const auto small_nid = static_cast<std::size_t>(next.nodes[pair.small_dense]);
        const auto big_nid = static_cast<std::size_t>(next.nodes[pair.big_dense]);
        accumulate_rows(ctx, feats, part.items(small_nid), g, h, small.data());
        for (const std::uint32_t f : feats) {
          const std::size_t lo_cell = layout.begin_cell(f);
          hist::subtract_sibling(big.data() + lo_cell, small.data() + lo_cell,
                                 layout.feature_cells(f));
          sweep_node(f, small, small_nid, bests[f * n_next + pair.small_dense]);
          sweep_node(f, big, big_nid, bests[f * n_next + pair.big_dense]);
        }
      }
    });
    return bests;
  }

  void build() {
    const std::size_t n_feat = ctx.x.cols();
    HistLevel level;
    level.nodes = {0};
    level.hists.emplace_back(layout.cells(), 0.0);
    std::vector<SplitCandidate> bests(n_feat);
    for_feature_chunks([&](std::span<const std::uint32_t> feats) {
      accumulate_rows(ctx, feats, part.items(0), g, h, level.hists[0].data());
      for (const std::uint32_t f : feats) sweep_node(f, level.hists[0], 0, bests[f]);
    });

    for (int depth = 0; depth < opt.max_depth && !level.nodes.empty(); ++depth) {
      const std::size_t n_dense = level.nodes.size();
      // Reduce the carried per-feature candidates in fixed feature order.
      std::vector<SplitCandidate> winner(n_dense);
      for (std::size_t f = 0; f < n_feat; ++f) {
        for (std::size_t d = 0; d < n_dense; ++d) {
          const SplitCandidate& c = bests[f * n_dense + d];
          if (c.feature >= 0 && c.gain > winner[d].gain) winner[d] = c;
        }
      }
      HistLevel next;
      std::vector<SiblingPair> pairs;
      for (std::size_t d = 0; d < n_dense; ++d) {
        if (winner[d].feature >= 0 && winner[d].gain > 0.0) {
          apply_split(level, d, winner[d], next, pairs);
        }
      }
      if (next.nodes.empty()) break;
      // Children at max depth become leaves; no histograms needed.
      if (depth + 1 < opt.max_depth) {
        bests = make_child_level(level, next, pairs);
      }
      level = std::move(next);
    }

    // Leaf weights: w* = -G/(H+lambda), shrunk by the learning rate.
    for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
      if (!tree.nodes[i].is_leaf()) continue;
      tree.nodes[i].weight =
          -node_g[i] / (node_h[i] + opt.lambda) * opt.learning_rate;
    }
  }

  /// pred[r] += the built tree's output for row r: the weight of the leaf
  /// whose partition range (in-sample or held-out) row r ended in. Each row
  /// receives the single addition a tree walk would give it.
  void add_to(std::span<double> pred) const {
    if (!ctx.codes_route_like_walk) {
      for (std::size_t r = 0; r < pred.size(); ++r) pred[r] += tree.predict(ctx.x.row(r));
      return;
    }
    for (std::size_t nid = 0; nid < tree.nodes.size(); ++nid) {
      if (!tree.nodes[nid].is_leaf()) continue;
      const double w = tree.nodes[nid].weight;
      for (const std::uint32_t r : part.items(nid)) pred[r] += w;
      for (const std::uint32_t r : held_out.items(nid)) pred[r] += w;
    }
  }
};

/// Builds one boosted tree using per-node gradient histograms over the
/// pre-binned features (see the header comment in gbt.hpp) and adds its
/// output to `pred`.
GbtTree build_tree_hist(const BuildContext& ctx, const GbtOptions& opt,
                        std::span<const double> g, std::span<const double> h,
                        std::span<const std::uint8_t> in_sample,
                        std::span<const std::uint8_t> in_cols,
                        std::span<double> gain_sum, std::span<double> split_count,
                        std::span<double> pred) {
  HistTreeBuilder builder(ctx, opt, g, h, in_sample, in_cols, gain_sum, split_count);
  builder.build();
  builder.add_to(pred);
  // The model keeps every tree, so drop the node vector's growth slack.
  builder.tree.nodes.shrink_to_fit();
  return std::move(builder.tree);
}

/// Per-tree subsampling mask: marks `sampled` of `total` entries drawn
/// without replacement, or everything when subsampling is off (in which
/// case the RNG is deliberately not advanced — matching the resume
/// burn-in, which skips the draw under the same condition).
void fill_sample_mask(Rng& rng, std::vector<std::uint8_t>& mask,
                      std::size_t total, std::size_t sampled) {
  if (sampled < total) {
    std::fill(mask.begin(), mask.end(), std::uint8_t{0});
    for (const std::size_t i : sample_without_replacement(rng, total, sampled)) {
      mask[i] = 1;
    }
  } else {
    std::fill(mask.begin(), mask.end(), std::uint8_t{1});
  }
}

/// Gradient/hessian of the objective at residual r = pred - y.
inline void gradients(GbtObjective objective, double delta, double pred, double y,
                      double& g, double& h) noexcept {
  const double r = pred - y;
  if (objective == GbtObjective::kSquaredError) {
    g = r;
    h = 1.0;
    return;
  }
  // Pseudo-Huber: L = delta^2 (sqrt(1+(r/delta)^2) - 1); smooth |r|.
  const double s = 1.0 + (r / delta) * (r / delta);
  const double sq = std::sqrt(s);
  g = r / sq;
  h = 1.0 / (s * sq);
}

/// Structural validation of an untrusted (deserialized) tree. GbtTree::
/// predict indexes nodes unchecked and follows child links in a loop, so a
/// corrupt model could otherwise read out of bounds or cycle forever:
/// every internal node must reference a real feature, split on a finite
/// threshold (CompiledEnsemble sorts each feature's thresholds into a cut
/// table; NaN breaks that ordering) and link strictly-forward in-range
/// children (forward links make the node graph acyclic), no node may have
/// two parents (the compiled engine relays trees out breadth-first), and
/// leaves must not carry children.
void validate_tree_topology(const GbtTree& tree, std::size_t n_feat) {
  const auto n_nodes = static_cast<long long>(tree.nodes.size());
  std::vector<bool> has_parent(tree.nodes.size(), false);
  for (std::size_t node = 0; node < tree.nodes.size(); ++node) {
    const GbtNode& gn = tree.nodes[node];
    const auto at = [node] { return "gbt: node " + std::to_string(node); };
    if (gn.is_leaf()) {
      if (gn.left != -1 || gn.right != -1) {
        throw ParseError(at() + ": leaf has child links");
      }
      continue;
    }
    if (static_cast<std::size_t>(gn.feature) >= n_feat) {
      throw ParseError(at() + ": feature " + std::to_string(gn.feature) +
                       " out of range");
    }
    if (!std::isfinite(gn.threshold)) {
      throw ParseError(at() + ": non-finite threshold");
    }
    const auto self = static_cast<long long>(node);
    if (gn.left <= self || gn.left >= n_nodes || gn.right <= self ||
        gn.right >= n_nodes) {
      throw ParseError(at() + ": child links must point forward and in range");
    }
    for (const int child : {gn.left, gn.right}) {
      if (has_parent[static_cast<std::size_t>(child)]) {
        throw ParseError(at() + ": node " + std::to_string(child) +
                         " has more than one parent");
      }
      has_parent[static_cast<std::size_t>(child)] = true;
    }
  }
}

}  // namespace

void GbtRegressor::fit(const Matrix& x, const Matrix& y, ThreadPool* pool) {
  // fit() always starts fresh — drop any previous (or partial) state so
  // fit_resumable does not mistake it for a checkpoint to resume.
  ensembles_.clear();
  base_score_.clear();
  gain_sum_.clear();
  split_count_.clear();
  gain_by_output_.clear();
  count_by_output_.clear();
  fit_resumable(x, y, 0, nullptr, pool);
}

void GbtRegressor::fit_resumable(const Matrix& x, const Matrix& y,
                                 int checkpoint_every,
                                 const ProgressFn& on_checkpoint, ThreadPool* pool) {
  fit_impl(x, y, checkpoint_every, on_checkpoint, pool, /*warm=*/false);
}

void GbtRegressor::warm_start_fit(const Matrix& x, const Matrix& y,
                                  int extra_rounds, ThreadPool* pool) {
  MPHPC_EXPECTS(fitted());
  MPHPC_EXPECTS(extra_rounds >= 1);
  MPHPC_EXPECTS(x.cols() == n_features_ && y.cols() == ensembles_.size());
  options_.n_rounds = rounds_completed() + extra_rounds;
  fit_impl(x, y, /*checkpoint_every=*/0, nullptr, pool, /*warm=*/true);
}

void GbtRegressor::fit_impl(const Matrix& x, const Matrix& y,
                            int checkpoint_every,
                            const ProgressFn& on_checkpoint, ThreadPool* pool,
                            bool warm) {
  MPHPC_EXPECTS(x.rows() == y.rows() && x.rows() > 0 && x.cols() > 0 && y.cols() > 0);
  MPHPC_EXPECTS(options_.n_rounds >= 1 && options_.max_depth >= 1);
  MPHPC_EXPECTS(options_.subsample > 0.0 && options_.subsample <= 1.0);
  MPHPC_EXPECTS(options_.colsample > 0.0 && options_.colsample <= 1.0);
  MPHPC_EXPECTS(options_.tree_method == GbtTreeMethod::kExact || options_.max_bins == 0 ||
                (options_.max_bins >= 2 && options_.max_bins <= BinnedMatrix::kMaxBins));
  MPHPC_EXPECTS(checkpoint_every >= 0);

  const std::size_t n = x.rows();
  const std::size_t n_feat = x.cols();
  const std::size_t n_out = y.cols();

  const int start_round = begin_fit(n_feat, n_out);

  // One level of parallelism: a multi-output fit runs its outputs on the
  // pool and builds each tree serially; a single-output fit spreads each
  // tree's split search across features instead.
  ThreadPool* const output_pool = n_out > 1 ? pool : nullptr;
  GbtOptions build_opt = options_;
  build_opt.max_bins = resolve_max_bins(options_.max_bins, n);
  const BuildContext ctx(x, build_opt, pool, output_pool != nullptr ? nullptr : pool);

  const auto n_cols_sampled = static_cast<std::size_t>(std::max(
      1.0, std::round(options_.colsample * static_cast<double>(n_feat))));
  const auto n_rows_sampled = static_cast<std::size_t>(
      std::max(1.0, std::round(options_.subsample * static_cast<double>(n))));

  // Per-output training state, carried across checkpoint blocks so block
  // boundaries never change the arithmetic.
  struct OutputState {
    std::vector<double> pred;
    std::vector<double> g;
    std::vector<double> h;
    std::vector<std::uint8_t> in_sample;
    std::vector<std::uint8_t> in_cols;
    Rng rng{0};
  };
  std::vector<OutputState> states(n_out);

  const auto init_output = [&](std::size_t k) {
    OutputState& st = states[k];
    if (!warm) {
      // Base score: mean target of this output (recomputed identically on
      // resume — the data is the same fit's data). A warm start keeps the
      // fitted base score instead: the stored trees were built against it,
      // and the new window's mean would shift their implicit target.
      double mean = 0.0;
      for (std::size_t r = 0; r < n; ++r) mean += y(r, k);
      mean /= static_cast<double>(n);
      base_score_[k] = mean;
    }

    st.pred.assign(n, base_score_[k]);
    st.g.resize(n);
    st.h.resize(n);
    st.in_sample.resize(n);
    st.in_cols.resize(n_feat);
    ensembles_[k].reserve(static_cast<std::size_t>(options_.n_rounds));

    if (warm) {
      // Fresh stream per (output, generation): the prior rounds' draws
      // were made against a different window, so replaying them would be
      // meaningless — keying on start_round keeps every refit generation
      // deterministic and distinct.
      st.rng = Rng(derive_seed(options_.seed, "warm",
                               static_cast<std::uint64_t>(k),
                               static_cast<std::uint64_t>(start_round)));
    } else {
      st.rng = Rng(derive_seed(options_.seed, "output", static_cast<std::uint64_t>(k)));
      // Resume burn-in: replay the completed rounds' sampling draws so
      // the RNG stream continues exactly where the interrupted fit
      // stopped.
      for (int round = 0; round < start_round; ++round) {
        if (n_rows_sampled < n) {
          (void)sample_without_replacement(st.rng, n, n_rows_sampled);
        }
        if (n_cols_sampled < n_feat) {
          (void)sample_without_replacement(st.rng, n_feat, n_cols_sampled);
        }
      }
    }
    // Rebuild pred by re-adding the stored trees in round order (resume:
    // the same additions the original fit performed; warm: the ensemble's
    // predictions on the new window).
    for (int round = 0; round < start_round; ++round) {
      const GbtTree& tree = ensembles_[k][static_cast<std::size_t>(round)];
      for (std::size_t r = 0; r < n; ++r) st.pred[r] += tree.predict(x.row(r));
    }
  };

  const auto fit_rounds = [&](std::size_t k, int from, int to) {
    OutputState& st = states[k];
    auto& ensemble = ensembles_[k];
    for (int round = from; round < to; ++round) {
      for (std::size_t r = 0; r < n; ++r) {
        gradients(options_.objective, options_.huber_delta, st.pred[r], y(r, k),
                  st.g[r], st.h[r]);
      }

      fill_sample_mask(st.rng, st.in_sample, n, n_rows_sampled);
      fill_sample_mask(st.rng, st.in_cols, n_feat, n_cols_sampled);

      if (options_.tree_method == GbtTreeMethod::kHist) {
        ensemble.push_back(build_tree_hist(ctx, build_opt, st.g, st.h, st.in_sample,
                                           st.in_cols, gain_by_output_[k],
                                           count_by_output_[k], st.pred));
      } else {
        GbtTree tree = build_tree_exact(ctx, build_opt, st.g, st.h, st.in_sample, st.in_cols,
                                        gain_by_output_[k], count_by_output_[k]);
        for (std::size_t r = 0; r < n; ++r) st.pred[r] += tree.predict(x.row(r));
        ensemble.push_back(std::move(tree));
      }
    }
  };

  const auto over_outputs = [&](const std::function<void(std::size_t)>& fn) {
    if (output_pool != nullptr) {
      output_pool->parallel_for(0, n_out, fn);
    } else {
      for (std::size_t k = 0; k < n_out; ++k) fn(k);
    }
  };

  over_outputs(init_output);

  const int block = checkpoint_every > 0 ? checkpoint_every : options_.n_rounds;
  for (int from = start_round; from < options_.n_rounds; from += block) {
    const int to = std::min(options_.n_rounds, from + block);
    over_outputs([&](std::size_t k) { fit_rounds(k, from, to); });
    if (on_checkpoint && to < options_.n_rounds) {
      // Keep the merged importances consistent before the caller
      // serializes the partial model.
      merge_importances();
      on_checkpoint(to);
    }
  }

  merge_importances();
}

int GbtRegressor::begin_fit(std::size_t n_feat, std::size_t n_out) {
  if (fitted()) {
    // Resume: the model holds the first rounds_completed() trees of the
    // very fit being continued. The shapes must match the data, and the
    // per-output importance accumulators must have survived the
    // round-trip (they are required to keep FP accumulation order).
    MPHPC_EXPECTS(n_features_ == n_feat && ensembles_.size() == n_out);
    const int start_round = rounds_completed();
    for (const auto& ensemble : ensembles_) {
      MPHPC_EXPECTS(ensemble.size() == static_cast<std::size_t>(start_round));
    }
    MPHPC_EXPECTS(start_round <= options_.n_rounds);
    MPHPC_EXPECTS(gain_by_output_.size() == n_out &&
                  count_by_output_.size() == n_out);
    return start_round;
  }
  n_features_ = n_feat;
  ensembles_.assign(n_out, {});
  base_score_.assign(n_out, 0.0);
  gain_by_output_.assign(n_out, std::vector<double>(n_feat, 0.0));
  count_by_output_.assign(n_out, std::vector<double>(n_feat, 0.0));
  return 0;
}

void GbtRegressor::merge_importances() {
  gain_sum_.assign(n_features_, 0.0);
  split_count_.assign(n_features_, 0.0);
  for (std::size_t k = 0; k < gain_by_output_.size(); ++k) {
    for (std::size_t f = 0; f < n_features_; ++f) {
      gain_sum_[f] += gain_by_output_[k][f];
      split_count_[f] += count_by_output_[k][f];
    }
  }
}

Matrix GbtRegressor::predict(const Matrix& x) const {
  MPHPC_EXPECTS(fitted());
  MPHPC_EXPECTS(x.cols() == n_features_);
  const std::size_t n_out = ensembles_.size();
  Matrix out(x.rows(), n_out);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto xr = x.row(r);
    for (std::size_t k = 0; k < n_out; ++k) {
      double v = base_score_[k];
      for (const GbtTree& tree : ensembles_[k]) v += tree.predict(xr);
      out(r, k) = v;
    }
  }
  return out;
}

std::optional<std::vector<double>> GbtRegressor::feature_importances() const {
  if (!fitted()) return std::nullopt;
  std::vector<double> imp(n_features_, 0.0);
  for (std::size_t f = 0; f < n_features_; ++f) {
    if (split_count_[f] > 0.0) imp[f] = gain_sum_[f] / split_count_[f];
  }
  const double total = std::accumulate(imp.begin(), imp.end(), 0.0);
  if (total > 0.0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}

namespace {

/// Appends the decimal or shortest round-trip text of `v` (the same bytes
/// as std::to_string for integers and format_double for doubles).
template <typename T>
void append_number(std::string& out, T v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Appends "<key>[ <index>] v0 v1 ...\n".
void append_values_line(std::string& out, std::string_view key,
                        const std::vector<double>& values,
                        std::optional<std::size_t> index = std::nullopt) {
  out += key;
  if (index) {
    out += ' ';
    append_number(out, *index);
  }
  for (const double v : values) {
    out += ' ';
    append_number(out, v);
  }
  out += '\n';
}

/// Writes `v` then `sep` at p and returns the end; the caller's buffer
/// always has room (to_chars reports a short buffer, checked here).
template <typename T>
char* put_field(char* p, char* end, T v, char sep) {
  const auto res = std::to_chars(p, end - 1, v);
  MPHPC_ASSERT(res.ec == std::errc{});
  *res.ptr = sep;
  return res.ptr + 1;
}

/// Appends one node line, "feature threshold left right weight\n",
/// formatted in place on the stack and copied once.
void append_node_line(std::string& out, const GbtNode& node) {
  // Five fields of at most 11 (int) or 24 (shortest double) characters.
  char buf[128];
  char* const end = buf + sizeof buf;
  char* p = put_field(buf, end, node.feature, ' ');
  p = put_field(p, end, node.threshold, ' ');
  p = put_field(p, end, node.left, ' ');
  p = put_field(p, end, node.right, ' ');
  p = put_field(p, end, node.weight, '\n');
  out.append(buf, p);
}

/// Walks model text line by line without copying: each line is trimmed
/// of ASCII whitespace (as trim() does, so "\r\n" endings and padded lines
/// read like plain ones) and blank lines are skipped.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text)
      : rest_(text),
        lines_left_(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) +
                    1) {}

  /// The next non-blank line, consumed; throws at the end of the text.
  std::string_view next() {
    const std::string_view line = peek();
    if (line.empty()) throw ParseError("gbt: truncated model");
    take();
    return line;
  }

  /// The next non-blank line without consuming it; empty at the end.
  std::string_view peek() {
    while (lines_left_ > 0) {
      eol_ = rest_.find('\n');
      const std::string_view line = trim(rest_.substr(0, eol_));
      if (!line.empty()) return line;
      take();
    }
    return {};
  }

  /// Lines not yet consumed, blank ones included.
  [[nodiscard]] std::size_t lines_left() const noexcept { return lines_left_; }

 private:
  /// Consumes the line peek() just found.
  void take() {
    rest_ = eol_ == std::string_view::npos ? std::string_view{} : rest_.substr(eol_ + 1);
    --lines_left_;
  }

  std::string_view rest_;
  std::size_t lines_left_;
  std::size_t eol_ = std::string_view::npos;  ///< end of the line peek() found
};

/// The ' '-separated fields of one line, as split(line, ' ') gives them
/// (empty fields included), without copying.
class Fields {
 public:
  explicit Fields(std::string_view line)
      : rest_(line),
        size_(static_cast<std::size_t>(std::count(line.begin(), line.end(), ' ')) + 1) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The next field; call at most size() times.
  std::string_view next() {
    const std::size_t sep = rest_.find(' ');
    const std::string_view field = rest_.substr(0, sep);
    rest_ = sep == std::string_view::npos ? std::string_view{} : rest_.substr(sep + 1);
    return field;
  }

 private:
  std::string_view rest_;
  std::size_t size_;
};

/// Reads a "<key> v0 v1 ..." line of exactly `n` doubles into `out`.
bool read_values_line(std::string_view line, std::string_view key, std::size_t n,
                      std::vector<double>& out) {
  Fields fields(line);
  if (fields.size() != n + 1 || fields.next() != key) return false;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(parse_double(fields.next()));
  return true;
}

/// Reads a "<key> <index> v0 v1 ..." line of exactly `n` doubles.
bool read_indexed_values_line(std::string_view line, std::string_view key,
                              std::size_t index, std::size_t n,
                              std::vector<double>& out) {
  Fields fields(line);
  if (fields.size() != n + 2 || fields.next() != key ||
      parse_int(fields.next()) != static_cast<long long>(index)) {
    return false;
  }
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(parse_double(fields.next()));
  return true;
}

}  // namespace

std::string GbtRegressor::serialize() const {
  std::string out;
  serialize_to(out);
  return out;
}

void GbtRegressor::serialize_to(std::string& out) const {
  MPHPC_EXPECTS(fitted());
  std::size_t n_nodes = 0;
  for (const auto& ensemble : ensembles_) {
    for (const GbtTree& tree : ensemble) n_nodes += tree.nodes.size();
  }
  // ~32 bytes per node line and per header value is typical; a longer
  // model just grows the buffer once more.
  const std::size_t n_values = (2 + 2 * ensembles_.size()) * n_features_;
  out.reserve(out.size() + 40 * n_nodes + 32 * n_values + 256);

  out += "gbt ";
  append_number(out, ensembles_.size());
  out += ' ';
  append_number(out, n_features_);
  out += "\nmethod ";
  out += options_.tree_method == GbtTreeMethod::kHist ? "hist" : "exact";
  out += ' ';
  append_number(out, options_.max_bins);
  out += '\n';
  append_values_line(out, "base", base_score_);
  append_values_line(out, "importance_gain", gain_sum_);
  append_values_line(out, "importance_count", split_count_);
  // Per-output accumulators (checkpoint resume needs them to continue
  // the exact FP accumulation order). Older models without them still
  // load; they just cannot seed a resumed fit.
  if (gain_by_output_.size() == ensembles_.size()) {
    for (std::size_t k = 0; k < ensembles_.size(); ++k) {
      append_values_line(out, "importance_gain_out", gain_by_output_[k], k);
      append_values_line(out, "importance_count_out", count_by_output_[k], k);
    }
  }
  for (std::size_t k = 0; k < ensembles_.size(); ++k) {
    for (const GbtTree& tree : ensembles_[k]) {
      out += "tree ";
      append_number(out, k);
      out += ' ';
      append_number(out, tree.nodes.size());
      out += '\n';
      for (const GbtNode& node : tree.nodes) append_node_line(out, node);
    }
  }
}

GbtRegressor GbtRegressor::deserialize(std::string_view text) {
  LineCursor lines(text);

  Fields header(lines.next());
  if (header.size() != 3 || header.next() != "gbt") throw ParseError("gbt: bad header");
  const long long n_out_raw = parse_int(header.next());
  const long long n_feat_raw = parse_int(header.next());
  if (n_out_raw < 1 || n_feat_raw < 1) {
    throw ParseError("gbt: header output/feature counts must be positive");
  }
  const auto n_out = static_cast<std::size_t>(n_out_raw);
  const auto n_feat = static_cast<std::size_t>(n_feat_raw);

  GbtRegressor model;
  model.n_features_ = n_feat;

  // Optional method line (older serialized models omit it).
  std::string_view line = lines.next();
  if (Fields method(line); method.next() == "method") {
    if (method.size() != 3) throw ParseError("gbt: bad method line");
    const std::string_view name = method.next();
    if (name == "hist") {
      model.options_.tree_method = GbtTreeMethod::kHist;
    } else if (name == "exact") {
      model.options_.tree_method = GbtTreeMethod::kExact;
    } else {
      throw ParseError("gbt: unknown tree method '" + std::string(name) + "'");
    }
    const long long bins = parse_int(method.next());
    // 0 is the auto sentinel (resolve_max_bins scales with the fit's rows).
    if (bins != 0 && (bins < 2 || bins > BinnedMatrix::kMaxBins)) {
      throw ParseError("gbt: max_bins out of range");
    }
    model.options_.max_bins = static_cast<int>(bins);
    line = lines.next();
  }
  if (!read_values_line(line, "base", n_out, model.base_score_)) {
    throw ParseError("gbt: bad base");
  }
  const std::string_view gains = lines.next();
  const std::string_view counts = lines.next();
  if (!read_values_line(gains, "importance_gain", n_feat, model.gain_sum_)) {
    throw ParseError("gbt: bad importance_gain");
  }
  if (!read_values_line(counts, "importance_count", n_feat, model.split_count_)) {
    throw ParseError("gbt: bad importance_count");
  }

  // Optional per-output accumulator lines (models serialized before the
  // checkpoint format omit them).
  if (lines.peek().starts_with("importance_gain_out")) {
    model.gain_by_output_.assign(n_out, {});
    model.count_by_output_.assign(n_out, {});
    for (std::size_t k = 0; k < n_out; ++k) {
      if (!read_indexed_values_line(lines.next(), "importance_gain_out", k, n_feat,
                                    model.gain_by_output_[k])) {
        throw ParseError("gbt: bad importance_gain_out");
      }
      if (!read_indexed_values_line(lines.next(), "importance_count_out", k, n_feat,
                                    model.count_by_output_[k])) {
        throw ParseError("gbt: bad importance_count_out");
      }
    }
  }

  model.ensembles_.assign(n_out, {});
  while (!lines.peek().empty()) {
    Fields tree_header(lines.next());
    if (tree_header.size() != 3 || tree_header.next() != "tree") {
      throw ParseError("gbt: bad tree header");
    }
    const long long output_raw = parse_int(tree_header.next());
    const long long n_nodes_raw = parse_int(tree_header.next());
    if (output_raw < 0 || static_cast<std::size_t>(output_raw) >= n_out) {
      throw ParseError("gbt: tree output out of range");
    }
    // Every node takes one line, so a sane node count cannot exceed the
    // remaining input (guards reserve() against absurd corrupt headers).
    if (n_nodes_raw < 1 || static_cast<std::size_t>(n_nodes_raw) > lines.lines_left()) {
      throw ParseError("gbt: bad tree node count " + std::to_string(n_nodes_raw));
    }
    const auto output = static_cast<std::size_t>(output_raw);
    const auto n_nodes = static_cast<std::size_t>(n_nodes_raw);
    GbtTree tree;
    tree.nodes.reserve(n_nodes);
    for (std::size_t node = 0; node < n_nodes; ++node) {
      Fields parts(lines.next());
      if (parts.size() != 5) throw ParseError("gbt: bad node");
      GbtNode gn;
      gn.feature = parse_int32(parts.next());
      gn.threshold = parse_double(parts.next());
      gn.left = parse_int32(parts.next());
      gn.right = parse_int32(parts.next());
      gn.weight = parse_double(parts.next());
      tree.nodes.push_back(gn);
    }
    validate_tree_topology(tree, n_feat);
    model.ensembles_[output].push_back(std::move(tree));
  }
  for (const auto& ensemble : model.ensembles_) {
    if (ensemble.empty()) throw ParseError("gbt: missing ensemble for an output");
  }
  // Round-trip invariant: a deserialized model is immediately usable and
  // re-serializes to an equivalent model (predict needs these to hold).
  MPHPC_ENSURES(model.fitted());
  MPHPC_ENSURES(model.base_score_.size() == model.ensembles_.size());
  MPHPC_ENSURES(model.gain_sum_.size() == model.n_features_ &&
                model.split_count_.size() == model.n_features_);
  return model;
}

}  // namespace mphpc::ml
