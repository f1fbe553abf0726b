// Tests for src/ml: metrics, the model zoo, and training behaviour on
// synthetic problems with known structure.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "arch/system_catalog.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "core/dataset.hpp"
#include "ml/binning.hpp"
#include "ml/compiled_ensemble.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbt.hpp"
#include "ml/linear_regressor.hpp"
#include "ml/mean_regressor.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "sim/runner.hpp"
#include "workload/app_catalog.hpp"

namespace mphpc::ml {
namespace {

// Builds a synthetic regression problem: y0 = 3*x0 - 2*x1 + 1,
// y1 = step(x0 > 0.5) * 4 (nonlinear), with optional noise.
struct Problem {
  Matrix x;
  Matrix y;
};

Problem make_problem(std::size_t n, double noise, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 3);
  Matrix y(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    const double x2 = rng.uniform();  // irrelevant feature
    x(r, 0) = x0;
    x(r, 1) = x1;
    x(r, 2) = x2;
    y(r, 0) = 3.0 * x0 - 2.0 * x1 + 1.0 + noise * (rng.uniform() - 0.5);
    y(r, 1) = (x0 > 0.5 ? 4.0 : 0.0) + noise * (rng.uniform() - 0.5);
  }
  return {std::move(x), std::move(y)};
}

// ---------------------------------------------------------------- matrix ----

TEST(Matrix, ShapeAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_EQ(m.at(1, 2), 5.0);
  EXPECT_THROW(m.at(2, 0), ContractViolation);
}

TEST(Matrix, AdoptsData) {
  const Matrix m(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_THROW(Matrix(2, 2, {1.0}), ContractViolation);
}

TEST(Matrix, SelectRows) {
  const Matrix m(3, 2, {1, 2, 3, 4, 5, 6});
  const std::vector<std::size_t> rows = {2, 0};
  const Matrix s = m.select_rows(rows);
  EXPECT_EQ(s(0, 0), 5.0);
  EXPECT_EQ(s(1, 1), 2.0);
}

TEST(Matrix, Column) {
  const Matrix m(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(m.column(1), (std::vector<double>{2, 4}));
}

// --------------------------------------------------------------- metrics ----

TEST(Metrics, MaeExactValues) {
  const Matrix truth(2, 2, {1, 2, 3, 4});
  const Matrix pred(2, 2, {1, 3, 3, 2});
  EXPECT_DOUBLE_EQ(mean_absolute_error(truth, pred), (0 + 1 + 0 + 2) / 4.0);
}

TEST(Metrics, MaeZeroOnPerfect) {
  const Matrix m(3, 1, {1, 2, 3});
  EXPECT_EQ(mean_absolute_error(m, m), 0.0);
  EXPECT_EQ(root_mean_squared_error(m, m), 0.0);
}

TEST(Metrics, RmseExact) {
  const Matrix truth(1, 2, {0, 0});
  const Matrix pred(1, 2, {3, 4});
  EXPECT_DOUBLE_EQ(root_mean_squared_error(truth, pred), std::sqrt(12.5));
}

TEST(Metrics, R2PerfectIsOne) {
  const Matrix m(4, 1, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(r2_score(m, m), 1.0);
}

TEST(Metrics, R2MeanPredictionIsZero) {
  const Matrix truth(4, 1, {1, 2, 3, 4});
  const Matrix pred(4, 1, {2.5, 2.5, 2.5, 2.5});
  EXPECT_NEAR(r2_score(truth, pred), 0.0, 1e-12);
}

TEST(Metrics, ShapeMismatchThrows) {
  const Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(mean_absolute_error(a, b), ContractViolation);
}

TEST(SameOrder, DetectsMatchingOrder) {
  const std::vector<double> a = {1.0, 0.8, 2.1, 1.5};
  const std::vector<double> b = {1.1, 0.7, 3.0, 1.2};  // same ranking
  EXPECT_TRUE(same_order(a, b));
  const std::vector<double> c = {1.1, 0.7, 1.0, 1.2};  // different ranking
  EXPECT_FALSE(same_order(a, c));
}

TEST(SameOrder, SingleElementAlwaysMatches) {
  const std::vector<double> a = {5.0};
  const std::vector<double> b = {-1.0};
  EXPECT_TRUE(same_order(a, b));
}

TEST(SameOrderScore, CountsMatchingRows) {
  const Matrix truth(2, 3, {1, 2, 3,  3, 2, 1});
  const Matrix pred(2, 3, {10, 20, 30,  1, 2, 3});  // first matches, second not
  EXPECT_DOUBLE_EQ(same_order_score(truth, pred), 0.5);
}

// ---------------------------------------------------------------- models ----

TEST(MeanRegressor, PredictsColumnMeans) {
  const Problem p = make_problem(100, 0.0, 1);
  MeanRegressor model;
  model.fit(p.x, p.y);
  const Matrix pred = model.predict(p.x);
  for (std::size_t c = 0; c < p.y.cols(); ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < p.y.rows(); ++r) mean += p.y(r, c);
    mean /= static_cast<double>(p.y.rows());
    EXPECT_NEAR(pred(0, c), mean, 1e-12);
    EXPECT_EQ(pred(0, c), pred(99, c));
  }
}

TEST(MeanRegressor, SerializeRoundTrips) {
  const Problem p = make_problem(50, 0.0, 2);
  MeanRegressor model;
  model.fit(p.x, p.y);
  const MeanRegressor restored = MeanRegressor::deserialize(model.serialize());
  EXPECT_EQ(restored.mean(), model.mean());
}

TEST(MeanRegressor, UnfittedPredictThrows) {
  const MeanRegressor model;
  EXPECT_THROW(model.predict(Matrix(1, 1)), ContractViolation);
}

TEST(Cholesky, SolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
  Matrix a(2, 2, {4, 2, 2, 3});
  Matrix b(2, 1, {10, 8});
  cholesky_solve_in_place(a, b);
  EXPECT_NEAR(b(0, 0), 1.75, 1e-12);
  EXPECT_NEAR(b(1, 0), 1.5, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2, {1, 2, 2, 1});  // eigenvalues 3, -1
  Matrix b(2, 1, {1, 1});
  EXPECT_THROW(cholesky_solve_in_place(a, b), ContractViolation);
}

TEST(LinearRegressor, RecoversLinearFunction) {
  const Problem p = make_problem(500, 0.0, 3);
  LinearRegressor model;
  model.fit(p.x, p.y);
  // Output 0 is exactly linear: weights 3, -2, 0, intercept 1.
  EXPECT_NEAR(model.weights()(0, 0), 3.0, 1e-6);
  EXPECT_NEAR(model.weights()(1, 0), -2.0, 1e-6);
  EXPECT_NEAR(model.weights()(2, 0), 0.0, 1e-6);
  EXPECT_NEAR(model.weights()(3, 0), 1.0, 1e-6);
  const Matrix pred = model.predict(p.x);
  double max_err = 0.0;
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    max_err = std::max(max_err, std::abs(pred(r, 0) - p.y(r, 0)));
  }
  EXPECT_LT(max_err, 1e-6);
}

TEST(LinearRegressor, SerializeRoundTrips) {
  const Problem p = make_problem(100, 0.1, 4);
  LinearRegressor model;
  model.fit(p.x, p.y);
  const LinearRegressor restored = LinearRegressor::deserialize(model.serialize());
  const Matrix a = model.predict(p.x);
  const Matrix b = restored.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flat()[i], b.flat()[i]);
  }
}

TEST(LinearRegressor, DeserializeRejectsGarbage) {
  EXPECT_THROW(LinearRegressor::deserialize(""), ParseError);
  EXPECT_THROW(LinearRegressor::deserialize("2 2\n1 2\n"), ParseError);
}

// --------------------------------------------------------- decision tree ----

TEST(DecisionTree, FitsStepFunctionExactly) {
  const Problem p = make_problem(400, 0.0, 5);
  DecisionTree tree;
  tree.fit(p.x, p.y);
  const Matrix pred = tree.predict(p.x);
  // Output 1 is a step on x0: a tree should nail it.
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    EXPECT_NEAR(pred(r, 1), p.y(r, 1), 1e-9);
  }
}

TEST(DecisionTree, RespectsMaxDepth) {
  const Problem p = make_problem(400, 0.0, 6);
  TreeOptions options;
  options.max_depth = 3;
  DecisionTree tree(options);
  tree.fit(p.x, p.y);
  EXPECT_LE(tree.depth(), 3u);
}

TEST(DecisionTree, RespectsMinSamplesLeaf) {
  const Problem p = make_problem(100, 0.5, 7);
  TreeOptions options;
  options.min_samples_leaf = 10;
  DecisionTree tree(options);
  tree.fit(p.x, p.y);
  // Count rows per leaf via prediction paths.
  std::vector<int> count(tree.nodes().size(), 0);
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    std::size_t i = 0;
    while (!tree.nodes()[i].is_leaf()) {
      const auto& node = tree.nodes()[i];
      i = static_cast<std::size_t>(
          p.x(r, static_cast<std::size_t>(node.feature)) <= node.threshold
              ? node.left
              : node.right);
    }
    count[i]++;
  }
  for (std::size_t i = 0; i < count.size(); ++i) {
    if (tree.nodes()[i].is_leaf()) {
      EXPECT_GE(count[i], 10);
    }
  }
}

TEST(DecisionTree, PredictionsWithinTargetRange) {
  // Regression-tree leaves are means, so predictions stay in [min, max].
  const Problem p = make_problem(300, 1.0, 8);
  DecisionTree tree;
  tree.fit(p.x, p.y);
  double lo = 1e300;
  double hi = -1e300;
  for (const double v : p.y.flat()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const Matrix pred = tree.predict(p.x);
  for (const double v : pred.flat()) {
    EXPECT_GE(v, lo - 1e-9);
    EXPECT_LE(v, hi + 1e-9);
  }
}

TEST(DecisionTree, ImportancesIdentifyRelevantFeatures) {
  const Problem p = make_problem(500, 0.0, 9);
  DecisionTree tree;
  tree.fit(p.x, p.y);
  const auto imp = tree.feature_importances();
  ASSERT_TRUE(imp.has_value());
  ASSERT_EQ(imp->size(), 3u);
  EXPECT_NEAR((*imp)[0] + (*imp)[1] + (*imp)[2], 1.0, 1e-9);
  // x2 is irrelevant; x0 drives both outputs.
  EXPECT_GT((*imp)[0], (*imp)[2]);
  EXPECT_LT((*imp)[2], 0.05);
}

TEST(DecisionTree, DeterministicAcrossThreadCounts) {
  const Problem p = make_problem(300, 0.3, 10);
  DecisionTree serial;
  serial.fit(p.x, p.y, nullptr);
  ThreadPool pool(4);
  DecisionTree parallel;
  parallel.fit(p.x, p.y, &pool);
  const Matrix a = serial.predict(p.x);
  const Matrix b = parallel.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) EXPECT_EQ(a.flat()[i], b.flat()[i]);
}

TEST(DecisionTree, FitRowsSubset) {
  const Problem p = make_problem(200, 0.0, 11);
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < 100; ++r) rows.push_back(r);
  DecisionTree tree;
  tree.fit_rows(p.x, p.y, rows);
  EXPECT_TRUE(tree.fitted());
}

// ---------------------------------------------------------------- forest ----

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  const Problem train = make_problem(600, 2.0, 12);
  const Problem test = make_problem(200, 0.0, 13);  // noise-free ground truth
  TreeOptions tree_options;
  DecisionTree tree(tree_options);
  tree.fit(train.x, train.y);
  ForestOptions forest_options;
  forest_options.n_trees = 50;
  RandomForest forest(forest_options);
  forest.fit(train.x, train.y);
  const double tree_mae = mean_absolute_error(test.y, tree.predict(test.x));
  const double forest_mae = mean_absolute_error(test.y, forest.predict(test.x));
  EXPECT_LT(forest_mae, tree_mae);
}

TEST(RandomForest, DeterministicAcrossThreadCounts) {
  const Problem p = make_problem(200, 0.5, 14);
  ForestOptions options;
  options.n_trees = 10;
  RandomForest serial(options);
  serial.fit(p.x, p.y, nullptr);
  ThreadPool pool(3);
  RandomForest parallel(options);
  parallel.fit(p.x, p.y, &pool);
  const Matrix a = serial.predict(p.x);
  const Matrix b = parallel.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) EXPECT_EQ(a.flat()[i], b.flat()[i]);
}

TEST(RandomForest, ImportancesNormalized) {
  const Problem p = make_problem(300, 0.2, 15);
  ForestOptions options;
  options.n_trees = 20;
  RandomForest forest(options);
  forest.fit(p.x, p.y);
  const auto imp = forest.feature_importances();
  ASSERT_TRUE(imp.has_value());
  double sum = 0.0;
  for (const double v : *imp) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// ------------------------------------------------------------------- gbt ----

GbtOptions small_gbt() {
  GbtOptions o;
  o.n_rounds = 40;
  o.max_depth = 4;
  return o;
}

TEST(Gbt, FitsLinearFunction) {
  const Problem p = make_problem(500, 0.0, 16);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  const double mae = mean_absolute_error(p.y, model.predict(p.x));
  EXPECT_LT(mae, 0.15);
}

TEST(Gbt, MoreRoundsFitBetter) {
  const Problem p = make_problem(400, 0.0, 17);
  GbtOptions few = small_gbt();
  few.n_rounds = 5;
  GbtOptions many = small_gbt();
  many.n_rounds = 80;
  GbtRegressor a(few);
  a.fit(p.x, p.y);
  GbtRegressor b(many);
  b.fit(p.x, p.y);
  EXPECT_LT(mean_absolute_error(p.y, b.predict(p.x)),
            mean_absolute_error(p.y, a.predict(p.x)));
}

TEST(Gbt, PseudoHuberObjectiveAlsoFits) {
  const Problem p = make_problem(400, 0.0, 18);
  GbtOptions options = small_gbt();
  options.objective = GbtObjective::kPseudoHuber;
  options.huber_delta = 1.0;
  options.n_rounds = 120;
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  EXPECT_LT(mean_absolute_error(p.y, model.predict(p.x)), 0.3);
}

TEST(Gbt, ImportancesFavorRelevantFeatures) {
  const Problem p = make_problem(500, 0.0, 19);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  const auto imp = model.feature_importances();
  ASSERT_TRUE(imp.has_value());
  EXPECT_GT((*imp)[0], (*imp)[2]);
  EXPECT_GT((*imp)[1], (*imp)[2]);
}

TEST(Gbt, SerializeRoundTripsPredictions) {
  const Problem p = make_problem(300, 0.2, 20);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  const GbtRegressor restored = GbtRegressor::deserialize(model.serialize());
  const Matrix a = model.predict(p.x);
  const Matrix b = restored.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flat()[i], b.flat()[i]);
  }
  // Importances survive the round trip too.
  EXPECT_EQ(*restored.feature_importances(), *model.feature_importances());
}

TEST(Gbt, DeserializeRejectsGarbage) {
  EXPECT_THROW(GbtRegressor::deserialize(""), ParseError);
  EXPECT_THROW(GbtRegressor::deserialize("not-a-model 1 2\n"), ParseError);
  // A non-finite split threshold: NaN has no place in a sorted cut table.
  for (const std::string t : {"nan", "inf", "-inf"}) {
    EXPECT_THROW(GbtRegressor::deserialize("gbt 1 2\nbase 0\n"
                                           "importance_gain 0 0\n"
                                           "importance_count 0 0\n"
                                           "tree 0 3\n0 " + t + " 1 2 0\n"
                                           "-1 0 -1 -1 0.25\n"
                                           "-1 0 -1 -1 -0.25\n"),
                 ParseError)
        << t;
  }
  // Forward links alone still allow a DAG; every node needs one parent.
  EXPECT_THROW(GbtRegressor::deserialize("gbt 1 2\nbase 0\n"
                                         "importance_gain 0 0\n"
                                         "importance_count 0 0\n"
                                         "tree 0 4\n0 0.5 1 2 0\n"
                                         "1 0.5 2 3 0\n"  // node 2 twice
                                         "-1 0 -1 -1 0.25\n"
                                         "-1 0 -1 -1 -0.25\n"),
               ParseError);
  // Node fields past the int range throw instead of wrapping: 2^32 would
  // read as feature 0, and 2^32+1 / 2^32+2 as child links 1 and 2.
  for (const std::string root : {"4294967296 0.5 1 2 0", "0 0.5 4294967297 4294967298 0"}) {
    EXPECT_THROW(GbtRegressor::deserialize("gbt 1 2\nbase 0\n"
                                           "importance_gain 0 0\n"
                                           "importance_count 0 0\n"
                                           "tree 0 3\n" + root + "\n"
                                           "-1 0 -1 -1 0.25\n"
                                           "-1 0 -1 -1 -0.25\n"),
                 ParseError)
        << root;
  }
}

TEST(Gbt, DeterministicAcrossThreadCounts) {
  const Problem p = make_problem(250, 0.4, 21);
  // Exact mode; the histogram default has its own 1/2/8-thread test below.
  GbtOptions options = small_gbt();
  options.tree_method = GbtTreeMethod::kExact;
  GbtRegressor serial(options);
  serial.fit(p.x, p.y, nullptr);
  ThreadPool pool(4);
  GbtRegressor parallel(options);
  parallel.fit(p.x, p.y, &pool);
  const Matrix a = serial.predict(p.x);
  const Matrix b = parallel.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) EXPECT_EQ(a.flat()[i], b.flat()[i]);
}

TEST(Gbt, PredictRejectsWrongFeatureCount) {
  const Problem p = make_problem(100, 0.0, 22);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  EXPECT_THROW(model.predict(Matrix(5, 2)), ContractViolation);
}

TEST(Gbt, RejectsInvalidOptions) {
  GbtOptions bad = small_gbt();
  bad.subsample = 0.0;
  GbtRegressor model(bad);
  const Problem p = make_problem(50, 0.0, 23);
  EXPECT_THROW(model.fit(p.x, p.y), ContractViolation);
}

TEST(Gbt, RejectsInvalidMaxBins) {
  GbtOptions bad = small_gbt();
  bad.tree_method = GbtTreeMethod::kHist;
  bad.max_bins = 1;
  GbtRegressor model(bad);
  const Problem p = make_problem(50, 0.0, 23);
  EXPECT_THROW(model.fit(p.x, p.y), ContractViolation);
}

TEST(Gbt, ResolveMaxBinsAutoScalesWithRows) {
  // 0 is the auto sentinel: clamp(rows / 64, 32, kMaxBins).
  EXPECT_EQ(resolve_max_bins(0, 100), 32);       // small data -> floor
  EXPECT_EQ(resolve_max_bins(0, 64 * 100), 100); // scales linearly
  EXPECT_EQ(resolve_max_bins(0, 1'000'000), BinnedMatrix::kMaxBins);
  // A configured value passes through untouched.
  EXPECT_EQ(resolve_max_bins(64, 10), 64);
  EXPECT_EQ(resolve_max_bins(200, 1'000'000), 200);
}

TEST(Gbt, AutoMaxBinsFitsAndRoundTrips) {
  const Problem p = make_problem(300, 0.2, 24);
  GbtOptions options = small_gbt();
  options.tree_method = GbtTreeMethod::kHist;
  options.max_bins = 0;  // auto
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  EXPECT_LT(mean_absolute_error(p.y, model.predict(p.x)), 0.3);
  // Serialization keeps the sentinel and the restored model predicts
  // identically.
  const GbtRegressor restored = GbtRegressor::deserialize(model.serialize());
  EXPECT_EQ(restored.options().max_bins, 0);
  const Matrix a = model.predict(p.x);
  const Matrix b = restored.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) EXPECT_EQ(a.flat()[i], b.flat()[i]);
}

// ------------------------------------------------------ gbt: resumability ----

TEST(Gbt, ResumedFitIsBitIdenticalToStraightFit) {
  // Interrupt-and-resume must reproduce the uninterrupted model exactly:
  // serialize a checkpoint mid-fit, reload it, continue, and compare the
  // final serialized bytes. Row/column sampling is active so the RNG
  // burn-in on resume is exercised too.
  const Problem p = make_problem(300, 0.2, 25);
  GbtOptions options = small_gbt();
  options.subsample = 0.8;
  options.colsample = 0.8;

  GbtRegressor straight(options);
  straight.fit(p.x, p.y);

  std::string checkpoint_text;
  GbtRegressor first(options);
  first.fit_resumable(p.x, p.y, /*checkpoint_every=*/7, [&](int rounds_done) {
    if (rounds_done == 21) checkpoint_text = first.serialize();
  });
  ASSERT_FALSE(checkpoint_text.empty());
  // Checkpointing itself must not perturb the fit.
  EXPECT_EQ(first.serialize(), straight.serialize());

  GbtRegressor resumed = GbtRegressor::deserialize(checkpoint_text);
  EXPECT_EQ(resumed.rounds_completed(), 21);
  resumed.set_options(options);  // deserialize round-trips them, but be explicit
  ThreadPool pool(4);            // continuation under a pool stays identical
  resumed.fit_resumable(p.x, p.y, 0, nullptr, &pool);
  EXPECT_EQ(resumed.rounds_completed(), options.n_rounds);
  EXPECT_EQ(resumed.serialize(), straight.serialize());
}

TEST(Gbt, ResumeRejectsMismatchedShape) {
  const Problem p = make_problem(200, 0.0, 26);
  GbtOptions options = small_gbt();
  GbtRegressor model(options);
  std::string checkpoint_text;
  model.fit_resumable(p.x, p.y, 10, [&](int rounds_done) {
    if (checkpoint_text.empty() && rounds_done >= 10) {
      checkpoint_text = model.serialize();
    }
  });
  ASSERT_FALSE(checkpoint_text.empty());
  GbtRegressor resumed = GbtRegressor::deserialize(checkpoint_text);
  const Problem other = make_problem(200, 0.0, 27);
  Matrix narrow(other.x.rows(), 2);  // wrong feature count
  EXPECT_THROW(resumed.fit_resumable(narrow, other.y, 0, nullptr),
               ContractViolation);
}

// ------------------------------------------------------ gbt: warm start ----

TEST(Gbt, WarmStartGrowsRoundsAndImproves) {
  const Problem p = make_problem(400, 0.1, 28);
  GbtOptions options = small_gbt();
  options.n_rounds = 10;  // deliberately underfit
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  const double before = mean_absolute_error(p.y, model.predict(p.x));

  model.warm_start_fit(p.x, p.y, /*extra_rounds=*/60);
  EXPECT_EQ(model.rounds_completed(), 70);
  EXPECT_EQ(model.options().n_rounds, 70);
  const double after = mean_absolute_error(p.y, model.predict(p.x));
  EXPECT_LT(after, before);
}

TEST(Gbt, WarmStartKeepsBaseScoreFixed) {
  // The stored trees were built against the original base score, so a
  // warm start on a window with a very different target mean must not
  // move it: only new trees absorb the shift.
  const Problem p = make_problem(300, 0.0, 29);
  GbtOptions options = small_gbt();
  options.n_rounds = 8;
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  const std::string before = model.serialize();

  Matrix shifted_y = p.y;
  for (double& v : shifted_y.flat()) v += 100.0;
  model.warm_start_fit(p.x, shifted_y, 4);

  // The serialized header carries the base scores; extract both and
  // compare (the first line after the per-output header is stable), by
  // checking the old prefix is untouched in spirit: predictions on the
  // original data move toward the shifted targets only via new trees.
  const GbtRegressor original = GbtRegressor::deserialize(before);
  const Matrix base_preds = original.predict(p.x);
  const Matrix warm_preds = model.predict(p.x);
  for (std::size_t i = 0; i < base_preds.flat().size(); ++i) {
    // New trees push predictions up toward +100; the direction proves the
    // shift went through trees, not through a recomputed base score.
    EXPECT_GT(warm_preds.flat()[i], base_preds.flat()[i]);
  }
}

TEST(Gbt, WarmStartIsDeterministicPerGeneration) {
  const Problem p = make_problem(250, 0.2, 30);
  GbtOptions options = small_gbt();
  options.n_rounds = 12;
  options.subsample = 0.8;

  const auto run = [&](ThreadPool* pool) {
    GbtRegressor model(options);
    model.fit(p.x, p.y);
    model.warm_start_fit(p.x, p.y, 6, pool);   // generation 1
    model.warm_start_fit(p.x, p.y, 6, pool);   // generation 2
    return model.serialize();
  };
  ThreadPool pool(4);
  const std::string serial = run(nullptr);
  EXPECT_EQ(serial, run(&pool));  // pool-independent

  // Each generation draws a fresh RNG stream: two warm starts from the
  // same state with different completed-round counts must differ.
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  model.warm_start_fit(p.x, p.y, 12);
  EXPECT_NE(model.serialize(), serial);
}

TEST(Gbt, WarmStartRejectsUnfittedAndBadShapes) {
  const Problem p = make_problem(100, 0.0, 31);
  GbtRegressor unfitted(small_gbt());
  EXPECT_THROW(unfitted.warm_start_fit(p.x, p.y, 5), ContractViolation);

  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  EXPECT_THROW(model.warm_start_fit(p.x, p.y, 0), ContractViolation);
  Matrix narrow(p.x.rows(), 2);
  EXPECT_THROW(model.warm_start_fit(narrow, p.y, 5), ContractViolation);
}

// --------------------------------------------------- gbt: hist vs exact ----

GbtOptions gbt_with(GbtTreeMethod method) {
  GbtOptions o = small_gbt();
  o.tree_method = method;
  return o;
}

// Mirrors the counter-dataset regime the histogram method targets: the
// discontinuous target sits on a low-cardinality feature (lossless to
// bin), while the smooth targets ride on continuous features where
// quantile quantization only perturbs thresholds slightly. A step target
// on a continuous feature is deliberately excluded — a bin-width sliver
// next to the step takes the full jump as error, which is an inherent
// histogram-method property, not a parity bug.
Problem make_binnable_problem(std::size_t n, double noise, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 3);
  Matrix y(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    const double x0 = std::floor(rng.uniform() * 40.0) / 40.0;  // 40 levels
    const double x1 = rng.uniform();
    x(r, 0) = x0;
    x(r, 1) = x1;
    x(r, 2) = rng.uniform();  // irrelevant feature
    y(r, 0) = 3.0 * x0 - 2.0 * x1 + 1.0 + noise * (rng.uniform() - 0.5);
    y(r, 1) = (x0 > 0.5 ? 4.0 : 0.0) + noise * (rng.uniform() - 0.5);
  }
  return {std::move(x), std::move(y)};
}

TEST(Gbt, HistMatchesExactAccuracy) {
  const Problem train = make_binnable_problem(600, 0.1, 26);
  const Problem test = make_binnable_problem(250, 0.1, 27);
  GbtRegressor exact(gbt_with(GbtTreeMethod::kExact));
  exact.fit(train.x, train.y);
  GbtRegressor hist(gbt_with(GbtTreeMethod::kHist));
  hist.fit(train.x, train.y);

  const Matrix pe = exact.predict(test.x);
  const Matrix ph = hist.predict(test.x);
  const double rmse_e = root_mean_squared_error(test.y, pe);
  const double rmse_h = root_mean_squared_error(test.y, ph);
  EXPECT_LT(std::abs(rmse_h - rmse_e), 0.02 * rmse_e);
  const double r2_e = r2_score(test.y, pe);
  const double r2_h = r2_score(test.y, ph);
  EXPECT_LT(std::abs(r2_h - r2_e), 0.02 * std::abs(r2_e));
}

TEST(Gbt, HistSerializeRoundTripsPredictionsAndOptions) {
  const Problem p = make_problem(300, 0.2, 28);
  GbtOptions options = gbt_with(GbtTreeMethod::kHist);
  options.max_bins = 32;
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  const GbtRegressor restored = GbtRegressor::deserialize(model.serialize());
  EXPECT_EQ(restored.options().tree_method, GbtTreeMethod::kHist);
  EXPECT_EQ(restored.options().max_bins, 32);
  const Matrix a = model.predict(p.x);
  const Matrix b = restored.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flat()[i], b.flat()[i]);
  }
}

TEST(Gbt, HistDeterministicAcrossThreadCounts) {
  const Problem p = make_problem(250, 0.4, 29);
  const GbtOptions options = gbt_with(GbtTreeMethod::kHist);
  GbtRegressor serial(options);
  serial.fit(p.x, p.y, nullptr);
  const Matrix a = serial.predict(p.x);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    GbtRegressor parallel(options);
    parallel.fit(p.x, p.y, &pool);
    const Matrix b = parallel.predict(p.x);
    for (std::size_t i = 0; i < a.flat().size(); ++i) {
      EXPECT_EQ(a.flat()[i], b.flat()[i]) << "threads=" << threads;
    }
  }
}

// ------------------------------------------------ gbt: golden model text ----

// A small paper-shaped campaign (every app, every system, three scales):
// 21 counter features, 4 RPV outputs, a few hundred rows.
const core::Dataset& golden_dataset() {
  static const core::Dataset ds = [] {
    const workload::AppCatalog apps;
    const arch::SystemCatalog systems;
    sim::CampaignOptions options;
    options.inputs_per_app = 3;
    return core::build_dataset(sim::run_campaign(apps, systems, options));
  }();
  return ds;
}

struct GoldenFit {
  const char* name;
  GbtOptions options;
  std::uint64_t text_hash;  ///< fnv1a_64 of the serialized model
};

std::vector<GoldenFit> golden_fits() {
  GbtOptions paper;  // the paper's configuration, fewer rounds
  paper.n_rounds = 30;
  paper.max_depth = 7;
  GbtOptions full_rows_some_cols = paper;
  full_rows_some_cols.subsample = 1.0;
  full_rows_some_cols.colsample = 0.6;
  GbtOptions huber_fine_bins = paper;
  huber_fine_bins.objective = GbtObjective::kPseudoHuber;
  huber_fine_bins.max_bins = 256;
  return {{"paper", paper, 0x5bae4195711d9daeULL},
          {"subsample1_colsample0.6", full_rows_some_cols, 0x393715381a5dd0c0ULL},
          {"pseudo_huber_256_bins", huber_fine_bins, 0xbd853a04f1d2a00bULL}};
}

// The serialized model (trees, base scores and importances) is pinned to
// constants, at every thread count, with more outputs than some pools have
// threads: any change to split search, histogram accumulation order, row
// partitioning, leaf updates or the text writer shows up here.
TEST(Gbt, GoldenModelTextAtEveryThreadCount) {
  const core::Dataset& ds = golden_dataset();
  const Matrix x = ds.features();
  const Matrix y = ds.targets();
  ASSERT_EQ(y.cols(), 4U);
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool eight(8);
  for (const GoldenFit& golden : golden_fits()) {
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &two, &eight}) {
      GbtRegressor model(golden.options);
      model.fit(x, y, pool);
      EXPECT_EQ(fnv1a_64(model.serialize()), golden.text_hash)
          << golden.name << " threads=" << (pool != nullptr ? pool->size() : 0);
    }
  }
}

TEST(Gbt, GoldenSingleOutputModelTextAtEveryThreadCount) {
  // One output: the pool splits each tree's histogram pass across
  // features instead of running outputs side by side.
  const core::Dataset& ds = golden_dataset();
  const Matrix x = ds.features();
  const Matrix y = ds.targets();
  Matrix y0(y.rows(), 1);
  for (std::size_t r = 0; r < y.rows(); ++r) y0(r, 0) = y(r, 0);
  const std::uint64_t expected[] = {0xe719f2cb050de265ULL, 0x2f9d8fd1af7ac6c4ULL,
                                    0xe965a6bf0e66147fULL};
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool eight(8);
  const auto fits = golden_fits();
  for (std::size_t i = 0; i < fits.size(); ++i) {
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &two, &eight}) {
      GbtRegressor model(fits[i].options);
      model.fit(x, y0, pool);
      EXPECT_EQ(fnv1a_64(model.serialize()), expected[i])
          << fits[i].name << " threads=" << (pool != nullptr ? pool->size() : 0);
    }
  }
}

TEST(Gbt, GoldenModelTextWithNaNFeature) {
  // Binning puts NaN in the first bin while the tree test sends it right,
  // so a fit on data holding a NaN must update its predictions by walking
  // the trees, as it always has.
  // One NaN, in the last row: the column still bins into 64 real bins, so
  // the trees split on it and the NaN row's two routes differ.
  Problem p = make_problem(300, 0.0, 33);
  p.x(p.x.rows() - 1, 1) = std::numeric_limits<double>::quiet_NaN();
  GbtOptions options = small_gbt();
  options.n_rounds = 20;
  ThreadPool pool(2);
  for (ThreadPool* pl : {static_cast<ThreadPool*>(nullptr), &pool}) {
    GbtRegressor model(options);
    model.fit(p.x, p.y, pl);
    EXPECT_EQ(fnv1a_64(model.serialize()), 0x31cff83de27ba2d6ULL) << "pooled=" << (pl != nullptr);
  }
}

TEST(Gbt, GoldenModelTextAfterResume) {
  const core::Dataset& ds = golden_dataset();
  const Matrix x = ds.features();
  const Matrix y = ds.targets();
  ThreadPool pool(2);
  for (const GoldenFit& golden : golden_fits()) {
    std::string checkpoint;
    GbtRegressor first(golden.options);
    first.fit_resumable(x, y, /*checkpoint_every=*/11, [&](int rounds_done) {
      if (rounds_done == 22) checkpoint = first.serialize();
    });
    ASSERT_FALSE(checkpoint.empty()) << golden.name;
    GbtRegressor resumed = GbtRegressor::deserialize(checkpoint);
    resumed.set_options(golden.options);
    resumed.fit_resumable(x, y, 0, nullptr, &pool);
    EXPECT_EQ(fnv1a_64(resumed.serialize()), golden.text_hash) << golden.name;
  }
}

TEST(Gbt, GoldenModelTextAfterWarmStart) {
  // A refit on a later window: the first half of the rows trains the base
  // model, the whole set continues it.
  const core::Dataset& ds = golden_dataset();
  std::vector<std::size_t> half(ds.num_rows() / 2);
  std::iota(half.begin(), half.end(), std::size_t{0});
  const Matrix x_half = ds.features(half);
  const Matrix y_half = ds.targets(half);
  const Matrix x = ds.features();
  const Matrix y = ds.targets();
  const std::uint64_t expected[] = {0x221fd388f6ebd67eULL, 0xf54ad01333963b46ULL,
                                    0x71a73f2c196a30fdULL};
  ThreadPool pool(8);
  const auto fits = golden_fits();
  for (std::size_t i = 0; i < fits.size(); ++i) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      GbtRegressor model(fits[i].options);
      model.fit(x_half, y_half, p);
      model.warm_start_fit(x, y, /*extra_rounds=*/12, p);
      EXPECT_EQ(fnv1a_64(model.serialize()), expected[i])
          << fits[i].name << " pooled=" << (p != nullptr);
    }
  }
}

// ----------------------------------------------- gbt: corrupt model text ----

// Minimal well-formed model text (1 output, 2 features, one 3-node tree)
// whose nodes block the corruption tests below replace.
std::string model_text(const std::string& tree_block) {
  return "gbt 1 2\n"
         "method hist 64\n"
         "base 0\n"
         "importance_gain 0 0\n"
         "importance_count 0 0\n" +
         tree_block;
}

const char kGoodTree[] =
    "tree 0 3\n"
    "0 0.5 1 2 0\n"
    "-1 0 -1 -1 0.25\n"
    "-1 0 -1 -1 -0.25\n";

TEST(Gbt, DeserializeAcceptsMinimalModel) {
  const GbtRegressor model = GbtRegressor::deserialize(model_text(kGoodTree));
  EXPECT_TRUE(model.fitted());
  Matrix x(1, 2);
  x(0, 0) = 0.0;
  EXPECT_DOUBLE_EQ(model.predict(x)(0, 0), 0.25);
}

TEST(Gbt, DeserializeRejectsFeatureOutOfRange) {
  const std::string bad = model_text(
      "tree 0 3\n"
      "7 0.5 1 2 0\n"  // feature 7 but the model has 2 features
      "-1 0 -1 -1 0.25\n"
      "-1 0 -1 -1 -0.25\n");
  EXPECT_THROW(GbtRegressor::deserialize(bad), ParseError);
}

TEST(Gbt, DeserializeRejectsBackwardChildLink) {
  const std::string bad = model_text(
      "tree 0 3\n"
      "0 0.5 1 2 0\n"
      "1 0.5 0 2 0\n"  // left points back at the root: a cycle
      "-1 0 -1 -1 -0.25\n");
  EXPECT_THROW(GbtRegressor::deserialize(bad), ParseError);
}

TEST(Gbt, DeserializeRejectsChildIndexOutOfRange) {
  const std::string bad = model_text(
      "tree 0 3\n"
      "0 0.5 1 9 0\n"  // right child 9 in a 3-node tree
      "-1 0 -1 -1 0.25\n"
      "-1 0 -1 -1 -0.25\n");
  EXPECT_THROW(GbtRegressor::deserialize(bad), ParseError);
}

TEST(Gbt, DeserializeRejectsLeafWithChildren) {
  const std::string bad = model_text(
      "tree 0 3\n"
      "0 0.5 1 2 0\n"
      "-1 0 1 2 0.25\n"  // leaf (feature -1) carrying child links
      "-1 0 -1 -1 -0.25\n");
  EXPECT_THROW(GbtRegressor::deserialize(bad), ParseError);
}

TEST(Gbt, DeserializeRejectsBadTreeNodeCount) {
  // Zero nodes and a count larger than the remaining input both fail
  // before any allocation happens.
  EXPECT_THROW(GbtRegressor::deserialize(model_text("tree 0 0\n")), ParseError);
  EXPECT_THROW(GbtRegressor::deserialize(model_text("tree 0 999999999\n"
                                                    "-1 0 -1 -1 0\n")),
               ParseError);
}

TEST(Gbt, DeserializeRejectsTruncatedNodes) {
  const std::string bad = model_text(
      "tree 0 3\n"
      "0 0.5 1 2 0\n"
      "-1 0 -1 -1 0.25\n");  // header promises 3 nodes, only 2 present
  EXPECT_THROW(GbtRegressor::deserialize(bad), ParseError);
}

TEST(Gbt, DeserializeRejectsBadMethodLine) {
  auto with_method = [](const std::string& method_line) {
    return "gbt 1 2\n" + method_line +
           "base 0\n"
           "importance_gain 0 0\n"
           "importance_count 0 0\n" +
           std::string(kGoodTree);
  };
  EXPECT_THROW(GbtRegressor::deserialize(with_method("method sketchy 64\n")),
               ParseError);
  EXPECT_THROW(GbtRegressor::deserialize(with_method("method hist 1\n")),
               ParseError);
  EXPECT_THROW(GbtRegressor::deserialize(with_method("method hist 9999\n")),
               ParseError);
  // Models serialized before the method line existed still load.
  const GbtRegressor legacy = GbtRegressor::deserialize(with_method(""));
  EXPECT_TRUE(legacy.fitted());
}

TEST(Gbt, DeserializeRejectsTreeForUnknownOutput) {
  const std::string bad = model_text(
      "tree 4 3\n"  // output 4 but the model has 1 output
      "0 0.5 1 2 0\n"
      "-1 0 -1 -1 0.25\n"
      "-1 0 -1 -1 -0.25\n");
  EXPECT_THROW(GbtRegressor::deserialize(bad), ParseError);
}

TEST(Gbt, DeserializeToleratesBlankLinesSpacesAndCrlf) {
  // Blank lines, whitespace around a line and \r\n endings were always
  // accepted; they must load to the very same model.
  const Problem p = make_problem(200, 0.2, 32);
  GbtOptions options = small_gbt();
  options.n_rounds = 5;
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  const std::string text = model.serialize();

  std::string loose;
  for (const std::string& line : split(text, '\n')) {
    if (line.empty()) continue;
    if (line.starts_with("tree ")) loose += "\n  \t\n";  // blank lines between trees
    loose += "  " + line + " \t\r\n";
  }
  EXPECT_EQ(GbtRegressor::deserialize(loose).serialize(), text);

  std::string crlf;
  for (const char c : text) crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  EXPECT_EQ(GbtRegressor::deserialize(crlf).serialize(), text);
}

TEST(Gbt, DeserializeRejectsMalformedFields) {
  const auto with_root = [](const std::string& root) {
    return "gbt 1 2\nbase 0\nimportance_gain 0 0\nimportance_count 0 0\n"
           "tree 0 3\n" + root + "\n-1 0 -1 -1 0.25\n-1 0 -1 -1 -0.25\n";
  };
  EXPECT_NO_THROW((void)GbtRegressor::deserialize(with_root("0 0.5 1 2 0")));
  for (const std::string root : {
           "0 0.5x 1 2 0",     // junk inside a field
           "0x1 0.5 1 2 0",    // junk after an integer
           "0 0.5 1 2 0 7",    // a sixth field
           "0 0.5 1 2",        // a missing field
           "0  0.5 1 2 0",     // an empty field
           "+0 0.5 1 2 0",     // a leading '+' on an integer
           "0 +0.5 1 2 0",     // ... and on a double
           "0 0.5 1 2 1e999",  // out of double range
       }) {
    EXPECT_THROW(GbtRegressor::deserialize(with_root(root)), ParseError) << root;
  }
  // The same verdicts in the header lines.
  EXPECT_THROW(GbtRegressor::deserialize("gbt 1 2\nbase 0x\nimportance_gain 0 0\n"
                                         "importance_count 0 0\n" + std::string(kGoodTree)),
               ParseError);
  EXPECT_THROW(GbtRegressor::deserialize("gbt +1 2\nbase 0\nimportance_gain 0 0\n"
                                         "importance_count 0 0\n" + std::string(kGoodTree)),
               ParseError);
  EXPECT_THROW(GbtRegressor::deserialize("gbt 1 2\nbase 0\nimportance_gain 0 0 0\n"
                                         "importance_count 0 0\n" + std::string(kGoodTree)),
               ParseError);
  EXPECT_THROW(GbtRegressor::deserialize("gbt 1 2\nbase 0\nimportance_gain 0 0\n"
                                         "importance_count 0 0\ntree 0 3 1\n"
                                         "0 0.5 1 2 0\n-1 0 -1 -1 0.25\n-1 0 -1 -1 -0.25\n"),
               ParseError);
}

// --------------------------------------------- tree/forest: hist vs exact ----

// Like make_binnable_problem, but every feature is low-cardinality: with
// bins >= levels the quantile binning is lossless, which is the regime
// where a *single* tree (no ensemble averaging to absorb a shifted early
// split) can honestly promise near-exact accuracy.
Problem make_discrete_problem(std::size_t n, double noise, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 3);
  Matrix y(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    const double x0 = std::floor(rng.uniform() * 40.0) / 40.0;
    const double x1 = std::floor(rng.uniform() * 40.0) / 40.0;
    x(r, 0) = x0;
    x(r, 1) = x1;
    x(r, 2) = std::floor(rng.uniform() * 40.0) / 40.0;  // irrelevant feature
    y(r, 0) = 3.0 * x0 - 2.0 * x1 + 1.0 + noise * (rng.uniform() - 0.5);
    y(r, 1) = (x0 > 0.5 ? 4.0 : 0.0) + noise * (rng.uniform() - 0.5);
  }
  return {std::move(x), std::move(y)};
}

TEST(DecisionTree, HistMatchesExactAccuracy) {
  const Problem train = make_discrete_problem(800, 0.1, 40);
  const Problem test = make_discrete_problem(300, 0.1, 41);
  TreeOptions options;
  options.max_depth = 8;
  options.max_bins = 64;  // >= the 40 feature levels: lossless binning
  DecisionTree exact(options);
  exact.fit(train.x, train.y);
  options.method = TreeMethod::kHist;
  DecisionTree hist(options);
  hist.fit(train.x, train.y);
  const double rmse_e = root_mean_squared_error(test.y, exact.predict(test.x));
  const double rmse_h = root_mean_squared_error(test.y, hist.predict(test.x));
  EXPECT_LT(std::abs(rmse_h - rmse_e), 0.02 * rmse_e);
}

TEST(DecisionTree, HistDeterministicAcrossThreadCounts) {
  const Problem p = make_problem(300, 0.3, 42);
  TreeOptions options;
  options.method = TreeMethod::kHist;
  DecisionTree serial(options);
  serial.fit(p.x, p.y, nullptr);
  const Matrix a = serial.predict(p.x);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    DecisionTree parallel(options);
    parallel.fit(p.x, p.y, &pool);
    const Matrix b = parallel.predict(p.x);
    for (std::size_t i = 0; i < a.flat().size(); ++i) {
      EXPECT_EQ(a.flat()[i], b.flat()[i]) << "threads=" << threads;
    }
  }
}

TEST(RandomForest, HistMatchesExactAccuracy) {
  const Problem train = make_binnable_problem(800, 0.1, 43);
  const Problem test = make_binnable_problem(300, 0.1, 44);
  ForestOptions options;
  options.n_trees = 30;
  RandomForest exact(options);
  exact.fit(train.x, train.y);
  options.method = TreeMethod::kHist;
  RandomForest hist(options);
  hist.fit(train.x, train.y);
  const double rmse_e = root_mean_squared_error(test.y, exact.predict(test.x));
  const double rmse_h = root_mean_squared_error(test.y, hist.predict(test.x));
  EXPECT_LT(std::abs(rmse_h - rmse_e), 0.02 * rmse_e);
}

TEST(RandomForest, HistDeterministicAcrossThreadCounts) {
  const Problem p = make_problem(300, 0.3, 45);
  ForestOptions options;
  options.n_trees = 12;
  options.method = TreeMethod::kHist;
  RandomForest serial(options);
  serial.fit(p.x, p.y, nullptr);
  const Matrix a = serial.predict(p.x);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    RandomForest parallel(options);
    parallel.fit(p.x, p.y, &pool);
    const Matrix b = parallel.predict(p.x);
    for (std::size_t i = 0; i < a.flat().size(); ++i) {
      EXPECT_EQ(a.flat()[i], b.flat()[i]) << "threads=" << threads;
    }
  }
}

// ------------------------------------------------ compiled ensemble parity ----
//
// The compiled bin-code engine must agree bit-for-bit with the reference
// walkers (GbtTree::predict, DecisionTree::predict_one) on every row. Each
// case runs its inputs through with_edge_rows(), which appends the values
// a bin code can get wrong: NaN, +inf, -inf, and every fitted threshold
// with its two double neighbours.

void expect_matrices_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    EXPECT_EQ(a.flat()[i], b.flat()[i]) << "flat index " << i;
  }
}

/// predict_row must agree bit-for-bit with the reference predictions too.
void expect_row_parity(const CompiledEnsemble& compiled, const Matrix& x,
                       const Matrix& reference) {
  std::vector<double> row(compiled.n_outputs());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    compiled.predict_row(x.row(r), row);
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(row[k], reference(r, k)) << "row " << r << " output " << k;
    }
  }
}

/// Every distinct (feature, threshold) split of a fitted model.
using Splits = std::set<std::pair<int, double>>;

template <typename Node>
void collect_splits(const std::vector<Node>& nodes, Splits& out) {
  for (const Node& node : nodes) {
    if (!node.is_leaf()) out.insert({node.feature, node.threshold});
  }
}
Splits splits_of(const GbtRegressor& model) {
  Splits out;
  for (std::size_t k = 0; k < model.n_outputs(); ++k) {
    for (const GbtTree& tree : model.ensemble(k)) collect_splits(tree.nodes, out);
  }
  return out;
}
Splits splits_of(const DecisionTree& model) {
  Splits out;
  collect_splits(model.nodes(), out);
  return out;
}
Splits splits_of(const RandomForest& model) {
  Splits out;
  for (const DecisionTree& tree : model.trees()) collect_splits(tree.nodes(), out);
  return out;
}

/// The most distinct thresholds any one feature carries.
std::size_t most_cuts(const Splits& splits) {
  std::map<int, std::size_t> per_feature;
  for (const auto& split : splits) ++per_feature[split.first];
  std::size_t most = 0;
  for (const auto& entry : per_feature) most = std::max(most, entry.second);
  return most;
}

/// `x` followed by edge rows (copies of row 0): NaN, +inf and -inf in
/// every feature at once and in each feature alone, then each fitted
/// threshold, exactly on the cut and one ulp either side.
template <typename Model>
Matrix with_edge_rows(const Matrix& x, const Model& model) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  std::vector<double> flat(x.flat().begin(), x.flat().end());
  const auto add = [&](std::size_t feature, double v) {
    std::vector<double> row(x.row(0).begin(), x.row(0).end());
    for (std::size_t f = 0; f < row.size(); ++f) {
      if (feature == kAll || feature == f) row[f] = v;
    }
    flat.insert(flat.end(), row.begin(), row.end());
  };
  for (const double v : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    add(kAll, v);
    for (std::size_t f = 0; f < x.cols(); ++f) add(f, v);
  }
  for (const auto& [feature, t] : splits_of(model)) {
    for (const double v : {t, std::nextafter(t, -kInf), std::nextafter(t, kInf)}) {
      add(static_cast<std::size_t>(feature), v);
    }
  }
  const std::size_t rows = flat.size() / x.cols();
  return Matrix(rows, x.cols(), std::move(flat));
}

/// Compiles `model` and checks batch and single-row predictions against
/// the reference walkers on `x` plus its edge rows.
template <typename Model>
void expect_compiled_parity(const Model& model, const Matrix& x) {
  const Matrix rows = with_edge_rows(x, model);
  const auto compiled = CompiledEnsemble::compile(model);
  const Matrix reference = model.predict(rows);
  expect_matrices_identical(compiled.predict(rows), reference);
  expect_row_parity(compiled, rows, reference);
}

/// An exact-greedy model past the narrow word's 255 cuts on a feature:
/// boosting mints fresh midpoint thresholds every round (the residuals
/// move, so the chosen splits move), so it compiles to the wide pool.
GbtRegressor wide_gbt() {
  const Problem p = make_problem(400, 0.4, 69);
  GbtOptions options = gbt_with(GbtTreeMethod::kExact);
  options.n_rounds = 80;
  options.max_depth = 6;
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  return model;
}

TEST(CompiledParity, GbtExactBitIdentical) {
  const Problem p = make_problem(300, 0.3, 50);
  GbtRegressor model(gbt_with(GbtTreeMethod::kExact));
  model.fit(p.x, p.y);
  expect_compiled_parity(model, p.x);
}

TEST(CompiledParity, GbtHistBitIdentical) {
  const Problem p = make_problem(300, 0.3, 51);
  GbtRegressor model(gbt_with(GbtTreeMethod::kHist));
  model.fit(p.x, p.y);
  expect_compiled_parity(model, p.x);
}

TEST(CompiledParity, WideModelBitIdentical) {
  const GbtRegressor model = wide_gbt();
  ASSERT_GT(most_cuts(splits_of(model)), 255u);
  expect_compiled_parity(model, make_problem(400, 0.4, 69).x);
}

/// A one-output model over `n_feat` features whose root splits on the
/// last feature and whose left child splits on feature 0.
GbtRegressor gbt_over_features(int n_feat) {
  std::string zeros;
  for (int f = 0; f < n_feat; ++f) zeros += " 0";
  return GbtRegressor::deserialize(
      "gbt 1 " + std::to_string(n_feat) + "\nmethod hist 64\nbase 0.5\n" +
      "importance_gain" + zeros + "\nimportance_count" + zeros + "\n" +
      "tree 0 5\n" + std::to_string(n_feat - 1) + " 0.25 1 2 0\n" +
      "0 -1.5 3 4 0\n-1 0 -1 -1 2\n-1 0 -1 -1 -1\n-1 0 -1 -1 1\n");
}

TEST(CompiledParity, WideByFeatureCountBitIdentical) {
  // 255 features fit the narrow word's uint8 feature field; 256 and 300
  // take the wide word.
  for (const int n_feat : {255, 256, 300}) {
    Rng rng(70 + static_cast<std::uint64_t>(n_feat));
    Matrix x(40, static_cast<std::size_t>(n_feat));
    for (double& v : x.flat()) v = -3.0 + 6.0 * rng.uniform();
    expect_compiled_parity(gbt_over_features(n_feat), x);
  }
  // 65537 features overflow even the wide word's uint16 feature field.
  EXPECT_THROW((void)CompiledEnsemble::compile(gbt_over_features(65537)),
               std::length_error);
}

TEST(CompiledParity, RandomForestBitIdentical) {
  const Problem p = make_problem(300, 0.3, 52);
  for (const TreeMethod method : {TreeMethod::kExact, TreeMethod::kHist}) {
    ForestOptions options;
    options.n_trees = 15;
    options.method = method;
    RandomForest model(options);
    model.fit(p.x, p.y);
    expect_compiled_parity(model, p.x);
  }
}

TEST(CompiledParity, DecisionTreeBitIdentical) {
  const Problem p = make_problem(300, 0.3, 53);
  DecisionTree model;
  model.fit(p.x, p.y);
  expect_compiled_parity(model, p.x);
}

TEST(CompiledParity, StumpBitIdentical) {
  const Problem p = make_problem(200, 0.3, 54);
  TreeOptions options;
  options.max_depth = 1;  // a single split: root plus two leaves
  DecisionTree model(options);
  model.fit(p.x, p.y);
  expect_compiled_parity(model, p.x);
}

TEST(CompiledParity, SingleLeafConstantTargetBitIdentical) {
  // A constant target collapses every tree to one leaf (walk length 0).
  const Problem base = make_problem(100, 0.0, 55);
  Matrix y(base.y.rows(), base.y.cols());
  for (double& v : y.flat()) v = 2.75;
  DecisionTree tree;
  tree.fit(base.x, y);
  expect_compiled_parity(tree, base.x);
  GbtRegressor gbt(small_gbt());
  gbt.fit(base.x, y);
  expect_compiled_parity(gbt, base.x);
}

TEST(CompiledParity, ConstantFeatureBitIdentical) {
  // No split ever touches a constant feature, so its cut table is empty.
  const Problem p = make_problem(200, 0.3, 68);
  Matrix x = p.x;
  for (std::size_t r = 0; r < x.rows(); ++r) x(r, 2) = 1.5;
  GbtRegressor model(gbt_with(GbtTreeMethod::kHist));
  model.fit(x, p.y);
  expect_compiled_parity(model, x);
}

TEST(CompiledParity, FuzzRandomEnsemblesRandomRows) {
  // Random ensembles x random rows (deliberately outside the training
  // range), both tree methods.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    GbtOptions options = small_gbt();
    options.n_rounds = 8 + static_cast<int>(seed) * 11;
    options.max_depth = 2 + static_cast<int>(seed % 4);
    options.tree_method =
        seed % 2 == 0 ? GbtTreeMethod::kHist : GbtTreeMethod::kExact;
    const Problem p = make_problem(250, 0.4, 62 + seed);
    GbtRegressor model(options);
    model.fit(p.x, p.y);
    Rng rng(100 + seed);
    Matrix rows(150, 3);
    for (double& v : rows.flat()) v = -0.5 + 2.0 * rng.uniform();
    expect_compiled_parity(model, rows);
  }
}

/// Checks that `model` survives a serialize round trip into an engine
/// bit-identical to the reference walkers on `x` plus its edge rows.
void expect_round_trip_parity(const GbtRegressor& model, const Matrix& x) {
  const GbtRegressor restored = GbtRegressor::deserialize(model.serialize());
  const Matrix rows = with_edge_rows(x, model);
  expect_matrices_identical(CompiledEnsemble::compile(restored).predict(rows),
                            model.predict(rows));
}

/// Checks that batch predictions of `model` on `x` plus its edge rows match
/// the reference walkers with no pool and with 1, 2 and 8 threads.
void expect_thread_count_parity(const GbtRegressor& model, const Matrix& x) {
  const Matrix rows = with_edge_rows(x, model);
  const auto compiled = CompiledEnsemble::compile(model);
  const Matrix reference = model.predict(rows);
  expect_matrices_identical(compiled.predict(rows, nullptr), reference);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    expect_matrices_identical(compiled.predict(rows, &pool), reference);
  }
}

// The narrow-pool counterparts of the next two cases are in QuantizedParity.
TEST(CompiledParity, SerializedModelRecompilesIdentically) {
  expect_round_trip_parity(wide_gbt(), make_problem(300, 0.3, 56).x);
}

TEST(CompiledParity, DeterministicAcrossThreadCounts) {
  expect_thread_count_parity(wide_gbt(), make_problem(700, 0.3, 57).x);
}

TEST(CompiledParity, RowScratchReuseMatchesBatch) {
  // One scratch reused across every row of a narrow and a wide engine.
  const Problem p = make_problem(200, 0.3, 67);
  GbtRegressor hist(gbt_with(GbtTreeMethod::kHist));
  hist.fit(p.x, p.y);
  CompiledEnsemble::RowScratch scratch;
  for (const GbtRegressor& model : {hist, wide_gbt()}) {
    const Matrix rows = with_edge_rows(p.x, model);
    const auto compiled = CompiledEnsemble::compile(model);
    const Matrix reference = model.predict(rows);
    std::vector<double> out(compiled.n_outputs());
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      compiled.predict_row(rows.row(r), out, scratch);
      for (std::size_t k = 0; k < out.size(); ++k) {
        EXPECT_EQ(out[k], reference(r, k)) << "row " << r << " output " << k;
      }
    }
  }
}

// ---------------------------------------------- quantized bin-code parity ----
//
// Hist-trained models carry at most 255 cuts per feature, so they compile
// to the narrow word and walk uint8 bin codes. These cases pin that pool
// against the reference walkers.

/// A hist-trained GBT on `p`, checked to fit the narrow word's uint8 codes.
GbtRegressor narrow_gbt(const Problem& p) {
  GbtRegressor model(gbt_with(GbtTreeMethod::kHist));
  model.fit(p.x, p.y);
  EXPECT_LE(most_cuts(splits_of(model)), 255u);
  return model;
}

TEST(QuantizedParity, GbtHistQuantizedEngineServes) {
  const GbtRegressor model = narrow_gbt(make_problem(300, 0.3, 60));
  expect_compiled_parity(model, make_problem(200, 0.3, 61).x);  // held out
}

TEST(QuantizedParity, BinRepresentativeRowsBitIdentical) {
  // Rows whose feature values are the fitted thresholds themselves and
  // their immediate double neighbours: the rows that land on a bin edge.
  const Problem p = make_problem(300, 0.3, 64);
  const GbtRegressor model = narrow_gbt(p);
  std::vector<double> flat;
  for (const auto& [feature, t] : splits_of(model)) {
    for (const double v : {t, std::nextafter(t, -std::numeric_limits<double>::infinity()),
                           std::nextafter(t, std::numeric_limits<double>::infinity())}) {
      std::vector<double> row(p.x.row(0).begin(), p.x.row(0).end());
      row[static_cast<std::size_t>(feature)] = v;
      flat.insert(flat.end(), row.begin(), row.end());
    }
  }
  const std::size_t n_rows = flat.size() / p.x.cols();
  ASSERT_GT(n_rows, 0u);
  const Matrix rows(n_rows, p.x.cols(), std::move(flat));
  const auto compiled = CompiledEnsemble::compile(model);
  const Matrix reference = model.predict(rows);
  expect_matrices_identical(compiled.predict(rows), reference);
  expect_row_parity(compiled, rows, reference);
}

TEST(QuantizedParity, DeterministicAcrossThreadCounts) {
  const Problem p = make_problem(700, 0.3, 65);
  expect_thread_count_parity(narrow_gbt(p), p.x);
}

TEST(QuantizedParity, SerializedModelRecompilesQuantizedIdentically) {
  const Problem p = make_problem(300, 0.3, 66);
  expect_round_trip_parity(narrow_gbt(p), p.x);
}

// Parameterized noise sweep: learned models should always beat the mean
// baseline on structured data, at every noise level.
class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, LearnedModelsBeatMeanBaseline) {
  const double noise = GetParam();
  const Problem train = make_problem(500, noise, 24);
  const Problem test = make_problem(200, noise, 25);

  MeanRegressor mean;
  mean.fit(train.x, train.y);
  const double mean_mae = mean_absolute_error(test.y, mean.predict(test.x));

  GbtRegressor gbt(small_gbt());
  gbt.fit(train.x, train.y);
  EXPECT_LT(mean_absolute_error(test.y, gbt.predict(test.x)), mean_mae);

  ForestOptions fo;
  fo.n_trees = 30;
  RandomForest forest(fo);
  forest.fit(train.x, train.y);
  EXPECT_LT(mean_absolute_error(test.y, forest.predict(test.x)), mean_mae);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, NoiseSweep,
                         ::testing::Values(0.0, 0.2, 0.5, 1.0));

}  // namespace
}  // namespace mphpc::ml
