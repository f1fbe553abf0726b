// Tests for src/common: RNG, distributions, strings, JSON, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/distributions.hpp"
#include "common/contract.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table_printer.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace mphpc {
namespace {

// ---------------------------------------------------------------- RNG ----

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BelowConsumesExactlyOneDraw) {
  // sched::RandomAssigner replays rejected assign() calls as discarded
  // draws, which is exact only while below(n) takes one operator() output
  // whatever n is — including n = 1 and n far from a power of two.
  for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
                                std::uint64_t{4}, std::uint64_t{7}, std::uint64_t{1000},
                                (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0}}) {
    Rng by_below(41);
    Rng by_draw(41);
    for (int i = 0; i < 64; ++i) (void)by_below.below(n);
    for (int i = 0; i < 64; ++i) (void)by_draw();
    EXPECT_EQ(by_below(), by_draw()) << "n = " << n;
  }
}

TEST(Rng, DiscardMatchesRawDraws) {
  for (const std::uint64_t k : {0u, 1u, 5u, 1000u}) {
    Rng skipped(43);
    Rng drawn(43);
    skipped.discard(k);
    for (std::uint64_t i = 0; i < k; ++i) (void)drawn();
    EXPECT_EQ(skipped(), drawn()) << "k = " << k;
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(DeriveSeed, DeterministicAndSensitive) {
  EXPECT_EQ(derive_seed(1, "app", 7), derive_seed(1, "app", 7));
  EXPECT_NE(derive_seed(1, "app", 7), derive_seed(1, "app", 8));
  EXPECT_NE(derive_seed(1, "app", 7), derive_seed(2, "app", 7));
  EXPECT_NE(derive_seed(1, "app", 7), derive_seed(1, "bpp", 7));
}

TEST(DeriveSeed, OrderMatters) {
  EXPECT_NE(derive_seed(1, "a", "b"), derive_seed(1, "b", "a"));
}

TEST(Fnv1a, KnownValues) {
  EXPECT_EQ(fnv1a(""), 0xCBF29CE484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

// ------------------------------------------------------- distributions ----

TEST(Distributions, NormalMoments) {
  Rng rng(21);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = normal(rng);
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Distributions, NormalShiftScale) {
  Rng rng(22);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += normal(rng, 10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Distributions, LognormalMedianNearOne) {
  Rng rng(23);
  std::vector<double> v(10001);
  for (auto& x : v) x = lognormal_factor(rng, 0.3);
  std::nth_element(v.begin(), v.begin() + 5000, v.end());
  EXPECT_NEAR(v[5000], 1.0, 0.03);
  for (const double x : v) EXPECT_GT(x, 0.0);
}

TEST(Distributions, ExponentialMean) {
  Rng rng(24);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += exponential(rng, 2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Distributions, ExponentialRejectsBadRate) {
  Rng rng(1);
  EXPECT_THROW(exponential(rng, 0.0), ContractViolation);
}

TEST(Distributions, WeightedChoiceFrequencies) {
  Rng rng(25);
  const std::vector<double> w = {1.0, 3.0};
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ones += weighted_choice(rng, w) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(Distributions, WeightedChoiceZeroWeightNeverPicked) {
  Rng rng(26);
  const std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(weighted_choice(rng, w), 1u);
}

TEST(Distributions, WeightedChoiceRejectsAllZero) {
  Rng rng(1);
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(weighted_choice(rng, w), ContractViolation);
}

TEST(Distributions, PermutationIsPermutation) {
  Rng rng(27);
  const auto perm = permutation(rng, 100);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Distributions, SampleWithoutReplacementDistinct) {
  Rng rng(28);
  const auto sample = sample_without_replacement(rng, 50, 20);
  EXPECT_EQ(sample.size(), 20u);
  const std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 20u);
  for (const auto v : sample) EXPECT_LT(v, 50u);
}

TEST(Distributions, SampleWithoutReplacementFull) {
  Rng rng(29);
  const auto sample = sample_without_replacement(rng, 10, 10);
  const std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Distributions, SampleWithoutReplacementRejectsOversample) {
  Rng rng(1);
  EXPECT_THROW(sample_without_replacement(rng, 5, 6), ContractViolation);
}

// -------------------------------------------------------------- strings ----

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitEmptyString) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(join(parts, ","), "x,y,z");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("hello", "lo"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_FALSE(starts_with("", "x"));
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("QuArTz"), "quartz"); }

TEST(Strings, FormatDoubleRoundTrips) {
  for (const double v : {1.0, -0.25, 3.141592653589793, 1e-30, 1e30}) {
    EXPECT_EQ(parse_double(format_double(v)), v);
  }
}

TEST(Strings, FormatFixed) { EXPECT_EQ(format_fixed(3.14159, 2), "3.14"); }

TEST(Strings, ParseDoubleRejectsJunk) {
  EXPECT_THROW(parse_double("abc"), ParseError);
  EXPECT_THROW(parse_double("1.5x"), ParseError);
  EXPECT_THROW(parse_double(""), ParseError);
}

TEST(Strings, ParseIntRejectsJunk) {
  EXPECT_EQ(parse_int(" 42 "), 42);
  EXPECT_THROW(parse_int("4.2"), ParseError);
  EXPECT_THROW(parse_int(""), ParseError);
  EXPECT_EQ(parse_int32(" -7 "), -7);
  EXPECT_EQ(parse_int32("2147483647"), 2147483647);
  EXPECT_EQ(parse_int32("-2147483648"), -2147483647 - 1);
  EXPECT_THROW(parse_int32("2147483648"), ParseError);
  EXPECT_THROW(parse_int32("4294967296"), ParseError);
  EXPECT_THROW(parse_int32("-2147483649"), ParseError);
  EXPECT_THROW(parse_int32("1x"), ParseError);
}

// ----------------------------------------------------------------- json ----

TEST(JsonWriter, SimpleObject) {
  JsonWriter w;
  w.begin_object().field("a", 1).field("b", "x").field("c", true).end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"x","c":true})");
}

TEST(JsonWriter, NestedStructures) {
  JsonWriter w;
  w.begin_object()
      .begin_array("items")
      .value(1LL)
      .value(2LL)
      .end_array()
      .begin_object("inner")
      .field("k", 2.5)
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(), R"({"items":[1,2],"inner":{"k":2.5}})");
}

TEST(JsonWriter, EscapesSpecialCharacters) {
  JsonWriter w;
  w.begin_object().field("s", "a\"b\\c\nd").end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriter, UnbalancedEndThrows) {
  JsonWriter w;
  EXPECT_THROW(w.end_object(), ContractViolation);
}

// -------------------------------------------------------- table printer ----

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(TablePrinter, NumericRows) {
  TablePrinter t({"label", "x", "y"});
  t.add_row_numeric("row", {1.23456, 2.0}, 2);
  EXPECT_NE(t.render().find("1.23  2.00"), std::string::npos);
}

TEST(TablePrinter, RejectsWrongArity) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

// ----------------------------------------------------------- thread pool ----

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelChunksPartitionExactly) {
  ThreadPool pool(3);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_chunks(10, 110, [&](std::size_t, std::size_t lo, std::size_t hi) {
    const std::lock_guard lock(m);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t expected = 10;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expected);
    EXPECT_GT(hi, lo);
    expected = hi;
  }
  EXPECT_EQ(expected, 110u);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&count] { count++; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DeterministicReduction) {
  // Per-chunk accumulation reduced in fixed order must be reproducible.
  const auto run = [] {
    ThreadPool pool(4);
    std::vector<double> partial(pool.size() + 1, 0.0);
    pool.parallel_chunks(0, 10000, [&](std::size_t c, std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) partial[c] += std::sqrt(static_cast<double>(i));
    });
    double total = 0.0;
    for (const double p : partial) total += p;
    return total;
  };
  EXPECT_EQ(run(), run());
}

TEST(ThreadPool, SubmitExceptionRethrownAtWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran] { ran++; });
  }
  try {
    pool.wait_idle();
    FAIL() << "wait_idle should rethrow the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
  // Every other task still ran — one failure never cancels the queue.
  EXPECT_EQ(ran.load(), 20);
  // The slot is cleared: the pool is reusable and the next wait is clean.
  pool.submit([&ran] { ran++; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 21);
}

TEST(ThreadPool, SubmitOnlyFirstExceptionSurvives) {
  ThreadPool pool(4);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] { throw std::runtime_error("boom"); });
  }
  // Exactly one rethrow regardless of how many tasks failed.
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // nothing pending, nothing stored
}

TEST(ThreadPool, ParallelChunksBodyExceptionReachesCaller) {
  ThreadPool pool(3);
  std::atomic<int> chunks_run{0};
  try {
    pool.parallel_chunks(0, 1000, [&](std::size_t c, std::size_t, std::size_t) {
      chunks_run++;
      if (c == 1) throw std::runtime_error("chunk 1 failed");
    });
    FAIL() << "parallel_chunks should rethrow the body's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1 failed");
  }
  // Every chunk still executed (run-to-completion, then rethrow).
  EXPECT_EQ(chunks_run.load(), 4);
  // The pool survives: a follow-up region runs normally.
  std::atomic<int> after{0};
  pool.parallel_for(0, 100, [&after](std::size_t) { after++; });
  EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPool, ParallelChunksCallerNeverRunsForeignTasks) {
  // The only worker is busy and another task waits in the queue. The
  // caller runs every chunk itself; it must not pick up the queued task
  // (which may be long: a serve daemon's refit shares its pool with
  // request batches).
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> busy;
  pool.submit([&busy, released] {
    busy.set_value();
    released.wait();
  });
  busy.get_future().wait();
  std::thread::id foreign_ran_on;
  pool.submit([&foreign_ran_on] { foreign_ran_on = std::this_thread::get_id(); });

  std::atomic<int> items{0};
  EXPECT_EQ(pool.parallel_chunks(0, 10,
                                 [&items](std::size_t, std::size_t lo, std::size_t hi) {
                                   items += static_cast<int>(hi - lo);
                                 }),
            2U);
  EXPECT_EQ(items.load(), 10);
  release.set_value();
  pool.wait_idle();
  EXPECT_NE(foreign_ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, CallerChunkExceptionAlsoPropagates) {
  // The caller thread runs a chunk too; a throw there must not be
  // swallowed or double-delivered.
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_chunks(
                   0, 10,
                   [](std::size_t, std::size_t, std::size_t) {
                     throw std::logic_error("every chunk fails");
                   }),
               std::logic_error);
  pool.wait_idle();  // no stray exception leaks into the submit slot
}

TEST(Timer, MeasuresElapsed) {
  const Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), 0.0);
}

// ---------------------------------------------------------------- errors ----

TEST(Contracts, ExpectsThrowsWithLocation) {
  try {
    MPHPC_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

TEST(Contracts, EnsuresThrows) {
  EXPECT_THROW(MPHPC_ENSURES(false), ContractViolation);
}

TEST(Contracts, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW(MPHPC_EXPECTS(true));
  EXPECT_NO_THROW(MPHPC_ENSURES(2 + 2 == 4));
}

}  // namespace
}  // namespace mphpc
