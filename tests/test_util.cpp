/**
 * @file
 * Unit tests for the util substrate: RNG, statistics, bit helpers,
 * table rendering and the fork-join TaskPool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/task_pool.hpp"

namespace autocat {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(77);
    const auto x0 = a.next();
    a.next();
    a.reseed(77);
    EXPECT_EQ(a.next(), x0);
}

TEST(Rng, UniformIntInBounds)
{
    Rng rng(9);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(rng.uniformInt(7), 7u);
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(10);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval)
{
    Rng rng(12);
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.uniformDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(14);
    RunningStat st;
    for (int i = 0; i < 20000; ++i)
        st.push(rng.gaussian(2.0, 3.0));
    EXPECT_NEAR(st.mean(), 2.0, 0.1);
    EXPECT_NEAR(st.stddev(), 3.0, 0.1);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(15);
    std::vector<int> v{1, 2, 3, 4, 5, 6};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, WeightedIndexPrefersHeavyWeight)
{
    Rng rng(16);
    int heavy = 0;
    for (int i = 0; i < 5000; ++i) {
        if (rng.weightedIndex({0.1, 0.8, 0.1}) == 1)
            ++heavy;
    }
    EXPECT_GT(heavy, 3500);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(99);
    Rng child = a.split();
    EXPECT_NE(a.next(), child.next());
}

// ------------------------------------------------------------- stats --

TEST(RunningStat, BasicMoments)
{
    RunningStat st;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        st.push(x);
    EXPECT_EQ(st.count(), 8u);
    EXPECT_DOUBLE_EQ(st.mean(), 5.0);
    EXPECT_NEAR(st.stddev(), 2.138, 1e-3);
    EXPECT_DOUBLE_EQ(st.min(), 2.0);
    EXPECT_DOUBLE_EQ(st.max(), 9.0);
    EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat st;
    EXPECT_EQ(st.count(), 0u);
    EXPECT_EQ(st.mean(), 0.0);
    EXPECT_EQ(st.variance(), 0.0);
}

TEST(RunningStat, ResetClears)
{
    RunningStat st;
    st.push(1.0);
    st.reset();
    EXPECT_EQ(st.count(), 0u);
}

TEST(Stats, MeanAndStddev)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(stddev({1.0, 2.0, 3.0}), 1.0, 1e-12);
    EXPECT_EQ(mean({}), 0.0);
    EXPECT_EQ(stddev({5.0}), 0.0);
}

TEST(Stats, Median)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Autocorrelation, PerfectlyPeriodicTrainHasHighPeak)
{
    // Alternating 1,0,1,0,... has |C_2| near 1 at even lags.
    std::vector<double> xs;
    for (int i = 0; i < 60; ++i)
        xs.push_back(i % 2 == 0 ? 1.0 : 0.0);
    EXPECT_GT(autocorrelation(xs, 2), 0.9);
    EXPECT_LT(autocorrelation(xs, 1), -0.9);
    EXPECT_GT(maxAutocorrelation(xs, 10), 0.9);
}

TEST(Autocorrelation, ConstantTrainIsZero)
{
    std::vector<double> xs(50, 1.0);
    EXPECT_EQ(autocorrelation(xs, 1), 0.0);
    EXPECT_EQ(maxAutocorrelation(xs, 10), 0.0);
}

TEST(Autocorrelation, RandomTrainHasLowPeak)
{
    Rng rng(7);
    std::vector<double> xs;
    for (int i = 0; i < 400; ++i)
        xs.push_back(static_cast<double>(rng.uniformInt(2)));
    EXPECT_LT(maxAutocorrelation(xs, 20), 0.3);
}

TEST(Autocorrelation, InvalidLagReturnsZero)
{
    std::vector<double> xs{1.0, 0.0, 1.0};
    EXPECT_EQ(autocorrelation(xs, 0), 0.0);
    EXPECT_EQ(autocorrelation(xs, 3), 0.0);
    EXPECT_EQ(autocorrelation(xs, 99), 0.0);
}

TEST(Autocorrelation, CorrelogramLength)
{
    std::vector<double> xs(30, 0.0);
    xs[3] = 1.0;
    EXPECT_EQ(autocorrelogram(xs, 10).size(), 10u);
    EXPECT_EQ(autocorrelogram(xs, 100).size(), 29u);
}

// -------------------------------------------------------------- bits --

TEST(Bits, RandomBitsAreBinaryAndSized)
{
    Rng rng(21);
    const BitString b = randomBits(rng, 512);
    ASSERT_EQ(b.size(), 512u);
    for (auto v : b)
        EXPECT_LE(v, 1);
}

TEST(Bits, HammingDistance)
{
    EXPECT_EQ(hammingDistance({1, 0, 1}, {1, 1, 1}), 1u);
    EXPECT_EQ(hammingDistance({1, 0}, {1, 0, 1}), 1u);  // zero padded
    EXPECT_EQ(hammingDistance({}, {}), 0u);
}

TEST(Bits, BitErrorRate)
{
    EXPECT_DOUBLE_EQ(bitErrorRate({1, 1, 1, 1}, {1, 1, 0, 0}), 0.5);
    EXPECT_DOUBLE_EQ(bitErrorRate({}, {}), 0.0);
}

class PackRoundtrip : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PackRoundtrip, PackUnpackIsIdentity)
{
    const unsigned bps = GetParam();
    Rng rng(31 + bps);
    BitString msg = randomBits(rng, 96);  // multiple of 1..4
    const auto symbols = packSymbols(msg, bps);
    BitString back = unpackSymbols(symbols, bps);
    back.resize(msg.size());
    EXPECT_EQ(back, msg);
    for (unsigned s : symbols)
        EXPECT_LT(s, 1u << bps);
}

INSTANTIATE_TEST_SUITE_P(BitsPerSymbol, PackRoundtrip,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(Bits, PackPadsTail)
{
    const auto symbols = packSymbols({1, 1, 1}, 2);
    ASSERT_EQ(symbols.size(), 2u);
    EXPECT_EQ(symbols[0], 3u);
    EXPECT_EQ(symbols[1], 2u);  // trailing 1 padded with 0
}

TEST(Bits, ToStringRendering)
{
    EXPECT_EQ(toString({1, 0, 1, 1}), "1011");
}

// ------------------------------------------------------------- table --

TEST(TextTable, RendersHeadersAndRows)
{
    TextTable t("Demo", {"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::ostringstream oss;
    t.print(oss);
    const std::string s = oss.str();
    EXPECT_NE(s.find("Demo"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TextTable, CsvEscapesCommasAndQuotes)
{
    TextTable t("T", {"x"});
    t.addRow({"a,b"});
    t.addRow({"say \"hi\""});
    std::ostringstream oss;
    t.printCsv(oss);
    const std::string s = oss.str();
    EXPECT_NE(s.find("\"a,b\""), std::string::npos);
    EXPECT_NE(s.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(42L), "42");
}

// --------------------------------------------------------- task pool --

/** Yield until @p done holds; false after 30 s, so a broken pool fails
 *  the test instead of hanging it. */
template <typename Done>
bool
waitFor(Done done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

TEST(TaskPool, NumThreadsCountsTheCaller)
{
    EXPECT_EQ(TaskPool(1).numThreads(), 1u);
    EXPECT_EQ(TaskPool(4).numThreads(), 4u);
    EXPECT_EQ(TaskPool(8, /*max_useful=*/3).numThreads(), 3u);

    // A pool of 1 starts no thread.
    TaskPool solo(1);
    const auto caller = std::this_thread::get_id();
    std::atomic<int> elsewhere{0};
    solo.parallelFor(0, 16, [&](std::size_t) {
        if (std::this_thread::get_id() != caller)
            elsewhere.fetch_add(1);
    });
    EXPECT_EQ(elsewhere.load(), 0);
}

TEST(TaskPool, ExecutorsAreTheCallerAndItsWorkers)
{
    for (std::size_t n : {2u, 4u}) {
        TaskPool pool(n);
        std::mutex mutex;
        std::set<std::thread::id> ids;
        const auto joined = [&] {
            std::lock_guard<std::mutex> lock(mutex);
            return ids.size();
        };
        // Each index holds its executor until n threads have joined
        // the batch, so each of the n executors runs one index.
        pool.parallelFor(0, n, [&](std::size_t) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                ids.insert(std::this_thread::get_id());
            }
            EXPECT_TRUE(waitFor([&] { return joined() == n; }));
        });
        EXPECT_EQ(ids.size(), n);
        EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
    }
}

TEST(TaskPool, EveryIndexRunsOnceAcrossBackToBackBatches)
{
    // 8 executors oversubscribe a 4-CPU host.
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        TaskPool pool(threads);
        std::array<std::atomic<int>, 16> hits{};
        std::array<std::atomic<int>, 16> batch_of{};
        long ran = 0, expected = 0;
        for (int b = 0; b < 10000; ++b) {
            const std::size_t begin = static_cast<std::size_t>(b % 5);
            const std::size_t end =
                begin + 1 + static_cast<std::size_t>(b % 9);
            for (auto &h : hits)
                h.store(0);
            // A task run twice, skipped, or run through an earlier
            // batch's function shows up in hits or batch_of.
            pool.parallelFor(begin, end, [&, b](std::size_t i) {
                hits[i].fetch_add(1);
                batch_of[i].store(b);
            });
            expected += static_cast<long>(end - begin);
            for (std::size_t i = 0; i < hits.size(); ++i) {
                const bool in = i >= begin && i < end;
                ASSERT_EQ(hits[i].load(), in ? 1 : 0)
                    << threads << " executors, batch " << b << ", index "
                    << i;
                if (in) {
                    ASSERT_EQ(batch_of[i].load(), b);
                }
                ran += hits[i].load();
            }
        }
        EXPECT_EQ(ran, expected) << threads << " executors";
    }
}

TEST(TaskPool, ExceptionsReachTheCallerAndTheNextBatchRuns)
{
    TaskPool pool(2);
    const auto caller = std::this_thread::get_id();
    for (bool on_caller : {true, false}) {
        std::atomic<bool> thrown{false};
        std::atomic<int> ran{0};
        // Two indices: one throws on the chosen side, the other waits
        // for that throw, so each executor runs one index (or the
        // thrower runs both).
        const auto task = [&](std::size_t) {
            ran.fetch_add(1);
            if ((std::this_thread::get_id() == caller) == on_caller) {
                thrown.store(true);
                throw std::runtime_error(on_caller ? "caller" : "worker");
            }
            EXPECT_TRUE(waitFor([&] { return thrown.load(); }));
        };
        try {
            pool.parallelFor(0, 2, task);
            ADD_FAILURE() << "no exception reached the caller";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), on_caller ? "caller" : "worker");
        }
        EXPECT_EQ(ran.load(), 2);

        std::atomic<int> next{0};
        pool.parallelFor(0, 100, [&](std::size_t) { next.fetch_add(1); });
        EXPECT_EQ(next.load(), 100);
    }
}

TEST(TaskPool, ThrowingIndexDoesNotSkipTheRest)
{
    for (std::size_t threads : {1u, 4u}) {
        TaskPool pool(threads);
        std::array<std::atomic<int>, 64> hits{};
        EXPECT_THROW(pool.parallelFor(0, hits.size(),
                                      [&](std::size_t i) {
                                          hits[i].fetch_add(1);
                                          if (i % 16 == 3)
                                              throw std::runtime_error("x");
                                      }),
                     std::runtime_error);
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << threads << " executors";
    }
}

TEST(TaskPool, EmptyRangeReturnsWithoutDispatching)
{
    TaskPool pool(4);
    bool called = false;  // a plain bool: a worker writing it would race
    pool.parallelFor(3, 3, [&](std::size_t) { called = true; });
    pool.parallelFor(5, 2, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(TaskPool, DestroyedInsideTheSpinWindowJoinsCleanly)
{
    // Each pool dies right after its batch, while its idle workers are
    // still polling for the next one.
    for (int round = 0; round < 200; ++round) {
        std::atomic<int> ran{0};
        {
            TaskPool pool(4);
            pool.parallelFor(0, 8, [&](std::size_t) { ran.fetch_add(1); });
        }
        ASSERT_EQ(ran.load(), 8) << "round " << round;
    }
}

} // namespace
} // namespace autocat
