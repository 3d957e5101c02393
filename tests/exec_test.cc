/**
 * @file
 * The parallel sweep engine: thread-pool lifecycle, deterministic
 * submission-order merging, exception propagation, cancellation
 * prefixes, and the --jobs parsing contract.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parse.hh"
#include "common/wait_help.hh"
#include "exec/parallel_sweep.hh"
#include "exec/thread_pool.hh"

namespace membw {
namespace {

// ---------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    std::atomic<int> count{0};
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    std::atomic<int> count{0};
    ThreadPool pool(2);
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DestructorDrainsPendingWork)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 20; ++i)
            pool.submit([&count] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ++count;
            });
        // No wait(): the destructor must drain the queue.
    }
    EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, ClampsWorkerCount)
{
    ThreadPool zero(0);
    EXPECT_EQ(zero.threads(), 1u);
    ThreadPool vast(100000);
    EXPECT_LE(vast.threads(), maxParallelJobs);
    ThreadPool four(4);
    EXPECT_EQ(four.threads(), 4u);
}

TEST(ThreadPool, DefaultJobsIsSane)
{
    const unsigned jobs = defaultJobs();
    EXPECT_GE(jobs, 1u);
    EXPECT_LE(jobs, maxParallelJobs);
}

// ---------------------------------------------------------------
// parallelSweep: determinism
// ---------------------------------------------------------------

TEST(ParallelSweep, ResultsLandInSubmissionOrder)
{
    // Later cells finish first (earlier cells sleep longer), yet the
    // result vector must still read 0, 1, 2, ... in order.
    const std::size_t n = 16;
    auto cell = [](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds((16 - i) * 100));
        return i * 10;
    };
    const std::vector<std::size_t> serial = parallelSweep(n, 1, cell);
    const std::vector<std::size_t> parallel =
        parallelSweep(n, 4, cell);
    ASSERT_EQ(serial.size(), n);
    EXPECT_EQ(serial, parallel);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(serial[i], i * 10);
}

TEST(ParallelSweep, SingleCellAndEmptySweep)
{
    const auto one =
        parallelSweep(1, 8, [](std::size_t) { return 7; });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 7);

    const auto none =
        parallelSweep(0, 8, [](std::size_t) { return 7; });
    EXPECT_TRUE(none.empty());
}

TEST(ParallelSweep, MoreJobsThanCells)
{
    const auto r = parallelSweep(3, 16, [](std::size_t i) {
        return static_cast<int>(i) + 1;
    });
    EXPECT_EQ(r, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelSweep, OnPrefixIsMonotonicAndComplete)
{
    SweepOptions opt;
    opt.jobs = 4;
    std::vector<std::size_t> prefixes;
    opt.onPrefix = [&prefixes](std::size_t p) {
        prefixes.push_back(p);
    };
    const auto r = parallelSweep(
        32, opt, [](std::size_t i) { return i; });
    EXPECT_EQ(r.completed, 32u);
    EXPECT_FALSE(r.interrupted);
    ASSERT_FALSE(prefixes.empty());
    for (std::size_t i = 1; i < prefixes.size(); ++i)
        EXPECT_LT(prefixes[i - 1], prefixes[i]);
    EXPECT_EQ(prefixes.back(), 32u);
}

// ---------------------------------------------------------------
// parallelSweep: exceptions
// ---------------------------------------------------------------

TEST(ParallelSweep, PropagatesCellExceptions)
{
    SweepOptions opt;
    opt.jobs = 4;
    EXPECT_THROW(parallelSweep(8, opt,
                               [](std::size_t i) -> int {
                                   if (i == 5)
                                       throw std::runtime_error("x");
                                   return 0;
                               }),
                 std::runtime_error);
}

TEST(ParallelSweep, SerialFailureStopsLaterCells)
{
    // With jobs == 1 the first throwing cell aborts the sweep before
    // any later cell starts.
    std::vector<std::size_t> ran;
    SweepOptions opt;
    opt.jobs = 1;
    try {
        parallelSweep(8, opt, [&ran](std::size_t i) -> int {
            ran.push_back(i);
            if (i == 3)
                throw std::runtime_error("cell 3");
            return 0;
        });
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell 3");
    }
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ParallelSweep, LowestIndexExceptionWins)
{
    // Multiple cells throw; after the drain the rethrown error must
    // be the lowest-index one that actually ran.
    SweepOptions opt;
    opt.jobs = 4;
    std::size_t lowestThrown = SIZE_MAX;
    std::mutex m;
    try {
        parallelSweep(16, opt, [&](std::size_t i) -> int {
            if (i % 3 == 0) {
                {
                    std::lock_guard<std::mutex> lock(m);
                    if (i < lowestThrown)
                        lowestThrown = i;
                }
                throw i;
            }
            return 0;
        });
        FAIL() << "expected a throw";
    } catch (std::size_t thrown) {
        EXPECT_EQ(thrown, lowestThrown);
    }
}

// ---------------------------------------------------------------
// parallelSweep: cancellation
// ---------------------------------------------------------------

TEST(ParallelSweep, CancelReportsContiguousPrefix)
{
    for (unsigned jobs : {1u, 4u}) {
        SweepOptions opt;
        opt.jobs = jobs;
        std::atomic<bool> stop{false};
        opt.cancel = [&stop] { return stop.load(); };
        opt.onPrefix = [&stop](std::size_t p) {
            if (p >= 5)
                stop.store(true);
        };
        const auto r = parallelSweep(64, opt, [](std::size_t i) {
            // Slow enough that the cancel poll observably beats the
            // claim loop; instant cells could all finish first.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
            return static_cast<int>(i) + 1;
        });
        EXPECT_TRUE(r.interrupted) << "jobs " << jobs;
        EXPECT_GE(r.completed, 5u) << "jobs " << jobs;
        EXPECT_LT(r.completed, 64u) << "jobs " << jobs;
        // The completed prefix is contiguous and fully populated.
        for (std::size_t i = 0; i < r.completed; ++i)
            EXPECT_EQ(r.cells[i], static_cast<int>(i) + 1);
    }
}

TEST(ParallelSweep, CancelBeforeStartRunsNothing)
{
    SweepOptions opt;
    opt.jobs = 4;
    opt.cancel = [] { return true; };
    std::atomic<int> ran{0};
    const auto r = parallelSweep(8, opt, [&ran](std::size_t i) {
        ++ran;
        return i;
    });
    EXPECT_TRUE(r.interrupted);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelSweep, WaitingCellRunsTheRemainingCells)
{
    // Cell 0 waits until every other cell has run, and cell 1 until
    // some other cell has: on two workers both finish only if the
    // waiting cell's worker runs cells meanwhile (WaitHelper).
    constexpr std::size_t n = 16;
    std::atomic<std::size_t> finished{0};
    std::atomic<bool> timedOut{false};
    const auto cells = parallelSweep(n, 2, [&](std::size_t i) {
        if (i == 0) {
            while (finished.load() < n - 1)
                if (!WaitHelper::help())
                    std::this_thread::yield();
        } else {
            if (i == 1) {
                const auto deadline = std::chrono::steady_clock::now() +
                                      std::chrono::seconds(10);
                while (finished.load() == 0 && !timedOut)
                    timedOut = std::chrono::steady_clock::now() > deadline;
            }
            ++finished;
        }
        return static_cast<int>(i) * 3;
    });
    EXPECT_FALSE(timedOut.load());
    ASSERT_EQ(cells.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(cells[i], static_cast<int>(i) * 3);
    EXPECT_FALSE(WaitHelper::help()); // no helper outside a sweep
}

// ---------------------------------------------------------------
// --jobs parsing
// ---------------------------------------------------------------

TEST(ParseJobs, AcceptsValidCounts)
{
    EXPECT_EQ(tryParseJobs("1").value(), 1u);
    EXPECT_EQ(tryParseJobs("4").value(), 4u);
    EXPECT_EQ(tryParseJobs("256").value(), 256u);
}

TEST(ParseJobs, RejectsZero)
{
    const auto r = tryParseJobs("0");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("at least 1"),
              std::string::npos);
}

TEST(ParseJobs, RejectsOversubscription)
{
    const auto r = tryParseJobs("257");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("oversubscribes"),
              std::string::npos);
    EXPECT_FALSE(tryParseJobs("100000").ok());
}

TEST(ParseJobs, RejectsGarbage)
{
    EXPECT_FALSE(tryParseJobs("").ok());
    EXPECT_FALSE(tryParseJobs("four").ok());
    EXPECT_FALSE(tryParseJobs("-2").ok());
    EXPECT_FALSE(tryParseJobs("3.5").ok());
}

TEST(ParseSizeList, ParsesCommaSeparatedSizes)
{
    const auto r = tryParseSizeList("1K,64K,1M");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(),
              (std::vector<Bytes>{1024, 65536, 1048576}));
}

TEST(ParseSizeList, RejectsBadElements)
{
    EXPECT_FALSE(tryParseSizeList("").ok());
    EXPECT_FALSE(tryParseSizeList("1K,,2K").ok());
    EXPECT_FALSE(tryParseSizeList("1K,banana").ok());
}

} // namespace
} // namespace membw
