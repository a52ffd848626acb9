// ppo_runner pool + sweep engine: task execution, bounded-queue
// backpressure, drain-on-shutdown with in-flight tasks, exception
// capture/propagation, and the jobs-independence (parallel == serial)
// determinism contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"

namespace ppo::runner {
namespace {

TEST(ThreadPool, RunsEverySubmittedTaskOnce) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4, 2);  // tiny queue: submit must apply backpressure
    for (int i = 0; i < 200; ++i)
      pool.submit([&counter] { counter.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(counter.load(), 200);
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DestructorDrainsInFlightAndQueuedTasks) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i)
      pool.submit([&completed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        completed.fetch_add(1);
      });
    // Destructor runs with most tasks still queued or in flight.
  }
  EXPECT_EQ(completed.load(), 16);
}

TEST(ThreadPool, DrainRethrowsTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(
      {
        try {
          pool.drain();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task boom");
          throw;
        }
      },
      std::runtime_error);
  // The pool survives a failed task and keeps accepting work.
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.drain();
  EXPECT_TRUE(ran.load());
}

// The alpha sweeps' ER baselines wait on a graph the sweep's first
// task builds. That cannot deadlock because the pool hands out tasks in
// FIFO order and the first task never waits: whichever worker reaches
// a waiting task, the first task is already running or done.
TEST(ThreadPool, TaskWaitingOnAnEarlierTaskFinishes) {
  for (const std::size_t workers : {1u, 2u, 8u}) {
    std::promise<int> promise;
    const std::shared_future<int> ready = promise.get_future().share();
    std::atomic<int> sum{0};
    ThreadPool pool(workers);
    pool.submit([&promise] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      promise.set_value(1);
    });
    for (std::size_t i = 0; i < 3 * workers; ++i)
      pool.submit([&ready, &sum] { sum.fetch_add(ready.get()); });
    pool.drain();
    EXPECT_EQ(sum.load(), static_cast<int>(3 * workers)) << workers;
  }
}

TEST(ThreadPool, AutoSizingUsesAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  EXPECT_GE(pool.queue_capacity(), 2u);
}

TEST(CellSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(cell_seed(42, 0), cell_seed(42, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t root : {0ull, 1ull, 42ull})
    for (std::uint64_t index = 0; index < 64; ++index)
      seen.insert(cell_seed(root, index));
  EXPECT_EQ(seen.size(), 3u * 64u);  // no collisions across roots/cells
}

// A cheap but seed-sensitive cell function: any scheduling-dependent
// seeding or result placement would show up immediately.
double synthetic_cell(const CellInfo& cell) {
  double acc = 0.0;
  std::uint64_t x = cell.seed;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += std::sin(static_cast<double>(x % 10'000));
  }
  return acc;
}

TEST(Sweep, GridResultsAreIdenticalForAnyJobCount) {
  SweepOptions serial;
  serial.jobs = 1;
  serial.root_seed = 7;
  SweepOptions parallel = serial;
  parallel.jobs = 8;

  const auto a = run_grid(64, serial, synthetic_cell);
  const auto b = run_grid(64, parallel, synthetic_cell);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i)
    EXPECT_EQ(a.cells[i], b.cells[i]) << "cell " << i;  // bit-identical
  EXPECT_EQ(a.telemetry.jobs, 1u);
  EXPECT_EQ(b.telemetry.jobs, 8u);
}

TEST(Sweep, CellsSeeTheirIndexSeedAndCount) {
  SweepOptions opt;
  opt.jobs = 4;
  opt.root_seed = 99;
  const auto grid = run_grid(10, opt, [](const CellInfo& cell) {
    EXPECT_EQ(cell.count, 10u);
    EXPECT_EQ(cell.seed, cell_seed(99, cell.index));
    return cell.index;
  });
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(grid.cells[i], i);
}

TEST(Sweep, TelemetryCoversEveryCell) {
  SweepOptions opt;
  opt.jobs = 2;
  const auto grid = run_grid(5, opt, synthetic_cell);
  EXPECT_EQ(grid.telemetry.cells, 5u);
  ASSERT_EQ(grid.telemetry.cell_seconds.size(), 5u);
  for (const double s : grid.telemetry.cell_seconds) EXPECT_GE(s, 0.0);
  EXPECT_GT(grid.telemetry.wall_seconds, 0.0);
}

TEST(Sweep, LowestIndexExceptionWinsDeterministically) {
  SweepOptions opt;
  opt.jobs = 8;
  const auto throwing = [](const CellInfo& cell) -> int {
    if (cell.index == 3) throw std::runtime_error("cell 3 failed");
    if (cell.index == 11) throw std::runtime_error("cell 11 failed");
    return 0;
  };
  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      run_grid(16, opt, throwing);
      FAIL() << "expected the sweep to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 3 failed");
    }
  }
}

TEST(Sweep, ProgressReportingCountsCells) {
  std::ostringstream progress;
  SweepOptions opt;
  opt.jobs = 2;
  opt.progress = true;
  opt.progress_stream = &progress;
  opt.label = "unit-sweep";
  run_grid(4, opt, synthetic_cell);
  const std::string text = progress.str();
  EXPECT_NE(text.find("unit-sweep: "), std::string::npos);
  EXPECT_NE(text.find("4/4 tasks done"), std::string::npos);
  EXPECT_NE(text.find("ETA"), std::string::npos);
}

TEST(Sweep, ReplicatedMergesInReplicaOrder) {
  SweepOptions serial;
  serial.jobs = 1;
  serial.root_seed = 5;
  SweepOptions parallel = serial;
  parallel.jobs = 8;

  const auto a = run_replicated(32, serial, synthetic_cell);
  const auto b = run_replicated(32, parallel, synthetic_cell);
  EXPECT_EQ(a.stats.count(), 32u);
  EXPECT_EQ(a.stats.mean(), b.stats.mean());      // bit-identical
  EXPECT_EQ(a.stats.stddev(), b.stats.stddev());
  EXPECT_EQ(a.stats.min(), b.stats.min());
  EXPECT_EQ(a.stats.max(), b.stats.max());
}

TEST(Sweep, EmptyGridIsANoop) {
  SweepOptions opt;
  const auto grid = run_grid(0, opt, synthetic_cell);
  EXPECT_TRUE(grid.cells.empty());
  EXPECT_EQ(grid.telemetry.cells, 0u);
}

}  // namespace
}  // namespace ppo::runner
