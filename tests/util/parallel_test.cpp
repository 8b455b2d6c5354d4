#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sbst::util {
namespace {

TEST(ParallelFor, HardwareThreadsIsPositive) {
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ParallelFor, RunsEveryTaskExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u}) {
    constexpr std::size_t kTasks = 257;  // not a multiple of any count
    std::vector<std::atomic<int>> hits(kTasks);
    parallel_for(threads, kTasks,
                 [&](std::size_t task, unsigned) { ++hits[task]; });
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ParallelFor, EmptyTaskListReturnsImmediately) {
  bool called = false;
  parallel_for(4, 0, [&](std::size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, OneThreadRunsInlineOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t next = 0;
  bool ok = true;
  parallel_for(1, 50, [&](std::size_t task, unsigned worker) {
    // Inline means in order, as worker 0, on this very thread.
    if (task != next++ || worker != 0 ||
        std::this_thread::get_id() != caller) {
      ok = false;
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(next, 50u);
}

TEST(ParallelFor, WorkerIndexInRange) {
  for (std::size_t tasks : {2u, 100u}) {
    // Never more workers than tasks, whatever the thread count asked.
    const unsigned bound = tasks < 3 ? static_cast<unsigned>(tasks) : 3u;
    std::atomic<bool> ok{true};
    parallel_for(3, tasks, [&](std::size_t, unsigned worker) {
      if (worker >= bound) ok = false;
    });
    EXPECT_TRUE(ok) << tasks << " tasks";
  }
}

TEST(ParallelFor, ExceptionPropagatesFromWorker) {
  for (unsigned threads : {1u, 4u}) {
    // Task 0 throws at once; every other task outlasts the throw by far,
    // so a task starting after it can only be one already claimed.
    std::atomic<bool> thrown{false};
    std::atomic<std::size_t> started_after{0};
    EXPECT_THROW(parallel_for(threads, 100,
                              [&](std::size_t task, unsigned) {
                                if (task == 0) {
                                  thrown.store(true);
                                  throw std::runtime_error("task 0 failed");
                                }
                                if (thrown.load()) ++started_after;
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(10));
                              }),
                 std::runtime_error)
        << threads << " threads";
    EXPECT_LT(started_after.load(), threads) << threads << " threads";
  }
}

TEST(ParallelFor, CancelSetBeforeRunExecutesNothing) {
  for (unsigned threads : {1u, 4u}) {
    std::atomic<bool> cancel{true};
    std::atomic<std::size_t> executed{0};
    parallel_for(
        threads, 100, [&](std::size_t, unsigned) { ++executed; }, &cancel);
    EXPECT_EQ(executed.load(), 0u) << threads << " threads";
  }
}

TEST(ParallelFor, CancelMidRunDrainsInFlightTasksOnly) {
  for (unsigned threads : {1u, 4u}) {
    std::atomic<bool> cancel{false};
    std::atomic<std::size_t> executed{0};
    constexpr std::size_t kTasks = 1000;
    parallel_for(
        threads, kTasks,
        [&](std::size_t task, unsigned) {
          ++executed;
          if (task == 5) cancel.store(true);
        },
        &cancel);
    // parallel_for returned normally; after the flag no new task started,
    // so at most the in-flight tasks (one per worker) completed on top.
    EXPECT_GE(executed.load(), 1u) << threads << " threads";
    EXPECT_LT(executed.load(), kTasks) << threads << " threads";
  }
}

TEST(ParallelFor, SerialCancelIsExactlyBounded) {
  // With one worker the drain point is deterministic: the task that sets
  // the flag is the last one to run.
  std::atomic<bool> cancel{false};
  std::size_t executed = 0;
  parallel_for(
      1, 100,
      [&](std::size_t task, unsigned) {
        ++executed;
        if (task == 6) cancel.store(true);
      },
      &cancel);
  EXPECT_EQ(executed, 7u);
}

TEST(ParallelFor, PerWorkerStateStaysDisjoint) {
  // Each worker index owns a scratch slot; concurrent tasks must never
  // observe another worker mutating their slot mid-task.
  constexpr unsigned kThreads = 4;
  std::vector<int> scratch(kThreads, 0);
  std::atomic<bool> torn{false};
  parallel_for(kThreads, 200, [&](std::size_t, unsigned w) {
    const int before = ++scratch[w];
    if (scratch[w] != before) torn = true;
  });
  EXPECT_FALSE(torn);
  std::size_t sum = 0;
  for (int s : scratch) sum += static_cast<std::size_t>(s);
  EXPECT_EQ(sum, 200u);
}

}  // namespace
}  // namespace sbst::util
