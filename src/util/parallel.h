// One-shot parallel loop for embarrassingly parallel work.
//
// Work is claimed dynamically from a shared atomic counter (chunk size 1):
// workers that finish early keep claiming remaining task indices, so
// uneven task costs — fault groups that drop early vs. groups that run to
// max_cycles — balance automatically. The calling thread participates as
// worker 0, so a loop over N workers uses exactly N OS threads, and every
// thread it starts has joined before it returns.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

namespace sbst::util {

/// Number of hardware threads, never less than 1.
unsigned hardware_threads();

/// Runs fn(task, worker) for every task in [0, num_tasks) on
/// min(threads, num_tasks) workers: threads - 1 started std::threads plus
/// the calling thread as worker 0. `worker` is a stable index identifying
/// the executing thread, so callers can keep per-worker scratch state
/// without locks. With one worker (threads <= 1 or a single task) every
/// task runs inline and no thread is started.
///
/// After a task throws, no further task starts and the first exception
/// is rethrown once every thread has joined.
///
/// `cancel`, when non-null, requests a graceful drain: it is read
/// (relaxed) before each task, and once it reads true no further task
/// starts; in-flight tasks run to completion and the call returns
/// normally. It may be set from a signal handler or any thread.
void parallel_for(unsigned threads, std::size_t num_tasks,
                  const std::function<void(std::size_t, unsigned)>& fn,
                  const std::atomic<bool>* cancel = nullptr);

}  // namespace sbst::util
