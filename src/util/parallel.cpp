#include "util/parallel.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sbst::util {

unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

void parallel_for(unsigned threads, std::size_t num_tasks,
                  const std::function<void(std::size_t, unsigned)>& fn,
                  const std::atomic<bool>* cancel) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto work = [&](unsigned worker) {
    while (!failed.load(std::memory_order_relaxed) &&
           !(cancel && cancel->load(std::memory_order_relaxed))) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= num_tasks) return;
      try {
        fn(task, worker);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const auto workers = static_cast<unsigned>(
      std::min<std::size_t>(std::max(threads, 1u), num_tasks));
  std::vector<std::thread> started;
  try {
    for (unsigned w = 1; w < workers; ++w) started.emplace_back(work, w);
  } catch (...) {
    // Could not start a thread: stop the ones already running.
    failed.store(true, std::memory_order_relaxed);
    for (std::thread& t : started) t.join();
    throw;
  }
  work(0);  // the calling thread is worker 0
  for (std::thread& t : started) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace sbst::util
