#include "util/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sbst::util {

unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

struct ThreadPool::Impl {
  std::mutex m;
  std::condition_variable cv_start;
  std::condition_variable cv_done;
  std::vector<std::thread> workers;

  // Current job (guarded by m except the atomics).
  const std::function<void(std::size_t, unsigned)>* job = nullptr;
  const std::atomic<bool>* cancel = nullptr;
  std::size_t total = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::uint64_t epoch = 0;
  /// Workers inside work() (guarded by m). `run` rewrites the job fields
  /// only when it is 0 and returns only once it is 0 again, so a late
  /// worker still draining one run never reads the next run's fields.
  unsigned active = 0;
  bool stop = false;

  /// Claims and executes tasks until the range is exhausted. Workers that
  /// wake late (or not at all) are harmless: completion is counted per
  /// task, not per worker, and a late worker only finds the range
  /// exhausted.
  void work(unsigned worker) {
    for (;;) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= total) return;
      // A failed or cancelled job keeps claiming (and counting) the
      // remaining tasks without executing them, so completion still
      // converges on done == total.
      if (!failed.load(std::memory_order_relaxed) &&
          !(cancel && cancel->load(std::memory_order_relaxed))) {
        try {
          (*job)(task, worker);
        } catch (...) {
          std::lock_guard<std::mutex> lock(m);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        std::lock_guard<std::mutex> lock(m);
        cv_done.notify_all();
      }
    }
  }

  void worker_loop(unsigned worker) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(m);
        cv_start.wait(lock, [&] { return stop || epoch != seen; });
        if (stop) return;
        seen = epoch;
        ++active;
      }
      work(worker);
      std::lock_guard<std::mutex> lock(m);
      if (--active == 0) cv_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(unsigned threads) : impl_(new Impl) {
  if (threads == 0) threads = hardware_threads();
  impl_->workers.reserve(threads - 1);
  for (unsigned w = 1; w < threads; ++w) {
    impl_->workers.emplace_back([this, w] { impl_->worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->stop = true;
    impl_->cv_start.notify_all();
  }
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

unsigned ThreadPool::size() const {
  return static_cast<unsigned>(impl_->workers.size()) + 1;
}

void ThreadPool::run(std::size_t num_tasks,
                     const std::function<void(std::size_t, unsigned)>& fn,
                     const std::atomic<bool>* cancel) {
  if (num_tasks == 0) return;
  Impl& im = *impl_;
  if (im.workers.empty()) {
    // Serial pool: run inline, exceptions propagate directly.
    for (std::size_t i = 0; i < num_tasks; ++i) {
      if (cancel && cancel->load(std::memory_order_relaxed)) return;
      fn(i, 0);
    }
    return;
  }
  {
    std::unique_lock<std::mutex> lock(im.m);
    // A worker that woke after the previous run returned may still be
    // draining it (finding no task left); let it leave first.
    im.cv_done.wait(lock, [&] { return im.active == 0; });
    im.job = &fn;
    im.cancel = cancel;
    im.total = num_tasks;
    im.next.store(0, std::memory_order_relaxed);
    im.done.store(0, std::memory_order_relaxed);
    im.failed.store(false, std::memory_order_relaxed);
    im.error = nullptr;
    ++im.epoch;
    im.cv_start.notify_all();
  }
  im.work(0);  // the calling thread is worker 0
  std::unique_lock<std::mutex> lock(im.m);
  im.cv_done.wait(lock, [&] {
    return im.done.load(std::memory_order_acquire) == im.total &&
           im.active == 0;
  });
  im.job = nullptr;
  im.cancel = nullptr;
  if (im.error) std::rethrow_exception(im.error);
}

}  // namespace sbst::util
