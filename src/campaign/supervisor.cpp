#include "campaign/supervisor.h"

#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <stdexcept>

#include "campaign/ipc.h"
#include "campaign/journal.h"
#include "util/parallel.h"
#include "util/proc.h"

namespace sbst::campaign {

namespace {

using Clock = std::chrono::steady_clock;

/// A worker's whole life. It is forked from a worker thread, so it may
/// touch only its inherited GroupSimulator, its pipe and _exit: a lock
/// another thread held at the fork (hook mutex, journal, telemetry,
/// stdio) stays held forever in the child. The simulator was never used
/// by the parent, so every attempt starts from identical state, and the
/// good trace it reads was recorded before the fork.
[[noreturn]] void worker_main(fault::GroupSimulator& sim,
                              const CampaignOptions& options, int in_fd,
                              int out_fd) {
  // Drain signals are the supervisor's job: a Ctrl-C reaches the whole
  // process group, but only the supervisor should react (stop handing
  // out groups); workers finish their in-flight group and exit on EOF.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  ::signal(SIGPIPE, SIG_IGN);  // a dead supervisor turns writes into EPIPE

  if (options.iso.worker_mem_mb != 0) {
    const rlim_t bytes =
        static_cast<rlim_t>(options.iso.worker_mem_mb) * 1024 * 1024;
    rlimit lim{bytes, bytes};
    ::setrlimit(RLIMIT_AS, &lim);
  }
  if (options.sim.time_budget_ms != 0) {
    // Coarse backstop only: the precise per-group bound is the
    // cooperative deadline inside GroupSimulator plus the supervisor's
    // wall-clock hard kill. RLIMIT_CPU is cumulative over the worker's
    // whole life, so it cannot be a per-group limit.
    const rlim_t secs =
        static_cast<rlim_t>(options.sim.time_budget_ms / 1000) * 2 + 30;
    rlimit lim{secs, secs};
    ::setrlimit(RLIMIT_CPU, &lim);
  }

  // Nothing may unwind past this frame: the child's stack below here is
  // a copy of the supervisor's (run_campaign, the test runner, main), and
  // an escaping exception would resume the parent's program in the child.
  try {
    ipc::Frame frame;
    while (ipc::read_frame(in_fd, &frame)) {
      ipc::GroupRequest req;
      if (frame.tag != ipc::kTagGroup ||
          !ipc::decode_group_request(frame.payload, &req)) {
        _exit(2);
      }
      if (options.iso.crash_group >= 0 &&
          req.group == static_cast<std::uint64_t>(options.iso.crash_group) &&
          req.attempt < options.iso.crash_attempts) {
        // Seeded crash hook (tests): die exactly like a simulator bug
        // would, after the request was accepted.
        std::abort();
      }
      const fault::GroupRecord rec =
          sim.simulate(static_cast<std::size_t>(req.group));
      if (!ipc::write_frame(out_fd, ipc::kTagRecord,
                            encode_record_payload(rec))) {
        _exit(2);
      }
    }
  } catch (...) {
    // bad_alloc under RLIMIT_AS, or any simulator failure: die the way
    // an uncaught exception would, so the supervisor records SIGABRT.
    std::abort();
  }
  // EOF on the request pipe: the supervisor is done with us. _exit, not
  // exit — the child inherited the parent's stdio/journal buffers and
  // must not flush them a second time.
  _exit(0);
}

}  // namespace

IsolatedWorkers::IsolatedWorkers(const CampaignOptions& options)
    : options_(options),
      // The worker enforces group_timeout_ms cooperatively inside
      // simulate(); the hard deadline only fires when the group wedges
      // the worker so badly that the cooperative check never runs.
      hang_grace_(options.sim.group_timeout_ms != 0
                      ? options.sim.group_timeout_ms * 2 + 1000
                      : 0),
      workers_(options.sim.threads != 0 ? options.sim.threads
                                        : util::hardware_threads()) {
  struct sigaction ignore_pipe {};
  ignore_pipe.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &ignore_pipe, &saved_pipe_);
}

IsolatedWorkers::~IsolatedWorkers() {
  // EOF on its request pipe tells a worker to _exit(0). Close every
  // request pipe before reaping: a worker holds copies of the request
  // pipes of the workers forked before it, so the EOFs cascade from the
  // newest worker to the oldest.
  for (Worker& w : workers_) {
    if (w.to_fd >= 0) ::close(w.to_fd);
    w.to_fd = -1;
  }
  for (Worker& w : workers_) {
    if (w.pid > 0) reap(&w);
  }
  ::sigaction(SIGPIPE, &saved_pipe_, nullptr);
}

void IsolatedWorkers::spawn(fault::GroupSimulator& pristine, Worker* w) {
  const std::lock_guard<std::mutex> lock(spawn_mutex_);
  int req[2] = {-1, -1};
  int res[2] = {-1, -1};
  if (::pipe(req) != 0 || ::pipe(res) != 0) {
    if (req[0] >= 0) ::close(req[0]);
    if (req[1] >= 0) ::close(req[1]);
    throw std::runtime_error("cannot create worker pipes");
  }
  // Workers stay in the campaign's process group, so a dispatcher
  // signalling a runner's group reaches its workers too.
  const pid_t pid = util::spawn(
      [&] {
        ::close(req[1]);
        ::close(res[0]);
        worker_main(pristine, options_, req[0], res[1]);
      },
      /*new_group=*/false);
  ::close(req[0]);
  ::close(res[1]);
  if (pid < 0) {
    ::close(req[1]);
    ::close(res[0]);
    throw std::runtime_error("cannot spawn campaign worker");
  }
  *w = Worker{.pid = pid, .to_fd = req[1], .from_fd = res[0]};
}

bool IsolatedWorkers::run_attempt(Worker* w, std::size_t group,
                                  std::uint32_t attempt,
                                  fault::GroupRecord* rec) {
  // A worker that died while idle (startup OOM, external kill) fails
  // the write. That is indistinguishable from dying right after reading
  // the request, so it costs the group an attempt too, keeping every
  // failure path bounded by max_group_retries.
  if (!ipc::write_frame(w->to_fd, ipc::kTagGroup,
                        ipc::encode_group_request({group, attempt}))) {
    return false;
  }
  const Clock::time_point deadline = hang_grace_.count() != 0
                                         ? Clock::now() + hang_grace_
                                         : Clock::time_point::max();
  for (;;) {
    long long timeout_ms = -1;
    if (deadline != Clock::time_point::max()) {
      timeout_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       deadline - Clock::now())
                       .count();
      timeout_ms = std::clamp<long long>(timeout_ms, 0, INT_MAX);
    }
    pollfd p{w->from_fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(timeout_ms));
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) throw std::runtime_error("poll failed on a campaign worker");
    if (ready == 0) {
      // Hung: the cooperative timeout inside the worker never fired.
      ::kill(w->pid, SIGKILL);
      return false;
    }
    break;
  }
  ipc::Frame frame;
  if (ipc::read_frame(w->from_fd, &frame) && frame.tag == ipc::kTagRecord &&
      decode_record_payload(frame.payload, rec) && rec->group == group) {
    return true;
  }
  // EOF (crash, OOM, external kill) or a desynchronized stream: make
  // sure it is dead before the caller reaps it.
  ::kill(w->pid, SIGKILL);
  return false;
}

fault::GroupError IsolatedWorkers::reap(Worker* w) {
  if (w->to_fd >= 0) ::close(w->to_fd);
  ::close(w->from_fd);
  const util::ChildExit e = util::reap(w->pid).value_or(util::ChildExit{});
  *w = Worker{};
  return {.term_signal = e.term_signal,
          .exit_code = e.exit_code,
          .max_rss_kb = e.max_rss_kb,
          .cpu_ms = e.cpu_ms};
}

fault::GroupRecord IsolatedWorkers::simulate(fault::GroupSimulator& pristine,
                                             unsigned worker,
                                             std::size_t group) {
  Worker& w = workers_.at(worker);
  // Rusage of this group's attempts whose worker died: peak RSS across
  // them, summed CPU. Without it a crash-then-succeed group would report
  // only its surviving attempt, and the dead attempts' cost would vanish
  // from every report.
  AttemptCost dead;
  for (std::uint32_t attempt = 0;; ++attempt) {
    if (w.pid <= 0) spawn(pristine, &w);
    fault::GroupRecord rec;
    if (run_attempt(&w, group, attempt, &rec)) {
      if (attempt != 0) {
        dead.attempts = attempt + 1;
        const std::lock_guard<std::mutex> lock(retried_mutex_);
        retried_[group] = dead;
      }
      return rec;
    }
    fault::GroupError err = reap(&w);
    restarts_.fetch_add(1, std::memory_order_relaxed);
    dead.max_rss_kb = std::max(dead.max_rss_kb, err.max_rss_kb);
    dead.cpu_ms += err.cpu_ms;
    if (attempt >= options_.iso.max_group_retries) {
      // The quarantine post-mortem covers all attempts, matching the
      // "on all N attempts" wording of the CLI report.
      err.attempts = attempt + 1;
      err.max_rss_kb = dead.max_rss_kb;
      err.cpu_ms = dead.cpu_ms;
      rec = pristine.plan().unstarted_record(group);
      rec.quarantined = true;
      rec.error = err;
      return rec;
    }
  }
}

void IsolatedWorkers::charge_attempts(telemetry::GroupMetric* m) {
  const std::lock_guard<std::mutex> lock(retried_mutex_);
  const auto it = retried_.find(m->group);
  if (it == retried_.end()) return;
  m->attempts = it->second.attempts;
  m->max_rss_kb = std::max(m->max_rss_kb, it->second.max_rss_kb);
  m->cpu_ms += it->second.cpu_ms;
  retried_.erase(it);
}

}  // namespace sbst::campaign
