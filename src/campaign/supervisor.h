// Process-isolated group execution (--isolate): each worker thread of
// run_fault_sim owns one forked, rlimit-sandboxed worker process and
// hands it one 63-fault group at a time.
//
// The in-process threaded engine shares one address space, so a single
// pathological fault group — a simulation bug that segfaults, an
// environment that leaks until the OOM killer fires, an infinite loop —
// takes the whole campaign (and its journal writer) down with it.
// Isolation contains that blast radius to one worker process, and only
// replaces how a group is executed: run_fault_sim's parallel_for stays
// the one group scheduler (shard schedule, journal seeding, deadline
// expiry, record folding, progress), and IsolatedWorkers is installed as
// its FaultSimOptions::simulate_group hook.
//
//   * a worker is forked from its worker thread's never-used GroupSimulator
//     after the good trace was fetched, so it inherits the compiled
//     netlist and the trace copy-on-write instead of rebuilding them;
//   * workers run under RLIMIT_AS (IsolateOptions::worker_mem_mb) and,
//     when the campaign has a time budget, a coarse RLIMIT_CPU backstop;
//   * groups travel over the pipe protocol in ipc.h; results come back
//     in the journal's own payload encoding;
//   * a worker that crashes, OOMs, or blows its hang deadline is reaped
//     (with rusage) and respawned; its group is retried on the fresh
//     worker up to max_group_retries times and then quarantined — a
//     structured GroupError verdict instead of a dead campaign.
//
// Results are bit-identical to the in-process mode for every
// non-quarantined group: both modes run the same GroupSimulator under
// the same scheduler.
#pragma once

#include <signal.h>
#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "campaign/campaign.h"
#include "fault/faultsim.h"
#include "telemetry/metrics.h"

namespace sbst::campaign {

/// The --isolate executor behind FaultSimOptions::simulate_group.
/// `options` must outlive it.
class IsolatedWorkers {
 public:
  /// Ignores SIGPIPE for its lifetime: a worker that dies leaves a
  /// half-closed pipe, and writing to it must fail, not kill us.
  explicit IsolatedWorkers(const CampaignOptions& options);
  /// Closes every request pipe and reaps every worker.
  ~IsolatedWorkers();
  IsolatedWorkers(const IsolatedWorkers&) = delete;
  IsolatedWorkers& operator=(const IsolatedWorkers&) = delete;

  /// Simulates `group` in worker thread `worker`'s process, forking it
  /// from `pristine` when it has none. Blocks until a record arrives or
  /// the worker dies (crash, OOM, or a SIGKILL at the hang deadline); a
  /// dead worker is reaped and respawned and the group retried, and
  /// after the last failed retry the quarantined record is returned.
  fault::GroupRecord simulate(fault::GroupSimulator& pristine,
                              unsigned worker, std::size_t group);

  /// Charges a simulated group's metric with the attempts it consumed
  /// and the rusage (peak RSS, summed CPU) of its dead attempts. A
  /// quarantined record carries both in its GroupError instead.
  void charge_attempts(telemetry::GroupMetric* m);

  /// Worker processes that died and were respawned.
  std::size_t restarts() const {
    return restarts_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    pid_t pid = -1;
    int to_fd = -1;    // requests to the worker
    int from_fd = -1;  // records from the worker
  };
  /// Extra attempts of a group that succeeded on a retry.
  struct AttemptCost {
    std::uint32_t attempts = 1;
    std::uint64_t max_rss_kb = 0;
    std::uint64_t cpu_ms = 0;
  };

  void spawn(fault::GroupSimulator& pristine, Worker* w);
  bool run_attempt(Worker* w, std::size_t group, std::uint32_t attempt,
                   fault::GroupRecord* rec);
  static fault::GroupError reap(Worker* w);

  const CampaignOptions& options_;
  /// Grace before a busy worker counts as hung and is SIGKILLed
  /// (0 = never).
  std::chrono::milliseconds hang_grace_;
  std::vector<Worker> workers_;  // one slot per worker thread
  /// Held from pipe() until the parent closed the child's pipe ends, so
  /// no other worker is forked holding them (EOF must mean death).
  std::mutex spawn_mutex_;
  std::mutex retried_mutex_;
  std::unordered_map<std::uint64_t, AttemptCost> retried_;
  std::atomic<std::size_t> restarts_{0};
  struct sigaction saved_pipe_ {};
};

}  // namespace sbst::campaign
