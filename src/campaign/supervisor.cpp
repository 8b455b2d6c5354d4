#include "campaign/supervisor.h"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include <memory>
#include <optional>
#include <unordered_map>

#include "campaign/ipc.h"
#include "campaign/journal.h"
#include "fault/good_trace.h"
#include "telemetry/metrics.h"
#include "util/parallel.h"
#include "util/proc.h"
#include "util/signals.h"

namespace sbst::campaign {

namespace {

using Clock = std::chrono::steady_clock;

/// A worker's whole life. Everything it uses was built before forking,
/// so children inherit it copy-on-write (notably the levelized
/// GroupSimulator — respawned workers fork from the supervisor's
/// never-used pristine copy, so every attempt starts from identical
/// state).
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

struct Worker {
  pid_t pid = -1;
  int to_fd = -1;    // supervisor -> worker requests
  int from_fd = -1;  // worker -> supervisor results
  bool busy = false;
  std::uint64_t group = 0;
  std::uint32_t attempt = 0;
  Clock::time_point started{};  // when the current request was dispatched
  Clock::time_point deadline = Clock::time_point::max();

  bool alive() const { return pid > 0; }
};

Worker spawn_worker(fault::GroupSimulator& sim,
                    const CampaignOptions& options) {
  int req[2] = {-1, -1};
  int res[2] = {-1, -1};
  if (::pipe(req) != 0 || ::pipe(res) != 0) {
    if (req[0] >= 0) ::close(req[0]);
    if (req[1] >= 0) ::close(req[1]);
    throw std::runtime_error("cannot create worker pipes");
  }
  // Workers stay in the supervisor's process group, so a dispatcher
  // signalling a runner's group reaches its workers too.
  const pid_t pid = util::spawn(
      [&] {
        ::close(req[1]);
        ::close(res[0]);
        worker_main(sim, options, req[0], res[1]);
      },
      /*new_group=*/false);
  ::close(req[0]);
  ::close(res[1]);
  if (pid < 0) {
    ::close(req[1]);
    ::close(res[0]);
    throw std::runtime_error("cannot spawn campaign worker");
  }
  return Worker{.pid = pid, .to_fd = req[1], .from_fd = res[0]};
}

/// Closes a worker's pipes and reaps it (blocking), leaving the slot
/// empty. Returns the structured post-mortem of its current attempt for
/// quarantine records.
fault::GroupError reap_worker(Worker* w) {
  if (w->to_fd >= 0) ::close(w->to_fd);
  ::close(w->from_fd);
  const util::ChildExit e = util::reap(w->pid).value_or(util::ChildExit{});
  w->pid = -1;
  w->to_fd = w->from_fd = -1;
  w->busy = false;
  return {.term_signal = e.term_signal,
          .exit_code = e.exit_code,
          .attempts = w->attempt + 1,
          .max_rss_kb = e.max_rss_kb,
          .cpu_ms = e.cpu_ms};
}

void shutdown_workers(std::vector<Worker>* workers) {
  for (Worker& w : *workers) {
    if (!w.alive()) continue;
    ::close(w.to_fd);  // EOF tells the worker to _exit(0)
    w.to_fd = -1;
  }
  for (Worker& w : *workers) {
    if (w.alive()) reap_worker(&w);
  }
}

}  // namespace

CampaignResult run_campaign_isolated(const nl::Netlist& netlist,
                                     const nl::FaultList& faults,
                                     const fault::EnvFactory& make_env,
                                     std::uint64_t fingerprint,
                                     const CampaignOptions& options) {
  CampaignResult out;
  const fault::GroupPlan plan(faults, options.sim);
  out.groups_total = plan.num_groups();
  out.shard_groups_total = shard_groups(out.groups_total, options.sim);
  // run_campaign validated shard_index < shard_count before dispatching.
  const bool sharded = options.sim.shard_count > 1;

  const std::atomic<bool>* cancel = options.sim.cancel;
  if (options.handle_signals) {
    util::install_drain_handlers();
    cancel = &util::drain_requested();
  }

  const JournalMeta meta{fingerprint, out.groups_total, faults.size()};
  JournalSession journal = open_journal_session(
      options.journal, meta, options.retry_timed_out, options.durability);
  out.journal_truncated = journal.truncated;
  out.journal_empty = journal.was_empty;
  out.journal_salvage = journal.stats;
  out.journal_compacted = journal.compacted;

  out.result = plan.make_result();
  out.result.groups_total = out.groups_total;
  out.result.groups_scheduled = out.shard_groups_total;
  std::size_t done = 0;

  std::optional<telemetry::CampaignTelemetry> tele;
  if (!options.telemetry.metrics_path.empty() ||
      !options.telemetry.status_path.empty()) {
    telemetry::TelemetryOptions topt = options.telemetry;
    topt.shard_index = options.sim.shard_index;
    topt.shard_count = options.sim.shard_count;
    tele.emplace(topt, "isolate", out.shard_groups_total);
  }

  // Folds a resolved group's record into the run aggregate, work
  // counters included — seeded ones too, so a resumed campaign reports
  // the same totals as an uninterrupted one. Fresh records carry their
  // counters across the worker pipe in the journal payload encoding.
  const auto fold = [&](const fault::GroupRecord& rec) {
    plan.apply(rec, &out.result);
    out.result.gates_evaluated += rec.gates_evaluated;
    out.result.sim_cycles += rec.sim_cycles;
    out.result.good_cycles = std::max(out.result.good_cycles, rec.cycles);
    if (rec.quarantined) {
      out.quarantined_groups.push_back({rec.group, rec.error});
    }
  };

  // A journaled record resolves its group without touching a worker;
  // everything else forms the dispatch queue, in group order. Under a
  // shard restriction, out-of-class groups are neither queued nor
  // seeded — the shard's result covers only its residue class.
  std::deque<ipc::GroupRequest> pending;
  for (std::size_t g = 0; g < out.groups_total; ++g) {
    if (sharded && g % options.sim.shard_count != options.sim.shard_index) {
      continue;
    }
    const auto it = journal.seeds.find(g);
    if (it == journal.seeds.end()) {
      pending.push_back({g, 0});
      continue;
    }
    fold(it->second);
    if (tele) tele->record(to_group_metric(it->second, /*seeded=*/true, 0.0));
    ++out.seeded_groups;
    ++done;
  }
  out.resumed = out.seeded_groups != 0;

  const Clock::time_point run_deadline =
      options.sim.time_budget_ms != 0
          ? Clock::now() + std::chrono::milliseconds(options.sim.time_budget_ms)
          : Clock::time_point::max();

  // The compiled program is built once, before any fork, so worker
  // processes inherit it copy-on-write like the good trace.
  std::shared_ptr<const nl::CompiledNetlist> compiled = nl::compile(netlist);

  // Event engine: record the good trace eagerly, before any fork, so
  // every worker process inherits the finished trace copy-on-write
  // instead of each re-recording it after fork. Skipped when the
  // journal already resolved every group (nothing left to simulate).
  const std::shared_ptr<fault::SharedTraceSource> trace_source =
      fault::make_trace_source(netlist, make_env, options.sim, compiled,
                               run_deadline, cancel);
  if (trace_source && !pending.empty()) trace_source->get();

  // Built once, before any fork: children inherit the levelized
  // simulator copy-on-write. The supervisor itself never simulates.
  fault::GroupSimulator sim(netlist, faults, plan, make_env, options.sim,
                            trace_source, compiled);
  sim.set_run_deadline(run_deadline);

  // A worker that crashes mid-write leaves a half-closed pipe; writing
  // the next request to it must yield EPIPE, not kill the supervisor.
  struct sigaction ignore_pipe {};
  ignore_pipe.sa_handler = SIG_IGN;
  struct sigaction saved_pipe {};
  ::sigaction(SIGPIPE, &ignore_pipe, &saved_pipe);

  unsigned num_workers = options.sim.threads != 0 ? options.sim.threads
                                                 : util::hardware_threads();
  if (num_workers > pending.size() && !pending.empty()) {
    num_workers = static_cast<unsigned>(pending.size());
  }

  std::vector<Worker> workers;
  std::size_t inflight = 0;

  // Grace period before a busy worker is declared hung and hard-killed.
  // The worker enforces group_timeout_ms cooperatively inside simulate();
  // the hard deadline only fires when the group wedges the worker so
  // badly the cooperative check never runs.
  const auto hang_grace =
      options.sim.group_timeout_ms != 0
          ? std::chrono::milliseconds(options.sim.group_timeout_ms * 2 + 1000)
          : std::chrono::milliseconds(0);

  // Rusage of worker attempts that died on a still-unresolved group,
  // keyed by group: peak RSS across attempts, summed CPU. Folded into
  // the group's telemetry metric (and, on quarantine, its GroupError)
  // when the group finally resolves — without the carry, a
  // crash-then-succeed group would report only its surviving attempt
  // and the dead attempts' cost would vanish from every report.
  struct AttemptCost {
    std::uint64_t max_rss_kb = 0;
    std::uint64_t cpu_ms = 0;
  };
  std::unordered_map<std::uint64_t, AttemptCost> attempt_cost;

  const auto resolve = [&](const fault::GroupRecord& rec, double duration_ms,
                           std::uint32_t attempts) {
    fold(rec);
    if (journal.writer) journal.writer->add(rec);
    if (tele) {
      telemetry::GroupMetric m =
          to_group_metric(rec, /*seeded=*/false, duration_ms);
      m.attempts = attempts;
      const auto it = attempt_cost.find(rec.group);
      if (it != attempt_cost.end()) {
        m.max_rss_kb = std::max(m.max_rss_kb, it->second.max_rss_kb);
        m.cpu_ms += it->second.cpu_ms;
      }
      tele->record(m);
    }
    attempt_cost.erase(rec.group);
    ++done;
    if (options.sim.progress) {
      // Shard-local total: ETA rates only this shard's fresh groups.
      options.sim.progress(
          fault::Progress{done, out.seeded_groups, out.shard_groups_total});
    }
  };

  // Retry-or-quarantine decision for a group whose worker died.
  const auto fail_group = [&](std::uint64_t group, std::uint32_t attempt,
                              fault::GroupError err, double duration_ms) {
    if (attempt >= options.iso.max_group_retries) {
      // The quarantine post-mortem covers *all* attempts — fold the
      // earlier dead attempts' rusage into the final one's, matching
      // the "on all N attempts" wording of the CLI report.
      const auto it = attempt_cost.find(group);
      if (it != attempt_cost.end()) {
        err.max_rss_kb = std::max(err.max_rss_kb, it->second.max_rss_kb);
        err.cpu_ms += it->second.cpu_ms;
        // Erase before resolve(): the record's GroupError now owns the
        // carried rusage, and resolve() would otherwise fold it twice.
        attempt_cost.erase(it);
      }
      fault::GroupRecord rec =
          plan.unstarted_record(static_cast<std::size_t>(group));
      rec.quarantined = true;
      rec.error = err;
      resolve(rec, duration_ms, err.attempts);
    } else {
      AttemptCost& acc = attempt_cost[group];
      acc.max_rss_kb = std::max(acc.max_rss_kb, err.max_rss_kb);
      acc.cpu_ms += err.cpu_ms;
      // Retry at the front so a transient failure is re-attempted while
      // the campaign is still warm, with the attempt count advanced.
      pending.push_front({group, attempt + 1});
    }
  };

  try {
    if (!pending.empty()) {
      workers.reserve(num_workers);
      for (unsigned i = 0; i < num_workers; ++i) {
        workers.push_back(spawn_worker(sim, options));
      }
    }

    bool draining = false;
    while (true) {
      if (!draining && cancel != nullptr &&
          cancel->load(std::memory_order_relaxed)) {
        draining = true;  // in-flight groups finish; nothing new starts
      }

      if (!draining) {
        for (Worker& w : workers) {
          if (pending.empty()) break;
          if (!w.alive() || w.busy) continue;
          const ipc::GroupRequest req = pending.front();
          pending.pop_front();
          w.group = req.group;
          w.attempt = req.attempt;
          if (!ipc::write_frame(w.to_fd, ipc::kTagGroup,
                                ipc::encode_group_request(req))) {
            // The worker died while idle (startup OOM, external kill).
            // Indistinguishable from dying right after reading the
            // request, so it costs the group an attempt — keeping every
            // failure path bounded by max_group_retries.
            const fault::GroupError err = reap_worker(&w);
            ++out.worker_restarts;
            fail_group(req.group, req.attempt, err, 0.0);
            w = spawn_worker(sim, options);
            continue;
          }
          w.busy = true;
          w.started = Clock::now();
          w.deadline = hang_grace.count() != 0 ? w.started + hang_grace
                                               : Clock::time_point::max();
          ++inflight;
        }
      }

      if (inflight == 0 && (draining || pending.empty())) break;

      std::vector<pollfd> fds;
      std::vector<std::size_t> fd_worker;
      for (std::size_t i = 0; i < workers.size(); ++i) {
        if (!workers[i].alive() || !workers[i].busy) continue;
        fds.push_back({workers[i].from_fd, POLLIN, 0});
        fd_worker.push_back(i);
      }

      // Wake at least every 200 ms to notice drain requests and hang
      // deadlines even when no worker produces events.
      int timeout_ms = 200;
      const Clock::time_point now = Clock::now();
      for (std::size_t i : fd_worker) {
        const Worker& w = workers[i];
        if (w.deadline == Clock::time_point::max()) continue;
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        w.deadline - now)
                        .count();
        if (left < 0) left = 0;
        if (left < timeout_ms) timeout_ms = static_cast<int>(left);
      }
      if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms) < 0 &&
          errno != EINTR) {
        throw std::runtime_error("poll failed in campaign supervisor");
      }

      const Clock::time_point after = Clock::now();
      for (std::size_t k = 0; k < fds.size(); ++k) {
        Worker& w = workers[fd_worker[k]];
        if (!w.alive() || !w.busy) continue;  // handled earlier this pass
        const bool readable = (fds[k].revents & (POLLIN | POLLHUP)) != 0;
        if (!readable) {
          if (after >= w.deadline) {
            // Hung: the cooperative timeout inside the worker never
            // fired. SIGKILL and let the EOF below classify it.
            ::kill(w.pid, SIGKILL);
            w.deadline = Clock::time_point::max();
          }
          continue;
        }
        ipc::Frame frame;
        fault::GroupRecord rec;
        const bool ok = ipc::read_frame(w.from_fd, &frame) &&
                        frame.tag == ipc::kTagRecord &&
                        decode_record_payload(frame.payload, &rec) &&
                        rec.group == w.group;
        const double attempt_ms =
            std::chrono::duration<double, std::milli>(after - w.started)
                .count();
        if (ok) {
          w.busy = false;
          --inflight;
          resolve(rec, attempt_ms, w.attempt + 1);
          continue;
        }
        // EOF (crash/OOM/hard kill) or a desynchronized stream: make
        // sure it is dead, reap it, charge the attempt, respawn.
        ::kill(w.pid, SIGKILL);
        const fault::GroupError err = reap_worker(&w);  // keeps w.group
        --inflight;
        ++out.worker_restarts;
        fail_group(w.group, w.attempt, err, attempt_ms);
        if (!draining) w = spawn_worker(sim, options);
      }
    }

    out.interrupted = draining;
    shutdown_workers(&workers);
  } catch (...) {
    shutdown_workers(&workers);
    ::sigaction(SIGPIPE, &saved_pipe, nullptr);
    throw;
  }
  ::sigaction(SIGPIPE, &saved_pipe, nullptr);

  if (trace_source) {
    out.result.trace_bytes = trace_source->trace_bytes();
    out.result.trace_fallback = trace_source->fell_back();
  }
  out.result.cancelled = out.interrupted;
  out.result.groups_done = done;
  out.groups_done = done;
  if (tele) tele->finish(out.interrupted);
  finish_campaign_result(faults, options, &out);
  return out;
}

}  // namespace sbst::campaign
