#include "campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <optional>
#include <utility>

#include "campaign/journal.h"
#include "campaign/supervisor.h"
#include "util/signals.h"

namespace sbst::campaign {

std::uint64_t fingerprint_init() { return 0xcbf29ce484222325ull; }

std::uint64_t fingerprint_bytes(std::uint64_t h, const void* data,
                                std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fingerprint_u64(std::uint64_t h, std::uint64_t v) {
  unsigned char buf[8];
  std::memcpy(buf, &v, sizeof(buf));
  return fingerprint_bytes(h, buf, sizeof(buf));
}

std::size_t shard_groups(std::size_t total_groups,
                         const fault::FaultSimOptions& sim) {
  if (sim.shard_count <= 1) return total_groups;
  if (total_groups <= sim.shard_index) return 0;
  return (total_groups - sim.shard_index + sim.shard_count - 1) /
         sim.shard_count;
}

telemetry::GroupMetric to_group_metric(const fault::GroupRecord& rec,
                                       bool seeded, double duration_ms) {
  telemetry::GroupMetric m;
  m.group = rec.group;
  m.faults = rec.count;
  const std::uint64_t live =
      rec.count >= 64 ? ~0ull : ((1ull << rec.count) - 1);
  m.detected =
      static_cast<std::uint32_t>(std::popcount(rec.detected_mask & live));
  switch (rec.engine_used) {
    case fault::GroupEngine::kEvent: m.engine = "event"; break;
    case fault::GroupEngine::kSweep: m.engine = "sweep"; break;
    case fault::GroupEngine::kNone: m.engine = "none"; break;
  }
  m.seeded = seeded;
  m.timed_out = rec.timed_out;
  m.quarantined = rec.quarantined;
  m.cycles = rec.cycles;
  m.gates_evaluated = rec.gates_evaluated;
  m.sim_cycles = rec.sim_cycles;
  m.evals_and = rec.evals_by_kind[0];
  m.evals_or = rec.evals_by_kind[1];
  m.evals_xor = rec.evals_by_kind[2];
  m.evals_mux = rec.evals_by_kind[3];
  m.duration_ms = duration_ms;
  if (!seeded && rec.gates_evaluated != 0) {
    m.eval_ns_per_gate = duration_ms * 1e6 /
                         static_cast<double>(rec.gates_evaluated);
  }
  if (rec.quarantined) {
    m.attempts = rec.error.attempts;
    m.max_rss_kb = rec.error.max_rss_kb;
    m.cpu_ms = rec.error.cpu_ms;
  }
  return m;
}

CampaignResult run_campaign(const nl::Netlist& netlist,
                            const nl::FaultList& faults,
                            const fault::EnvFactory& make_env,
                            std::uint64_t fingerprint,
                            const CampaignOptions& options) {
  if (options.sim.shard_count > 1 &&
      options.sim.shard_index >= options.sim.shard_count) {
    throw std::runtime_error("shard index " +
                             std::to_string(options.sim.shard_index) +
                             " out of range for " +
                             std::to_string(options.sim.shard_count) +
                             " shards");
  }

  CampaignResult out;
  // A temporary: run_fault_sim builds the plan it runs on.
  out.groups_total = fault::GroupPlan(faults, options.sim).num_groups();
  out.shard_groups_total = shard_groups(out.groups_total, options.sim);
  const bool sharded = options.sim.shard_count > 1;

  fault::FaultSimOptions sim = options.sim;
  if (options.handle_signals) {
    util::install_drain_handlers();
    sim.cancel = &util::drain_requested();
  }

  // Journal setup: load what previous runs resolved, then append what
  // this run resolves. Both the seed map and the writer outlive the
  // engine call; seed lookups run concurrently from worker threads on
  // the by-then-immutable map, appends are serialized by the engine.
  const JournalMeta meta{fingerprint, out.groups_total, faults.size()};
  JournalSession journal = open_journal_session(
      options.journal, meta, options.retry_timed_out, options.durability);
  out.journal_truncated = journal.truncated;
  out.journal_empty = journal.was_empty;
  out.journal_salvage = journal.stats;
  out.journal_compacted = journal.compacted;
  for (const auto& [group, rec] : journal.seeds) {
    // A merged (or foreign-shard) journal may seed groups outside this
    // shard's residue class; they are neither scheduled nor reported.
    if (sharded && group % options.sim.shard_count != options.sim.shard_index) {
      continue;
    }
    if (rec.quarantined) out.quarantined_groups.push_back({group, rec.error});
  }
  std::atomic<std::size_t> seeded{0};
  if (journal.writer) {
    sim.seed_group = [&journal, &seeded](std::uint64_t group,
                                         fault::GroupRecord* rec) {
      const auto it = journal.seeds.find(group);
      if (it == journal.seeds.end()) return false;
      *rec = it->second;
      seeded.fetch_add(1, std::memory_order_relaxed);
      return true;
    };
  }
  sim.on_group = [&journal, &out](const fault::GroupRecord& rec) {
    if (journal.writer) journal.writer->add(rec);
    if (rec.quarantined) {
      out.quarantined_groups.push_back({rec.group, rec.error});
    }
  };

  // --isolate changes only how a group is executed: the engine's
  // parallel_for stays the scheduler, and each worker thread hands its
  // groups to its own forked worker. Every worker is reaped when `workers` goes out of
  // scope, whether the engine returns or throws.
  std::optional<IsolatedWorkers> workers;
  if (options.isolate) {
    workers.emplace(options);
    sim.simulate_group = [&workers](fault::GroupSimulator& pristine,
                                    unsigned worker, std::size_t group) {
      return workers->simulate(pristine, worker, group);
    };
  }

  // Telemetry rides the engine's per-group hook — one metric per
  // resolved group, seeded groups included (at ~zero duration), so the
  // stream always covers every group the run touched.
  std::optional<telemetry::CampaignTelemetry> tele;
  if (!options.telemetry.metrics_path.empty() ||
      !options.telemetry.status_path.empty()) {
    telemetry::TelemetryOptions topt = options.telemetry;
    topt.shard_index = options.sim.shard_index;
    topt.shard_count = options.sim.shard_count;
    // Shard-local total: the heartbeat's groups_total/ETA describe what
    // this runner is responsible for, not the whole campaign.
    tele.emplace(topt, options.isolate ? "isolate" : "threads",
                 out.shard_groups_total);
    sim.on_group_metric = [&tele, &workers](const fault::GroupRecord& rec,
                                            bool seeded, double duration_ms) {
      telemetry::GroupMetric m = to_group_metric(rec, seeded, duration_ms);
      if (workers && !seeded) workers->charge_attempts(&m);
      tele->record(m);
    };
  }

  out.result = fault::run_fault_sim(netlist, faults, make_env, sim);
  out.groups_done = out.result.groups_done;
  out.seeded_groups = seeded.load(std::memory_order_relaxed);
  out.resumed = out.seeded_groups != 0;
  out.interrupted = out.result.cancelled;
  if (workers) out.worker_restarts = workers->restarts();
  if (tele) tele->finish(out.interrupted);

  out.signal = options.handle_signals ? util::drain_signal() : 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (out.result.timed_out[i]) ++out.faults_timed_out;
    if (out.result.quarantined[i]) ++out.faults_quarantined;
  }
  std::sort(out.quarantined_groups.begin(), out.quarantined_groups.end(),
            [](const QuarantinedGroup& a, const QuarantinedGroup& b) {
              return a.group < b.group;
            });
  return out;
}

}  // namespace sbst::campaign
