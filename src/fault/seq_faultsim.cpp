#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "fault/event_kernel.h"
#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "fault/injection.h"
#include "netlist/compiled.h"
#include "util/parallel.h"

namespace sbst::fault {

namespace {

using sim::Word;
using detail::force;
using detail::Injection;
using detail::InjectionTable;

/// Fault-aware evaluation sweep. Identical to LogicSim::eval() except that
/// flagged gates apply input-branch and output-stem forcing.
void eval_with_injections(sim::LogicSim& s, const InjectionTable& inj) {
  const nl::Netlist& netlist = s.netlist();
  const auto& order = s.levelization().comb_order;
  Word* const v = s.values().data();
  for (nl::GateId g : order) {
    const nl::Gate& gate = netlist.gate(g);
    Word a = v[gate.in[0]];
    Word b = gate.in[1] == nl::kNoGate ? 0 : v[gate.in[1]];
    Word c = gate.in[2] == nl::kNoGate ? 0 : v[gate.in[2]];
    if (const std::uint32_t slot = inj.slot(g); slot != 0) [[unlikely]] {
      const detail::GateForce& f = inj.force_record(slot);
      a = (a | f.set[1]) & ~f.clr[1];
      b = (b | f.set[2]) & ~f.clr[2];
      c = (c | f.set[3]) & ~f.clr[3];
      const Word w = sim::eval_gate(gate.kind, a, b, c);
      v[g] = (w | f.set[0]) & ~f.clr[0];
    } else {
      v[g] = sim::eval_gate(gate.kind, a, b, c);
    }
  }
}

/// Per-group fixup sites for the compiled sweep: the slotted (injected)
/// combinational gates, grouped by level. Rebuilt per group.
struct CompiledFixups {
  std::vector<std::vector<nl::GateId>> by_level;  // sized max_level + 1
  std::vector<std::uint32_t> levels;              // touched levels, sorted

  void rebuild(const nl::CompiledNetlist& cn, const nl::Netlist& netlist,
               const InjectionTable& inj) {
    for (std::uint32_t lvl : levels) by_level[lvl].clear();
    levels.clear();
    if (by_level.size() < static_cast<std::size_t>(cn.lv.max_level) + 1) {
      by_level.resize(static_cast<std::size_t>(cn.lv.max_level) + 1);
    }
    for (nl::GateId g : inj.slotted_gates()) {
      if (netlist.gate(g).kind == nl::GateKind::kDff) continue;
      const std::uint32_t lvl = cn.lv.level[g];
      if (by_level[lvl].empty()) levels.push_back(lvl);
      by_level[lvl].push_back(g);
    }
    std::sort(levels.begin(), levels.end());
  }
};

/// Compiled fault-aware sweep: branch-free per-run evaluation,
/// with the handful of injected gates re-evaluated interpretively at the
/// end of their level (their consumers sit at strictly higher levels, so
/// the fixup lands before anything reads the forced word). Operands are
/// read through the fold roots because copies materialize only after the
/// sweep. Bit-identical to eval_with_injections on every gate.
void eval_compiled_with_injections(sim::LogicSim& s,
                                   const nl::CompiledNetlist& cn,
                                   const InjectionTable& inj,
                                   const CompiledFixups& fixups) {
  const nl::Netlist& netlist = s.netlist();
  Word* const v = s.values().data();
  if (fixups.levels.empty()) {
    for (const nl::CompiledRun& r : cn.runs) nl::eval_run(cn, r, v);
  } else {
    auto rd = [&](nl::GateId d) -> Word {
      return d < cn.num_gates ? v[cn.fold_root[d]] : 0;
    };
    std::size_t fx = 0;
    const std::uint32_t num_levels = cn.lv.max_level + 1;
    for (std::uint32_t lvl = 0; lvl < num_levels; ++lvl) {
      for (std::uint32_t r = cn.level_run_begin[lvl];
           r < cn.level_run_begin[lvl + 1]; ++r) {
        nl::eval_run(cn, cn.runs[r], v);
      }
      if (fx < fixups.levels.size() && fixups.levels[fx] == lvl) {
        for (nl::GateId g : fixups.by_level[lvl]) {
          const nl::Gate& gate = netlist.gate(g);
          const detail::GateForce& f = inj.force_record(inj.slot(g));
          Word a = (rd(gate.in[0]) | f.set[1]) & ~f.clr[1];
          Word b = (rd(gate.in[1]) | f.set[2]) & ~f.clr[2];
          Word c = (rd(gate.in[2]) | f.set[3]) & ~f.clr[3];
          const Word w = sim::eval_gate(gate.kind, a, b, c);
          v[g] = (w | f.set[0]) & ~f.clr[0];
        }
        ++fx;
      }
    }
  }
  nl::apply_copies(cn, v);
}

/// Applies stuck-at forcing on source gates (PIs, constants) and DFF
/// outputs; must run after inputs are driven / DFFs updated.
void apply_state_injections(sim::LogicSim& s, const InjectionTable& inj) {
  Word* const v = s.values().data();
  for (const Injection& i : inj.sources()) {
    v[i.gate] = force(v[i.gate], i.mask, i.stuck);
  }
  for (const Injection& i : inj.dff_q()) {
    v[i.gate] = force(v[i.gate], i.mask, i.stuck);
  }
}

/// Clocks DFFs with D-pin fault forcing, then re-applies Q-output faults.
/// D-pin injections are folded into the per-gate slot table, so forcing
/// is an O(1) lookup per DFF instead of a scan of the group's fault list.
void step_clock_with_injections(sim::LogicSim& s, const InjectionTable& inj) {
  const nl::Netlist& netlist = s.netlist();
  const auto& dffs = s.levelization().dffs;
  Word* const v = s.values().data();
  thread_local std::vector<Word> next;
  next.resize(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const nl::GateId g = dffs[i];
    Word nx = v[netlist.gate(g).in[0]];
    if (const std::uint32_t slot = inj.slot(g); slot != 0) [[unlikely]] {
      const detail::GateForce& f = inj.force_record(slot);
      nx = (nx | f.set[1]) & ~f.clr[1];
    }
    next[i] = nx;
  }
  for (std::size_t i = 0; i < dffs.size(); ++i) v[dffs[i]] = next[i];
  for (const Injection& f : inj.dff_q()) {
    v[f.gate] = force(v[f.gate], f.mask, f.stuck);
  }
}

/// Detection word: bits where a machine's PO differs from the good
/// machine (bit 63). Walks the flat precomputed PO-bit list instead of
/// the nested Port structure — this runs once per simulated cycle.
inline Word po_diff(const sim::LogicSim& s) {
  Word diff = 0;
  const Word* const v = s.values().data();
  for (nl::GateId b : s.po_bits()) {
    const Word w = v[b];
    // Arithmetic right shift replicates bit 63 across the word.
    const Word good = static_cast<Word>(static_cast<std::int64_t>(w) >> 63);
    diff |= w ^ good;
  }
  return diff & ~(Word{1} << 63);
}

std::vector<std::size_t> choose_sample(std::size_t universe, std::size_t n,
                                       std::uint64_t seed) {
  // Partial Fisher-Yates with a splitmix64 generator (deterministic,
  // seedable), over a *virtual* identity permutation: only displaced
  // entries are materialized, so cost is O(sample) in time and space
  // rather than O(universe). Consumes the generator exactly like the
  // dense formulation, so the chosen set is bit-identical to it (and to
  // every previously journaled campaign).
  std::uint64_t state = seed;
  auto next_u64 = [&state]() {
    state += 0x9E3779B97f4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  std::unordered_map<std::size_t, std::size_t> moved;
  auto value = [&moved](std::size_t p) {
    const auto it = moved.find(p);
    return it == moved.end() ? p : it->second;
  };
  const std::size_t take = std::min(n, universe);
  std::vector<std::size_t> idx;
  idx.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    if (i + 1 < universe) {
      const std::size_t j = i + next_u64() % (universe - i);
      const std::size_t vj = value(j);
      const std::size_t vi = value(i);
      moved[j] = vi;
      idx.push_back(vj);
    } else {
      // Last position of the universe: the dense loop stopped swapping
      // here (and consumed no random draw for it).
      idx.push_back(value(i));
    }
  }
  std::sort(idx.begin(), idx.end());
  return idx;
}

constexpr int kFaultsPerGroup = 63;
static_assert(kFaultsPerGroup < 64,
              "bit 63 of the simulation word is reserved for the good "
              "machine");

}  // namespace

// --- GroupPlan --------------------------------------------------------------

GroupPlan::GroupPlan(const nl::FaultList& faults,
                     const FaultSimOptions& options)
    : num_faults_(faults.size()) {
  if (options.sample != 0 && options.sample < faults.size()) {
    active_ =
        choose_sample(faults.size(), options.sample, options.sample_seed);
  } else {
    active_.resize(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) active_[i] = i;
  }
}

std::size_t GroupPlan::num_groups() const {
  return (active_.size() + kFaultsPerGroup - 1) / kFaultsPerGroup;
}

std::uint32_t GroupPlan::group_count(std::size_t group) const {
  const std::size_t base = group * kFaultsPerGroup;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(kFaultsPerGroup, active_.size() - base));
}

FaultSimResult GroupPlan::make_result() const {
  FaultSimResult res;
  res.detected.assign(num_faults_, 0);
  res.simulated.assign(num_faults_, 0);
  res.detect_cycle.assign(num_faults_, -1);
  res.timed_out.assign(num_faults_, 0);
  res.quarantined.assign(num_faults_, 0);
  res.groups_total = num_groups();
  res.groups_scheduled = res.groups_total;
  return res;
}

void GroupPlan::apply(const GroupRecord& rec, FaultSimResult* res) const {
  const std::size_t base =
      static_cast<std::size_t>(rec.group) * kFaultsPerGroup;
  for (std::uint32_t i = 0; i < rec.count; ++i) {
    const std::size_t fi = active_[base + i];
    res->simulated[fi] = 1;
    if ((rec.detected_mask >> i) & 1) {
      res->detected[fi] = 1;
      res->detect_cycle[fi] = rec.detect_cycle[i];
    } else if (rec.quarantined) {
      res->quarantined[fi] = 1;
    } else if (rec.timed_out) {
      res->timed_out[fi] = 1;
    }
  }
}

GroupRecord GroupPlan::unstarted_record(std::size_t group) const {
  GroupRecord rec;
  rec.group = group;
  rec.count = group_count(group);
  rec.detect_cycle.assign(rec.count, -1);
  return rec;
}

// --- GroupSimulator ---------------------------------------------------------

struct GroupSimulator::Impl {
  const nl::Netlist& netlist;
  const nl::FaultList& faults;
  const GroupPlan& plan;
  EnvFactory make_env;
  std::uint64_t max_cycles;
  std::uint64_t group_timeout_ms;
  std::chrono::steady_clock::time_point run_deadline =
      std::chrono::steady_clock::time_point::max();
  // Campaign-shared compiled program (compiled privately when the caller
  // did not pass one). Initialized before `sim` so the simulator can
  // reuse it.
  std::shared_ptr<const nl::CompiledNetlist> compiled;
  sim::LogicSim sim;
  InjectionTable inj;
  // Per-cycle static sweep tallies: how many comb gates of each base-op
  // class one full sweep evaluates (folded BUFs class as the AND lane
  // they forward through). A pure function of the netlist, so sweep
  // evals_by_kind does not depend on which sweep evaluator ran.
  std::array<std::uint64_t, nl::kNumCompiledOps> sweep_kinds_per_cycle = {
      0, 0, 0, 0};
  CompiledFixups fixups;
  // Event-engine state: the campaign-shared trace source (null = sweep),
  // the differential kernel built on first successful trace fetch, and
  // a latch that pins the sweep fallback once recording has failed.
  std::shared_ptr<SharedTraceSource> trace_source;
  std::optional<EventKernel> event;
  std::shared_ptr<const GoodTrace> trace;
  bool event_unavailable = false;
  KernelStats sweep_stats;
  std::uint64_t eval_ns = 0;

  Impl(const nl::Netlist& n, const nl::FaultList& f, const GroupPlan& p,
       EnvFactory env, const FaultSimOptions& options,
       std::shared_ptr<SharedTraceSource> trace_src,
       std::shared_ptr<const nl::CompiledNetlist> comp)
      : netlist(n),
        faults(f),
        plan(p),
        make_env(std::move(env)),
        max_cycles(options.max_cycles),
        group_timeout_ms(options.group_timeout_ms),
        compiled(comp ? std::move(comp) : nl::compile(n)),
        sim(n, compiled),
        inj(n.size()),
        trace_source(std::move(trace_src)) {
    for (nl::GateId g : compiled->lv.comb_order) {
      ++sweep_kinds_per_cycle[static_cast<std::size_t>(
          nl::op_class(n.gate(g).kind))];
    }
  }

  /// True when every non-DFF injection site of the current group has a
  /// compiled node (faults never sit on BUF gates — fault.h strips them
  /// from the universe — but hand-built fault lists can, and those
  /// groups run the interpreted sweep instead).
  bool group_compilable() const {
    for (nl::GateId g : inj.slotted_gates()) {
      if (netlist.gate(g).kind != nl::GateKind::kDff &&
          compiled->node_of_gate[g] == nl::kNoNode) {
        return false;
      }
    }
    return true;
  }
};

GroupSimulator::GroupSimulator(
    const nl::Netlist& netlist, const nl::FaultList& faults,
    const GroupPlan& plan, EnvFactory make_env,
    const FaultSimOptions& options,
    std::shared_ptr<SharedTraceSource> trace_source,
    std::shared_ptr<const nl::CompiledNetlist> compiled)
    : impl_(std::make_unique<Impl>(netlist, faults, plan, std::move(make_env),
                                   options, std::move(trace_source),
                                   std::move(compiled))) {}

GroupSimulator::~GroupSimulator() = default;

void GroupSimulator::set_run_deadline(
    std::chrono::steady_clock::time_point deadline) {
  impl_->run_deadline = deadline;
}

KernelStats GroupSimulator::stats() const {
  KernelStats s = impl_->sweep_stats;
  if (impl_->event) {
    const KernelStats& k = impl_->event->stats();
    s.gates_evaluated += k.gates_evaluated;
    s.cycles += k.cycles;
    for (std::size_t i = 0; i < s.evals_by_kind.size(); ++i) {
      s.evals_by_kind[i] += k.evals_by_kind[i];
    }
  }
  s.eval_ns = impl_->eval_ns;
  return s;
}

GroupRecord GroupSimulator::simulate(std::size_t group) {
  using Clock = std::chrono::steady_clock;
  Impl& im = *impl_;

  // Event engine: fetch the campaign-shared good trace (the first fetch
  // records it; recording honours the run deadline and cancel flag). A
  // failed recording latches the sweep fallback for this worker. The
  // fetch sits outside the group clock: recording, or waiting for
  // another worker to finish it, is campaign work, not this group's.
  if (im.trace_source && !im.trace && !im.event_unavailable) {
    im.trace = im.trace_source->get();
    if (!im.trace) im.event_unavailable = true;
  }

  const Clock::time_point started = Clock::now();
  const std::vector<std::size_t>& active = im.plan.active();
  const std::size_t base = group * kFaultsPerGroup;
  const int count = static_cast<int>(im.plan.group_count(group));

  GroupRecord rec;
  rec.group = group;
  rec.count = static_cast<std::uint32_t>(count);
  rec.detect_cycle.assign(static_cast<std::size_t>(count), -1);

  im.inj.clear();
  for (int i = 0; i < count; ++i) {
    im.inj.add(im.netlist, im.faults.faults[active[base + i]], i);
  }
  const Word all_mask = (Word{1} << count) - 1;  // count <= 63

  const auto finish = [&](GroupRecord& r) -> GroupRecord {
    im.eval_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             started)
            .count());
    return std::move(r);
  };

  const bool has_clock_bounds =
      im.group_timeout_ms != 0 ||
      im.run_deadline != Clock::time_point::max();
  const Clock::time_point group_deadline =
      im.group_timeout_ms != 0
          ? Clock::now() + std::chrono::milliseconds(im.group_timeout_ms)
          : Clock::time_point::max();

  if (im.trace) {
    KernelDeadlines deadlines;
    deadlines.active = has_clock_bounds;
    deadlines.group_deadline = group_deadline;
    deadlines.run_deadline = im.run_deadline;
    if (!im.event) {
      im.event.emplace(im.netlist, im.sim.levelization(), im.sim.po_bits(),
                       im.trace);
    }
    const KernelStats before = im.event->stats();
    im.event->simulate(im.inj, count, deadlines, &rec);
    const KernelStats& after = im.event->stats();
    rec.gates_evaluated = after.gates_evaluated - before.gates_evaluated;
    rec.sim_cycles = after.cycles - before.cycles;
    for (std::size_t i = 0; i < rec.evals_by_kind.size(); ++i) {
      rec.evals_by_kind[i] = after.evals_by_kind[i] - before.evals_by_kind[i];
    }
    rec.engine_used = GroupEngine::kEvent;
    return finish(rec);
  }

  // Sweep: the compiled program, unless an injection sits on a gate the
  // compiler folded away (then the interpreted sweep runs the group).
  const bool use_compiled = im.group_compilable();
  if (use_compiled) im.fixups.rebuild(*im.compiled, im.netlist, im.inj);
  im.sim.reset();
  apply_state_injections(im.sim, im.inj);
  std::unique_ptr<Environment> env = im.make_env();

  Word detected = 0;
  std::uint64_t cycle = 0;
  std::uint64_t evaluated_cycles = 0;
  for (; cycle < im.max_cycles; ++cycle) {
    // Amortized watchdog: one clock read every 1024 cycles keeps the
    // bound within ~ms granularity without slowing the hot loop.
    if (has_clock_bounds && (cycle & 1023u) == 1023u) [[unlikely]] {
      const Clock::time_point now = Clock::now();
      if (now >= group_deadline || now >= im.run_deadline) {
        rec.timed_out = true;
        break;
      }
    }
    env->drive(im.sim, cycle);
    apply_state_injections(im.sim, im.inj);
    if (use_compiled) {
      eval_compiled_with_injections(im.sim, *im.compiled, im.inj, im.fixups);
    } else {
      eval_with_injections(im.sim, im.inj);
    }
    ++evaluated_cycles;

    const Word diff = po_diff(im.sim) & all_mask & ~detected;
    if (diff != 0) {
      Word d = diff;
      while (d != 0) {
        const int bit = std::countr_zero(d);
        d &= d - 1;
        rec.detect_cycle[static_cast<std::size_t>(bit)] =
            static_cast<std::int64_t>(cycle);
      }
      detected |= diff;
      if (detected == all_mask) break;  // fault dropping: group done
    }

    const bool keep_going = env->observe(im.sim, cycle);
    step_clock_with_injections(im.sim, im.inj);
    if (!keep_going) {
      ++cycle;
      break;
    }
  }
  rec.detected_mask = detected;
  rec.cycles = cycle;
  // Sweep work counters are normalized to the interpreted sweep (every
  // comb gate once per cycle, folded BUFs included), so they are a pure
  // function of (netlist, evaluated_cycles) whichever evaluator ran.
  rec.gates_evaluated =
      evaluated_cycles * im.sim.levelization().comb_order.size();
  rec.sim_cycles = evaluated_cycles;
  for (std::size_t i = 0; i < rec.evals_by_kind.size(); ++i) {
    rec.evals_by_kind[i] = evaluated_cycles * im.sweep_kinds_per_cycle[i];
  }
  rec.engine_used = GroupEngine::kSweep;
  im.sweep_stats.cycles += evaluated_cycles;
  im.sweep_stats.gates_evaluated += rec.gates_evaluated;
  for (std::size_t i = 0; i < rec.evals_by_kind.size(); ++i) {
    im.sweep_stats.evals_by_kind[i] += rec.evals_by_kind[i];
  }
  return finish(rec);
}

FaultSimResult run_fault_sim(const nl::Netlist& netlist,
                             const nl::FaultList& faults,
                             const EnvFactory& make_env,
                             const FaultSimOptions& options) {
  using Clock = std::chrono::steady_clock;

  const GroupPlan plan(faults, options);
  FaultSimResult res = plan.make_result();
  const std::size_t num_groups = plan.num_groups();

  // Shard restriction: schedule only this shard's residue class. The
  // group universe (and therefore record encodings, sampling and the
  // campaign fingerprint) is untouched — a shard run is an ordinary
  // campaign that happens to leave the other residue classes unstarted.
  const bool sharded = options.shard_count > 1;
  if (sharded && options.shard_index >= options.shard_count) {
    throw std::runtime_error("shard index " +
                             std::to_string(options.shard_index) +
                             " out of range for " +
                             std::to_string(options.shard_count) + " shards");
  }
  std::vector<std::size_t> schedule;
  schedule.reserve(sharded ? num_groups / options.shard_count + 1
                           : num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    if (!sharded || g % options.shard_count == options.shard_index) {
      schedule.push_back(g);
    }
  }
  res.groups_scheduled = schedule.size();

  // Wall-clock bounds. When neither is configured the hot loop performs
  // no clock reads at all, keeping the no-timeout path byte-identical to
  // the historical engine.
  const bool has_clock_bounds =
      options.group_timeout_ms != 0 || options.time_budget_ms != 0;
  const Clock::time_point run_deadline =
      options.time_budget_ms != 0
          ? Clock::now() + std::chrono::milliseconds(options.time_budget_ms)
          : Clock::time_point::max();

  // The compiled program is built once and shared read-only by every
  // worker, exactly like the good trace.
  std::shared_ptr<const nl::CompiledNetlist> compiled = nl::compile(netlist);

  // Event engine: one lazily recorded good trace shared read-only by
  // every worker (a campaign fully seeded from its journal never pays
  // for recording at all).
  const std::shared_ptr<SharedTraceSource> trace_source = make_trace_source(
      netlist, make_env, options, compiled, run_deadline, options.cancel);

  // Thread-safe progress: groups complete out of order across workers,
  // but the reported count is monotonic and ends at num_groups (fewer on
  // a cancelled run). The same mutex serializes the on_group checkpoint
  // hook so journal appends never interleave.
  std::atomic<std::size_t> groups_done{0};
  std::atomic<std::size_t> groups_seeded{0};
  std::atomic<std::uint64_t> good_cycles{0};
  std::mutex hook_mutex;
  auto report_progress = [&](bool seeded) {
    Progress p;
    p.seeded = seeded ? groups_seeded.fetch_add(1) + 1
                      : groups_seeded.load(std::memory_order_relaxed);
    p.done = groups_done.fetch_add(1) + 1;
    p.total = schedule.size();  // shard-local: ETA rates this shard only
    if (options.progress) {
      std::lock_guard<std::mutex> lock(hook_mutex);
      options.progress(p);
    }
  };

  // Splices a group outcome into the result arrays and folds its work
  // counters into the run totals. Groups own disjoint fault indices, so
  // concurrent calls from workers never collide; the scalar reductions
  // are atomic. Summing per-record counters (instead of per-worker
  // KernelStats) makes the aggregate a pure function of the resolved
  // records: seeded groups contribute the work their original
  // simulation recorded, so resumed and uninterrupted campaigns agree.
  std::atomic<std::uint64_t> agg_gates{0};
  std::atomic<std::uint64_t> agg_cycles{0};
  auto apply_record = [&](const GroupRecord& rec) {
    plan.apply(rec, &res);
    agg_gates.fetch_add(rec.gates_evaluated, std::memory_order_relaxed);
    agg_cycles.fetch_add(rec.sim_cycles, std::memory_order_relaxed);
    std::uint64_t cur = good_cycles.load(std::memory_order_relaxed);
    while (rec.cycles > cur &&
           !good_cycles.compare_exchange_weak(cur, rec.cycles,
                                              std::memory_order_relaxed)) {
    }
  };

  // Resolves one group: seed from storage, expire against the campaign
  // deadline, or simulate. Seeded groups are not re-journaled; simulated
  // and deadline-expired ones go through on_group.
  auto process_group = [&](GroupSimulator& sim, std::size_t group) {
    GroupRecord rec;
    bool seeded = false;
    bool expired = false;
    if (options.seed_group && options.seed_group(group, &rec)) {
      if (rec.group != group || rec.count != plan.group_count(group) ||
          rec.detect_cycle.size() != rec.count) {
        throw std::runtime_error(
            "fault-sim seed record does not match group " +
            std::to_string(group) + " of this campaign");
      }
      seeded = true;
    } else if (has_clock_bounds && Clock::now() >= run_deadline) {
      expired = true;
    } else if (trace_source) {
      // Recording the shared good trace (or waiting for the worker that
      // records it) is charged to no group: fetch it before the clock.
      trace_source->get();
    }
    const bool timed =
        static_cast<bool>(options.on_group_metric);  // one clock pair/group
    const Clock::time_point started = timed ? Clock::now() : Clock::time_point();
    if (expired) {
      // Unstarted at the campaign deadline: every fault is inconclusive.
      rec = plan.unstarted_record(group);
      rec.timed_out = true;
    } else if (!seeded) {
      rec = sim.simulate(group);
    }
    apply_record(rec);
    if (!seeded && options.on_group) {
      std::lock_guard<std::mutex> lock(hook_mutex);
      options.on_group(rec);
    }
    if (timed) {
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - started)
              .count();
      std::lock_guard<std::mutex> lock(hook_mutex);
      options.on_group_metric(rec, seeded, ms);
    }
    report_progress(seeded);
  };

  unsigned threads =
      options.threads == 0 ? util::hardware_threads() : options.threads;
  threads = static_cast<unsigned>(std::min<std::size_t>(
      threads, std::max<std::size_t>(schedule.size(), 1)));

  if (threads <= 1) {
    GroupSimulator sim(netlist, faults, plan, make_env, options,
                       trace_source, compiled);
    sim.set_run_deadline(run_deadline);
    for (std::size_t group : schedule) {
      if (options.cancel &&
          options.cancel->load(std::memory_order_relaxed)) {
        break;
      }
      process_group(sim, group);
    }
  } else {
    // Each worker lazily builds its own simulator + injection table (the
    // LogicSim constructor levelizes the netlist, so eager construction
    // of unused workers would be wasted).
    util::ThreadPool pool(threads);
    std::vector<std::unique_ptr<GroupSimulator>> workers(pool.size());
    pool.run(
        schedule.size(),
        [&](std::size_t slot, unsigned w) {
          if (!workers[w]) {
            workers[w] = std::make_unique<GroupSimulator>(
                netlist, faults, plan, make_env, options, trace_source,
                compiled);
            workers[w]->set_run_deadline(run_deadline);
          }
          process_group(*workers[w], schedule[slot]);
        },
        options.cancel);
  }
  res.gates_evaluated = agg_gates.load(std::memory_order_relaxed);
  res.sim_cycles = agg_cycles.load(std::memory_order_relaxed);

  if (trace_source) {
    res.trace_bytes = trace_source->trace_bytes();
    res.trace_fallback = trace_source->fell_back();
  }
  res.good_cycles = good_cycles.load(std::memory_order_relaxed);
  res.groups_done = groups_done.load(std::memory_order_relaxed);
  res.cancelled = options.cancel &&
                  options.cancel->load(std::memory_order_relaxed) &&
                  res.groups_done < res.groups_scheduled;
  return res;
}

Coverage overall_coverage(const nl::FaultList& faults,
                          const FaultSimResult& result) {
  Coverage cov;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!result.simulated[i]) continue;
    cov.total += faults.class_size[i];
    if (result.detected[i]) cov.detected += faults.class_size[i];
    // timed_out/quarantined may be empty on hand-built results; empty
    // means none.
    if (i < result.timed_out.size() && result.timed_out[i]) {
      cov.timed_out += faults.class_size[i];
    }
    if (i < result.quarantined.size() && result.quarantined[i]) {
      cov.quarantined += faults.class_size[i];
    }
  }
  return cov;
}

std::vector<Coverage> component_coverage(const nl::Netlist& netlist,
                                         const nl::FaultList& faults,
                                         const FaultSimResult& result) {
  std::vector<Coverage> cov(static_cast<std::size_t>(netlist.num_components()));
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!result.simulated[i]) continue;
    const nl::ComponentId c = fault_component(netlist, faults.faults[i]);
    cov[c].total += faults.class_size[i];
    if (result.detected[i]) cov[c].detected += faults.class_size[i];
    if (i < result.timed_out.size() && result.timed_out[i]) {
      cov[c].timed_out += faults.class_size[i];
    }
    if (i < result.quarantined.size() && result.quarantined[i]) {
      cov[c].quarantined += faults.class_size[i];
    }
  }
  return cov;
}

}  // namespace sbst::fault
