#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/event_kernel.h"
#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "fault/injection.h"
#include "netlist/compiled.h"
#include "util/parallel.h"

namespace sbst::fault {

namespace {

using sim::Word;

/// The sweep's simulation word: four 64-machine lanes side by side. Lane
/// l simulates one group, its faulty machines in bits 0..62 and the good
/// machine in bit 63, so one pass of the netlist advances four groups.
/// GCC/Clang vector extension: one AVX2 operation per bitwise operator
/// in the AVX2 clones below, two SSE2 operations in baseline code.
using SweepWord = std::uint64_t __attribute__((vector_size(32)));
constexpr int kLanes = static_cast<int>(kSweepLanes);
constexpr int kLaneBits = 64;
static_assert(sizeof(SweepWord) * 8 == kLanes * kLaneBits);
using SweepInjections = detail::InjectionTableT<SweepWord>;
using SweepForce = detail::GateForceT<SweepWord>;

// The per-cycle entry points of the sweep are compiled twice, for AVX2
// and for the baseline target, and the loader picks one copy per CPU.
// Two rules keep the copies compatible with the baseline code around
// them: every SweepWord they touch lives in 32-byte-aligned storage
// (outside AVX code GCC gives the type alignof 16, but the AVX2 copy
// moves it with aligned 32-byte loads), and no function outside them
// passes or returns a SweepWord by value (the two targets pass it
// differently). Other targets and compilers without the attribute
// compile the same source once, and so do GCC ThreadSanitizer builds:
// TSan instruments GCC's copy-picking resolver, which the loader runs
// before the sanitizer runtime is initialised.
#if defined(__x86_64__) && defined(__ELF__) && \
    __has_attribute(target_clones) && !defined(__SANITIZE_THREAD__)
#define SBST_SWEEP_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define SBST_SWEEP_CLONES
#endif

/// Allocates SweepWord arrays 32-byte aligned (see above).
template <class T>
struct Align32 {
  using value_type = T;
  Align32() = default;
  template <class U>
  Align32(const Align32<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{32}));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t{32});
  }
  friend bool operator==(const Align32&, const Align32&) { return true; }
};
using WordArray = std::vector<SweepWord, Align32<SweepWord>>;

/// Per-item fixup sites for the compiled sweep: the slotted (injected)
/// combinational gates of every lane, grouped by level. Rebuilt per item.
struct CompiledFixups {
  std::vector<std::vector<nl::GateId>> by_level;  // sized max_level + 1
  std::vector<std::uint32_t> levels;              // touched levels, sorted

  void rebuild(const nl::CompiledNetlist& cn, const nl::Netlist& netlist,
               const SweepInjections& inj) {
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

/// Fault-aware sweep state for up to four groups in lock-step: one
/// SweepWord per gate (plus CompiledNetlist's always-zero slot) and the
/// injection table of every lane. It is also the PortIo the environment
/// drives and observes, as in DESIGN.md §5: inputs are broadcast into
/// every lane, outputs are read from bit 63 of lane 0. Every lane's bit
/// 63 is the same good machine (injections never touch it), so one
/// environment serves all four.
class LaneSweep final : public sim::PortIo {
 public:
  LaneSweep(const nl::Netlist& netlist, const nl::CompiledNetlist& cn)
      : netlist_(&netlist),
        cn_(&cn),
        v_(netlist.size() + 1),
        next_(cn.dff_gate.size()),
        inj_(netlist.size()) {}

  const nl::Netlist& netlist() const override { return *netlist_; }

  void set_input(const nl::Port& port, std::uint64_t value) override {
    for (int i = 0; i < port.width(); ++i) {
      v_[port.bits[static_cast<std::size_t>(i)]] =
          ((value >> i) & 1u) ? ~SweepWord{} : SweepWord{};
    }
  }

  std::uint64_t read_output(const nl::Port& port) const override {
    std::uint64_t out = 0;
    for (int i = 0; i < port.width(); ++i) {
      const SweepWord& w = v_[port.bits[static_cast<std::size_t>(i)]];
      out |= ((w[0] >> 63) & 1u) << i;
    }
    return out;
  }

  /// The item's injections: lane l's fault i owns machine bit 64*l + i.
  SweepInjections& injections() { return inj_; }

  /// Starts an item after its injections were added: collects the fixup
  /// sites, loads reset state and applies the state injections.
  void start() {
    fixups_.rebuild(*cn_, *netlist_, inj_);
    d_forces_.clear();
    for (std::size_t i = 0; i < cn_->dff_gate.size(); ++i) {
      if (const std::uint32_t slot = inj_.slot(cn_->dff_gate[i]); slot != 0) {
        d_forces_.emplace_back(i, slot);
      }
    }
    for (nl::GateId g = 0; g < netlist_->size(); ++g) {
      const nl::Gate& gate = netlist_->gate(g);
      switch (gate.kind) {
        case nl::GateKind::kConst0: v_[g] = SweepWord{}; break;
        case nl::GateKind::kConst1: v_[g] = ~SweepWord{}; break;
        case nl::GateKind::kInput:  v_[g] = SweepWord{}; break;
        case nl::GateKind::kDff:
          v_[g] = gate.reset_val ? ~SweepWord{} : SweepWord{};
          break;
        default: break;
      }
    }
    v_[cn_->zero_slot] = SweepWord{};
    apply_state_injections();
  }

  /// Evaluates the combinational logic of the driven cycle with
  /// input-branch and output-stem forcing on the injected gates: the
  /// branch-free compiled runs, with the handful of injected gates
  /// re-evaluated at the end of their level (their consumers sit at
  /// strictly higher levels, so the fixup lands before anything reads
  /// the forced word).
  SBST_SWEEP_CLONES void eval() {
    apply_state_injections();
    const nl::CompiledNetlist& cn = *cn_;
    SweepWord* const v = v_.data();
    if (fixups_.levels.empty()) {
      for (const nl::CompiledRun& r : cn.runs) nl::eval_run(cn, r, v);
      return;
    }
    const auto slot_of = [&cn](nl::GateId d) {
      return d < cn.num_gates ? d : cn.zero_slot;
    };
    std::size_t fx = 0;
    const std::uint32_t num_levels = cn.lv.max_level + 1;
    for (std::uint32_t lvl = 0; lvl < num_levels; ++lvl) {
      for (std::uint32_t r = cn.level_run_begin[lvl];
           r < cn.level_run_begin[lvl + 1]; ++r) {
        nl::eval_run(cn, cn.runs[r], v);
      }
      if (fx < fixups_.levels.size() && fixups_.levels[fx] == lvl) {
        for (nl::GateId g : fixups_.by_level[lvl]) {
          const nl::Gate& gate = netlist_->gate(g);
          const SweepForce& f = inj_.force_record(inj_.slot(g));
          const SweepWord a = (v[slot_of(gate.in[0])] | f.set[1]) & ~f.clr[1];
          const SweepWord b = (v[slot_of(gate.in[1])] | f.set[2]) & ~f.clr[2];
          const SweepWord c = (v[slot_of(gate.in[2])] | f.set[3]) & ~f.clr[3];
          SweepWord w;
          sim::eval_gate_to(gate.kind, a, b, c, w);
          v[g] = (w | f.set[0]) & ~f.clr[0];
        }
        ++fx;
      }
    }
  }

  /// Detection words: per lane, the machines whose primary outputs
  /// differ from the lane's good machine (bit 63, which reads 0 here).
  SBST_SWEEP_CLONES std::array<Word, kLanes> po_diff(
      const std::vector<nl::GateId>& po_bits) const {
    SweepWord diff{};
    const SweepWord* const v = v_.data();
    for (nl::GateId b : po_bits) {
      const SweepWord w = v[b];
      diff |= w ^ (SweepWord{} - (w >> 63));  // good bit across the lane
    }
    std::array<Word, kLanes> lanes;
    for (int l = 0; l < kLanes; ++l) lanes[l] = diff[l];
    return lanes;
  }

  /// Clocks DFFs with D-pin fault forcing, then re-applies Q-output
  /// faults.
  SBST_SWEEP_CLONES void step_clock() {
    const std::size_t num_dffs = cn_->dff_gate.size();
    const nl::GateId* const q = cn_->dff_gate.data();
    const std::uint32_t* const d = cn_->dff_d.data();
    SweepWord* const v = v_.data();
    SweepWord* const next = next_.data();
    for (std::size_t i = 0; i < num_dffs; ++i) next[i] = v[d[i]];
    for (const auto& [i, slot] : d_forces_) {
      const SweepForce& f = inj_.force_record(slot);
      next[i] = (next[i] | f.set[1]) & ~f.clr[1];
    }
    for (std::size_t i = 0; i < num_dffs; ++i) v[q[i]] = next[i];
    for (const auto& f : inj_.dff_q()) {
      detail::force(v[f.gate], f.mask, f.stuck);
    }
  }

 private:
  /// Stuck-at forcing on source gates (PIs, constants) and DFF outputs;
  /// runs after inputs are driven / DFFs updated.
  [[gnu::always_inline]] void apply_state_injections() {
    SweepWord* const v = v_.data();
    for (const auto& i : inj_.sources()) {
      detail::force(v[i.gate], i.mask, i.stuck);
    }
    for (const auto& i : inj_.dff_q()) {
      detail::force(v[i.gate], i.mask, i.stuck);
    }
  }

  const nl::Netlist* netlist_;
  const nl::CompiledNetlist* cn_;
  WordArray v_;
  WordArray next_;  // DFF sampling scratch
  SweepInjections inj_;
  CompiledFixups fixups_;
  /// D-pin-injected DFFs of the item: (DFF index, injection slot).
  std::vector<std::pair<std::size_t, std::uint32_t>> d_forces_;
};

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
static_assert(kLanes * kFaultsPerGroup <= SweepInjections::kMaxSlots,
              "the injection slot table must hold every lane's forced "
              "gates");

}  // namespace

// --- GroupPlan --------------------------------------------------------------

GroupPlan::GroupPlan(const nl::FaultList& faults,
                     const FaultSimOptions& options)
    : num_faults_(faults.size()), num_active_(faults.size()) {
  if (options.sample != 0 && options.sample < faults.size()) {
    sampled_ =
        choose_sample(faults.size(), options.sample, options.sample_seed);
    num_active_ = sampled_.size();
  }
}

std::size_t GroupPlan::num_groups() const {
  return (num_active_ + kFaultsPerGroup - 1) / kFaultsPerGroup;
}

std::uint32_t GroupPlan::group_count(std::size_t group) const {
  const std::size_t base = group * kFaultsPerGroup;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(kFaultsPerGroup, num_active_ - base));
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
  const ActiveFaults active = this->active();
  for (std::uint32_t i = 0; i < rec.count; ++i) {
    const std::size_t fi = active[base + i];
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
  // did not pass one); its levelization serves both kernels.
  std::shared_ptr<const nl::CompiledNetlist> compiled;
  std::vector<nl::GateId> po_bits;
  // Per-cycle sweep tallies: how many nodes of each base-op class one
  // full sweep evaluates. Every comb gate is one node of its op_class
  // (BUF in the AND lane), so these are exact counts of the compiled
  // program's work.
  std::array<std::uint64_t, nl::kNumCompiledOps> sweep_kinds_per_cycle = {
      0, 0, 0, 0};
  // Sweep state, built on the first swept group.
  std::optional<LaneSweep> sweep;
  // Event-engine state: the campaign-shared trace source (null = sweep),
  // the differential kernel and its injection table built on first
  // successful trace fetch, and a latch that pins the sweep fallback
  // once recording has failed.
  std::shared_ptr<SharedTraceSource> trace_source;
  std::optional<EventKernel> event;
  std::optional<detail::InjectionTable> event_inj;
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
        po_bits(sim::flat_po_bits(n)),
        trace_source(std::move(trace_src)) {
    for (nl::GateId g : compiled->lv.comb_order) {
      ++sweep_kinds_per_cycle[static_cast<std::size_t>(
          nl::op_class(n.gate(g).kind))];
    }
  }

  /// Adds `group`'s faults to `inj`, fault i on machine bit first_bit + i.
  template <class Table>
  void inject(std::size_t group, int first_bit, Table* inj) const {
    const GroupPlan::ActiveFaults active = plan.active();
    const std::size_t base = group * kFaultsPerGroup;
    const int count = static_cast<int>(plan.group_count(group));
    for (int i = 0; i < count; ++i) {
      inj->add(netlist, faults.faults[active[base + i]], first_bit + i);
    }
  }

  void simulate_event(const KernelDeadlines& deadlines, GroupRecord* rec);
  void simulate_sweep(const KernelDeadlines& deadlines, GroupRecord* recs,
                      int lanes);
  void simulate(const std::size_t* groups, int n, GroupRecord* recs);
};

void GroupSimulator::Impl::simulate_event(const KernelDeadlines& deadlines,
                                          GroupRecord* rec) {
  if (!event) {
    event.emplace(netlist, compiled->lv, po_bits, trace);
    event_inj.emplace(netlist.size());
  }
  event_inj->clear();
  inject(rec->group, 0, &*event_inj);
  const KernelStats before = event->stats();
  event->simulate(*event_inj, static_cast<int>(rec->count), deadlines, rec);
  const KernelStats& after = event->stats();
  rec->gates_evaluated = after.gates_evaluated - before.gates_evaluated;
  rec->sim_cycles = after.cycles - before.cycles;
  for (std::size_t i = 0; i < rec->evals_by_kind.size(); ++i) {
    rec->evals_by_kind[i] = after.evals_by_kind[i] - before.evals_by_kind[i];
  }
  rec->engine_used = GroupEngine::kEvent;
}

/// Sweeps `lanes` (1 to 4) groups in lock-step under one environment.
/// Each lane keeps its own detection and stops counting once its group
/// is fully detected, so its record is exactly what a lone run gives;
/// the item ends when every lane is done, the environment halts or
/// max_cycles is reached. A lone group runs in lane 0, its other lanes
/// idle.
void GroupSimulator::Impl::simulate_sweep(const KernelDeadlines& deadlines,
                                          GroupRecord* recs, int lanes) {
  if (!sweep) sweep.emplace(netlist, *compiled);
  LaneSweep& st = *sweep;
  st.injections().clear();
  std::array<Word, kLanes> all_mask{};
  std::array<Word, kLanes> detected{};
  std::array<bool, kLanes> live{};
  for (int l = 0; l < lanes; ++l) {
    inject(recs[l].group, l * kLaneBits, &st.injections());
    all_mask[l] = (Word{1} << recs[l].count) - 1;  // count <= 63
    live[l] = true;
  }
  int num_live = lanes;
  st.start();
  std::unique_ptr<Environment> env = make_env();

  // Closes lane l's record: `cycles` as a lone run reports them, and
  // `evaluated` swept cycles for the work counters. Every comb gate is
  // one compiled node, so `evaluated × comb_order.size()` is exactly the
  // nodes the sweep evaluated (injection fixups not counted).
  const auto finish_lane = [&](int l, std::uint64_t cycles,
                               std::uint64_t evaluated) {
    GroupRecord& rec = recs[l];
    rec.detected_mask = detected[l];
    rec.cycles = cycles;
    rec.gates_evaluated = evaluated * compiled->lv.comb_order.size();
    rec.sim_cycles = evaluated;
    for (std::size_t i = 0; i < rec.evals_by_kind.size(); ++i) {
      rec.evals_by_kind[i] = evaluated * sweep_kinds_per_cycle[i];
      sweep_stats.evals_by_kind[i] += rec.evals_by_kind[i];
    }
    rec.engine_used = GroupEngine::kSweep;
    sweep_stats.cycles += evaluated;
    sweep_stats.gates_evaluated += rec.gates_evaluated;
    live[l] = false;
    --num_live;
  };

  std::uint64_t cycle = 0;
  for (; cycle < max_cycles; ++cycle) {
    // Amortized watchdog: one clock read every 1024 cycles keeps the
    // bound within ~ms granularity without slowing the hot loop.
    if (deadlines.active && (cycle & 1023u) == 1023u) [[unlikely]] {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadlines.group_deadline || now >= deadlines.run_deadline) {
        for (int l = 0; l < lanes; ++l) recs[l].timed_out = live[l];
        break;
      }
    }
    env->drive(st, cycle);
    st.eval();

    const std::array<Word, kLanes> diff = st.po_diff(po_bits);
    for (int l = 0; l < lanes; ++l) {
      if (!live[l]) continue;
      const Word new_bits = diff[l] & all_mask[l] & ~detected[l];
      if (new_bits == 0) continue;
      Word d = new_bits;
      while (d != 0) {
        const int bit = std::countr_zero(d);
        d &= d - 1;
        recs[l].detect_cycle[static_cast<std::size_t>(bit)] =
            static_cast<std::int64_t>(cycle);
      }
      detected[l] |= new_bits;
      // Fault dropping: the lane's group is done.
      if (detected[l] == all_mask[l]) finish_lane(l, cycle, cycle + 1);
    }
    if (num_live == 0) break;

    const bool keep_going = env->observe(st, cycle);
    st.step_clock();
    if (!keep_going) {
      ++cycle;
      break;
    }
  }
  for (int l = 0; l < lanes; ++l) {
    if (live[l]) finish_lane(l, cycle, cycle);
  }
}

void GroupSimulator::Impl::simulate(const std::size_t* groups, int n,
                                    GroupRecord* recs) {
  using Clock = std::chrono::steady_clock;

  // Event engine: fetch the campaign-shared good trace (the first fetch
  // records it; recording honours the run deadline and cancel flag). A
  // failed recording latches the sweep fallback for this worker. The
  // fetch sits outside the group clock: recording, or waiting for
  // another worker to finish it, is campaign work, not this group's.
  if (trace_source && !trace && !event_unavailable) {
    trace = trace_source->get();
    if (!trace) event_unavailable = true;
  }

  const Clock::time_point started = Clock::now();
  for (int i = 0; i < n; ++i) recs[i] = plan.unstarted_record(groups[i]);
  // group_timeout_ms bounds each simulation from its own start; the
  // lanes of a sweep item start together and share one bound.
  const auto deadlines = [&] {
    KernelDeadlines d;
    d.active =
        group_timeout_ms != 0 || run_deadline != Clock::time_point::max();
    d.group_deadline =
        group_timeout_ms != 0
            ? Clock::now() + std::chrono::milliseconds(group_timeout_ms)
            : Clock::time_point::max();
    d.run_deadline = run_deadline;
    return d;
  };

  if (trace) {
    for (int i = 0; i < n; ++i) simulate_event(deadlines(), &recs[i]);
  } else {
    simulate_sweep(deadlines(), recs, n);
  }
  eval_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           started)
          .count());
}

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

const GroupPlan& GroupSimulator::plan() const { return impl_->plan; }

GroupRecord GroupSimulator::simulate(std::size_t group) {
  GroupRecord rec;
  impl_->simulate(&group, 1, &rec);
  return rec;
}

std::vector<GroupRecord> GroupSimulator::simulate_lanes(
    std::span<const std::size_t> groups) {
  if (groups.empty() || groups.size() > kSweepLanes) {
    throw std::invalid_argument("simulate_lanes takes 1 to " +
                                std::to_string(kSweepLanes) + " groups");
  }
  std::vector<GroupRecord> recs(groups.size());
  impl_->simulate(groups.data(), static_cast<int>(groups.size()),
                  recs.data());
  return recs;
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
  // a cancelled run): it is counted under the mutex that serializes the
  // reports. The same mutex serializes the on_group checkpoint hook so
  // journal appends never interleave.
  std::atomic<std::size_t> groups_done{0};
  std::atomic<std::size_t> groups_seeded{0};
  std::atomic<std::uint64_t> good_cycles{0};
  std::mutex hook_mutex;
  auto report_progress = [&](bool seeded) {
    std::lock_guard<std::mutex> lock(hook_mutex);
    Progress p;
    p.seeded = seeded ? groups_seeded.fetch_add(1) + 1
                      : groups_seeded.load(std::memory_order_relaxed);
    p.done = groups_done.fetch_add(1) + 1;
    p.total = schedule.size();  // shard-local: ETA rates this shard only
    if (options.progress) options.progress(p);
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

  // Resolves one work item of up to four groups. Each group is seeded
  // from storage or expired against the campaign deadline on its own;
  // the rest are simulated together (one sweep pass for all of them),
  // or by the simulate_group hook when it is set (items are then single
  // groups).
  // Seeded groups are not re-journaled; simulated and deadline-expired
  // ones go through on_group. Telemetry charges each simulated group an
  // equal share of the item's simulation wall time, so per-group
  // durations still sum to the worker's busy time.
  const bool timed =
      static_cast<bool>(options.on_group_metric);  // one clock pair/item
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  auto commit = [&](const GroupRecord& rec, bool seeded) {
    apply_record(rec);
    if (!seeded && options.on_group) {
      std::lock_guard<std::mutex> lock(hook_mutex);
      options.on_group(rec);
    }
  };
  auto report = [&](const GroupRecord& rec, bool seeded, double ms) {
    if (timed) {
      std::lock_guard<std::mutex> lock(hook_mutex);
      options.on_group_metric(rec, seeded, ms);
    }
    report_progress(seeded);
  };
  auto process_item = [&](GroupSimulator& sim, unsigned worker,
                          const std::size_t* groups, std::size_t n) {
    std::array<std::size_t, kSweepLanes> to_simulate{};
    std::size_t num_simulate = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t group = groups[i];
      GroupRecord rec;
      bool seeded = false;
      if (options.seed_group && options.seed_group(group, &rec)) {
        if (rec.group != group || rec.count != plan.group_count(group) ||
            rec.detect_cycle.size() != rec.count) {
          throw std::runtime_error(
              "fault-sim seed record does not match group " +
              std::to_string(group) + " of this campaign");
        }
        seeded = true;
      } else if (has_clock_bounds && Clock::now() >= run_deadline) {
        // Unstarted at the campaign deadline: every fault is inconclusive.
        rec = plan.unstarted_record(group);
        rec.timed_out = true;
      } else {
        to_simulate[num_simulate++] = group;
        continue;
      }
      const Clock::time_point started =
          timed ? Clock::now() : Clock::time_point();
      commit(rec, seeded);
      report(rec, seeded, timed ? ms_since(started) : 0.0);
    }
    if (num_simulate == 0) return;
    // Recording the shared good trace (or waiting for the worker that
    // records it) is charged to no group: fetch it before the clock.
    if (trace_source) trace_source->get();
    const Clock::time_point started =
        timed ? Clock::now() : Clock::time_point();
    const std::vector<GroupRecord> recs =
        options.simulate_group
            ? std::vector<GroupRecord>{options.simulate_group(
                  sim, worker, to_simulate[0])}
            : sim.simulate_lanes({to_simulate.data(), num_simulate});
    for (std::size_t k = 0; k < num_simulate; ++k) commit(recs[k], false);
    const double ms =
        timed ? ms_since(started) / static_cast<double>(num_simulate) : 0.0;
    for (std::size_t k = 0; k < num_simulate; ++k) report(recs[k], false, ms);
  };

  // Work items: up to four consecutive groups of the schedule under the
  // sweep (one pass of the netlist advances all of them), single groups
  // under the event engine and under the simulate_group hook.
  const std::size_t per_item =
      options.engine == Engine::kSweep && !options.simulate_group
          ? kSweepLanes
          : 1;
  const std::size_t num_items = (schedule.size() + per_item - 1) / per_item;
  auto run_item = [&](GroupSimulator& sim, unsigned worker,
                      std::size_t item) {
    const std::size_t first = item * per_item;
    process_item(sim, worker, schedule.data() + first,
                 std::min(per_item, schedule.size() - first));
  };

  // Each worker lazily builds its own simulator (its sweep state and
  // injection tables are allocated on first use).
  const unsigned threads =
      options.threads == 0 ? util::hardware_threads() : options.threads;
  std::vector<std::unique_ptr<GroupSimulator>> workers(
      std::min<std::size_t>(threads, num_items));
  util::parallel_for(
      threads, num_items,
      [&](std::size_t item, unsigned w) {
        if (!workers[w]) {
          workers[w] = std::make_unique<GroupSimulator>(
              netlist, faults, plan, make_env, options, trace_source,
              compiled);
          workers[w]->set_run_deadline(run_deadline);
        }
        run_item(*workers[w], w, item);
      },
      options.cancel);
  res.gates_evaluated = agg_gates.load(std::memory_order_relaxed);
  res.sim_cycles = agg_cycles.load(std::memory_order_relaxed);

  if (trace_source) {
    res.trace_bytes = trace_source->trace_bytes();
    res.trace_fallback = trace_source->fell_back();
    res.trace_cycles = trace_source->trace_cycles();
    res.trace_record_ms = trace_source->record_ms();
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
