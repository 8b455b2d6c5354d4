// The multi-lane sweep contract: under Engine::kSweep, run_fault_sim
// sweeps up to four groups per 256-bit word under one environment, and
// every record it produces equals a lone GroupSimulator::simulate(g) of
// that group, field by field, at every thread count. Covered: lanes that
// finish early while others run on, trailing items of one, two and three
// groups, items split by groups seeded from a journal, stem and branch
// faults on BUFs in every lane (checked against mutant netlists under
// both engines), an environment halt that stops every lane, a
// group_timeout_ms cut, the equal share of an item's time charged to
// each of its groups, and the injection table's capacity for four lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "fault/injection.h"
#include "netlist/fault.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"
#include "sim/logicsim.h"

namespace sbst::fault {
namespace {

// A seeded random sequential netlist: 8 inputs, 12 flip-flops fed back
// from a deep random cone (all gate kinds, BUFs included), 15 outputs.
nl::Netlist make_random_seq_netlist(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  nl::Netlist n;
  const auto& in = n.add_input("in", 8);
  std::vector<nl::GateId> nets(in.bits.begin(), in.bits.end());
  nets.push_back(n.const0());
  nets.push_back(n.const1());
  std::vector<nl::GateId> dffs;
  for (std::size_t i = 0; i < 12; ++i) {
    dffs.push_back(n.add_dff(in.bits[i % in.bits.size()], (rng() & 1) != 0));
    nets.push_back(dffs.back());
  }
  constexpr nl::GateKind kKinds[] = {
      nl::GateKind::kAnd2, nl::GateKind::kOr2,  nl::GateKind::kNand2,
      nl::GateKind::kNor2, nl::GateKind::kXor2, nl::GateKind::kXnor2,
      nl::GateKind::kNot,  nl::GateKind::kBuf,  nl::GateKind::kMux2};
  const auto pick = [&] {
    const std::size_t k = nets.size();
    return (rng() & 1) ? nets[k - 1 - rng() % std::min<std::size_t>(k, 12)]
                       : nets[rng() % k];
  };
  std::vector<nl::GateId> comb;
  for (std::size_t i = 0; i < 160; ++i) {
    const nl::GateKind kind = kKinds[rng() % std::size(kKinds)];
    const int arity = nl::fanin_count(kind);
    const nl::GateId a = pick();
    const nl::GateId b = arity >= 2 ? pick() : nl::kNoGate;
    const nl::GateId c = arity >= 3 ? pick() : nl::kNoGate;
    comb.push_back(n.add_gate(kind, a, b, c));
    nets.push_back(comb.back());
  }
  for (nl::GateId q : dffs) {
    n.set_gate_input(q, 0, comb[rng() % comb.size()]);
  }
  std::vector<nl::GateId> outs;
  for (std::size_t i = 0; i < 14; ++i) {
    outs.push_back(comb[rng() % comb.size()]);
  }
  outs.push_back(dffs[0]);
  n.add_output("o", outs);
  return n;
}

// Hash-driven stimulus that halts after `cycles` cycles; drive() sleeps
// `nap` once, at cycle `nap_at`, to trip wall-clock bounds on cue.
class HashEnv final : public Environment {
 public:
  HashEnv(std::uint64_t cycles, std::uint64_t nap_at,
          std::chrono::milliseconds nap)
      : cycles_(cycles), nap_at_(nap_at), nap_(nap) {}
  void drive(sim::PortIo& io, std::uint64_t cycle) override {
    if (cycle == nap_at_ && nap_.count() != 0) {
      std::this_thread::sleep_for(nap_);
    }
    std::uint64_t z = (cycle + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 31)) * 0xBF58476D1CE4E5B9ull;
    io.set_input(io.netlist().input("in"), z ^ (z >> 29));
  }
  bool observe(const sim::PortIo&, std::uint64_t cycle) override {
    return cycle + 1 < cycles_;
  }

 private:
  std::uint64_t cycles_;
  std::uint64_t nap_at_;
  std::chrono::milliseconds nap_;
};

EnvFactory hash_env(std::uint64_t cycles, std::uint64_t nap_at = 0,
                    std::chrono::milliseconds nap = {}) {
  return [=]() { return std::make_unique<HashEnv>(cycles, nap_at, nap); };
}

void expect_same_record(const GroupRecord& a, const GroupRecord& b,
                        const std::string& what) {
  SCOPED_TRACE(what + ", group " + std::to_string(b.group));
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.detected_mask, b.detected_mask);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.detect_cycle, b.detect_cycle);
  EXPECT_EQ(a.gates_evaluated, b.gates_evaluated);
  EXPECT_EQ(a.sim_cycles, b.sim_cycles);
  EXPECT_EQ(a.engine_used, b.engine_used);
  EXPECT_EQ(a.evals_by_kind, b.evals_by_kind);
}

void expect_same_records(const std::vector<GroupRecord>& lone,
                         const std::vector<GroupRecord>& paired,
                         const std::string& what) {
  ASSERT_EQ(lone.size(), paired.size()) << what;
  for (std::size_t g = 0; g < lone.size(); ++g) {
    expect_same_record(lone[g], paired[g], what);
  }
}

/// The reference: every group of the plan simulated one at a time.
std::vector<GroupRecord> lone_records(const nl::Netlist& n,
                                      const nl::FaultList& fl,
                                      const EnvFactory& env,
                                      FaultSimOptions opt) {
  opt.engine = Engine::kSweep;
  const GroupPlan plan(fl, opt);
  GroupSimulator sim(n, fl, plan, env, opt);
  std::vector<GroupRecord> out;
  for (std::size_t g = 0; g < plan.num_groups(); ++g) {
    out.push_back(sim.simulate(g));
  }
  return out;
}

/// Records of a run_fault_sim sweep campaign (groups swept together in
/// items of up to four), indexed by group.
std::vector<GroupRecord> paired_records(const nl::Netlist& n,
                                        const nl::FaultList& fl,
                                        const EnvFactory& env,
                                        FaultSimOptions opt) {
  opt.engine = Engine::kSweep;
  std::vector<GroupRecord> out(GroupPlan(fl, opt).num_groups());
  std::vector<int> seen(out.size(), 0);
  opt.on_group = [&](const GroupRecord& rec) {
    out[rec.group] = rec;
    ++seen[rec.group];
  };
  run_fault_sim(n, fl, env, opt);
  for (std::size_t g = 0; g < seen.size(); ++g) {
    EXPECT_EQ(seen[g], 1) << "group " << g << " reported " << seen[g]
                          << " times";
  }
  return out;
}

bool fully_detected(const GroupRecord& r) {
  return r.detected_mask == (std::uint64_t{1} << r.count) - 1;
}

/// True when some item of `lone` (consecutive runs of kSweepLanes
/// groups) has a lane fully detected before another lane of it ended.
bool has_early_lane(const std::vector<GroupRecord>& lone) {
  for (std::size_t g = 0; g < lone.size(); g += kSweepLanes) {
    const std::size_t end = std::min(g + kSweepLanes, lone.size());
    for (std::size_t a = g; a < end; ++a) {
      for (std::size_t b = g; b < end; ++b) {
        if (fully_detected(lone[a]) && lone[a].cycles < lone[b].cycles) {
          return true;
        }
      }
    }
  }
  return false;
}

TEST(FaultSimParallel, PairedSweepMatchesLoneGroupsOnRandomNetlists) {
  bool early_lane = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const nl::Netlist n = make_random_seq_netlist(seed);
    const nl::FaultList fl = nl::enumerate_faults(n);
    FaultSimOptions opt;
    opt.max_cycles = 400;
    opt.threads = 1;
    // A group count that is not a multiple of four leaves a short last
    // item.
    std::size_t groups = GroupPlan(fl, opt).num_groups();
    if (groups % kSweepLanes == 0) {
      opt.sample = (groups - 1) * 63 - 7;
      groups = GroupPlan(fl, opt).num_groups();
    }
    ASSERT_GE(groups, kSweepLanes + 1) << "seed " << seed;
    ASSERT_NE(groups % kSweepLanes, 0u) << "seed " << seed;
    const EnvFactory env = hash_env(300);
    const std::vector<GroupRecord> lone = lone_records(n, fl, env, opt);
    early_lane = early_lane || has_early_lane(lone);
    for (unsigned threads : {1u, 2u, 3u, 4u}) {
      opt.threads = threads;
      expect_same_records(lone, paired_records(n, fl, env, opt),
                          "seed " + std::to_string(seed) + ", " +
                              std::to_string(threads) + " threads");
    }
  }
  EXPECT_TRUE(early_lane)
      << "no item had a lane fully detected before another lane ended";
}

// Items of one, two, three and four groups: the groups of each item are
// picked so their lanes finish at different cycles. Every lane's record
// equals its group's lone run, and campaigns whose last item holds one
// to four groups give the event engine's verdicts at 1 and 3 threads.
TEST(FaultSimParallel, QuadSweepItemsOfOneToFourGroupsMatchLoneRuns) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  ASSERT_TRUE(st.halted);
  const nl::Netlist& n = cpu.netlist;
  const nl::FaultList fl = nl::enumerate_faults(n);
  const EnvFactory env = parwan::make_parwan_env_factory(cpu, st.image);
  FaultSimOptions opt;
  opt.max_cycles = 10000;
  const std::vector<GroupRecord> lone = lone_records(n, fl, env, opt);

  // One group per distinct finishing cycle, early finishers first.
  std::map<std::uint64_t, std::size_t> by_cycles;
  for (const GroupRecord& r : lone) by_cycles.emplace(r.cycles, r.group);
  ASSERT_GE(by_cycles.size(), kSweepLanes)
      << "too few distinct finishing cycles";
  std::vector<std::size_t> picked;
  for (const auto& [cycles, group] : by_cycles) {
    if (picked.size() < kSweepLanes) picked.push_back(group);
  }
  ASSERT_TRUE(fully_detected(lone[picked[0]]));

  const GroupPlan plan(fl, opt);
  GroupSimulator sim(n, fl, plan, env, opt);
  for (std::size_t k = 1; k <= kSweepLanes; ++k) {
    // Reversed, so the lane that finishes first is not always lane 0.
    std::vector<std::size_t> groups(picked.begin(), picked.begin() + k);
    std::reverse(groups.begin(), groups.end());
    const std::vector<GroupRecord> recs = sim.simulate_lanes(groups);
    ASSERT_EQ(recs.size(), k);
    for (std::size_t l = 0; l < k; ++l) {
      expect_same_record(lone[groups[l]], recs[l],
                         std::to_string(k) + "-group item, lane " +
                             std::to_string(l));
    }
  }

  ASSERT_GT(fl.size(), 2 * kSweepLanes * 63);
  for (std::size_t last = 1; last <= kSweepLanes; ++last) {
    FaultSimOptions sampled = opt;
    sampled.sample = (kSweepLanes + last) * 63 - 5;
    ASSERT_EQ(GroupPlan(fl, sampled).num_groups(), kSweepLanes + last);
    const std::vector<GroupRecord> ref = lone_records(n, fl, env, sampled);
    for (unsigned threads : {1u, 3u}) {
      const std::string what = "last item of " + std::to_string(last) +
                               ", " + std::to_string(threads) + " threads";
      sampled.threads = threads;
      expect_same_records(ref, paired_records(n, fl, env, sampled), what);
      sampled.engine = Engine::kSweep;
      const FaultSimResult swept = run_fault_sim(n, fl, env, sampled);
      sampled.engine = Engine::kEvent;
      const FaultSimResult evented = run_fault_sim(n, fl, env, sampled);
      EXPECT_FALSE(evented.trace_fallback) << what;
      EXPECT_EQ(swept.simulated, evented.simulated) << what;
      EXPECT_EQ(swept.detected, evented.detected) << what;
      EXPECT_EQ(swept.detect_cycle, evented.detect_cycle) << what;
    }
  }
}

TEST(FaultSimParallel, PairedSweepMatchesLoneGroupsOnParwanFullList) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  ASSERT_TRUE(st.halted);
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  const EnvFactory env = parwan::make_parwan_env_factory(cpu, st.image);
  FaultSimOptions opt;
  opt.max_cycles = 10000;
  const std::vector<GroupRecord> lone =
      lone_records(cpu.netlist, faults, env, opt);
  for (unsigned threads : {1u, 2u, 3u, 4u}) {
    opt.threads = threads;
    expect_same_records(lone, paired_records(cpu.netlist, faults, env, opt),
                        "parwan, " + std::to_string(threads) + " threads");
  }
}

/// First cycle at which `mutant` (a physically faulted copy of `good`)
/// shows different primary outputs, or -1, simulated with plain logic
/// simulators under the fault simulator's cycle protocol: drive, eval,
/// compare, observe (on the good machine), clock.
std::int64_t mutant_detect_cycle(const nl::Netlist& good,
                                 const nl::Netlist& mutant,
                                 const EnvFactory& env,
                                 std::uint64_t max_cycles) {
  sim::LogicSim gs(good);
  sim::LogicSim ms(mutant);
  const std::unique_ptr<Environment> ge = env();
  const std::unique_ptr<Environment> me = env();
  for (std::uint64_t cycle = 0; cycle < max_cycles; ++cycle) {
    ge->drive(gs, cycle);
    me->drive(ms, cycle);
    gs.eval();
    ms.eval();
    for (const nl::Port& port : good.outputs()) {
      if (gs.read_output(port) != ms.read_output(port)) {
        return static_cast<std::int64_t>(cycle);
      }
    }
    const bool keep_going = ge->observe(gs, cycle);
    gs.step_clock();
    ms.step_clock();
    if (!keep_going) break;
  }
  return -1;
}

// Every BUF keeps a compiled node, so stem and branch faults on BUFs run
// the compiled sweep with fixups at BUF levels, in all four lanes of the
// first item. Each verdict, under both engines, must match a mutant
// netlist whose BUF reads the stuck constant (for a one-input gate, stem
// and branch faults are the same mutant), and the multi-lane sweep must
// still give lone-run records.
TEST(FaultSimParallel, BufFaultsMatchMutantNetlists) {
  std::size_t checked = 0;
  std::size_t detected = 0;
  for (std::uint64_t seed : {3u, 7u, 11u, 19u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const nl::Netlist n = make_random_seq_netlist(seed);
    std::vector<nl::Fault> buf_faults;
    for (nl::GateId g = 0; g < n.size(); ++g) {
      if (n.gate(g).kind != nl::GateKind::kBuf) continue;
      buf_faults.insert(buf_faults.end(),
                        {{g, 0, 0}, {g, 0, 1}, {g, 1, 0}, {g, 1, 1}});
    }
    ASSERT_FALSE(buf_faults.empty());
    // Spread over the first 4 x 63 positions, the BUF faults land in
    // every lane of the first item. Each is inserted after the previous
    // one, so the earlier positions stay put.
    nl::FaultList fl = nl::enumerate_faults(n);
    const std::size_t stride =
        std::max<std::size_t>(1, kSweepLanes * 63 / buf_faults.size());
    std::vector<std::size_t> at;
    std::set<std::size_t> lanes;
    for (std::size_t i = 0; i < buf_faults.size(); ++i) {
      const std::size_t pos = i * stride;
      ASSERT_LE(pos, fl.size());
      fl.faults.insert(fl.faults.begin() + pos, buf_faults[i]);
      fl.class_size.insert(fl.class_size.begin() + pos, 1);
      at.push_back(pos);
      if (pos / 63 < kSweepLanes) lanes.insert(pos / 63);
    }
    fl.total_uncollapsed += buf_faults.size();
    ASSERT_EQ(lanes.size(), kSweepLanes);

    FaultSimOptions opt;
    opt.max_cycles = 400;
    opt.threads = 2;
    const EnvFactory env = hash_env(300);
    for (Engine engine : {Engine::kSweep, Engine::kEvent}) {
      SCOPED_TRACE(engine == Engine::kSweep ? "sweep" : "event");
      opt.engine = engine;
      const FaultSimResult res = run_fault_sim(n, fl, env, opt);
      if (engine == Engine::kEvent) {
        EXPECT_GT(res.trace_bytes, 0u);
        EXPECT_FALSE(res.trace_fallback);
      }
      for (std::size_t i = 0; i < buf_faults.size(); ++i) {
        const nl::Fault& f = buf_faults[i];
        nl::Netlist mutant = n;
        mutant.set_gate_input(f.gate, 0,
                              f.stuck ? mutant.const1() : mutant.const0());
        EXPECT_EQ(res.detect_cycle[at[i]],
                  mutant_detect_cycle(n, mutant, env, opt.max_cycles))
            << "BUF " << f.gate << " pin " << int{f.pin} << " stuck-at "
            << int{f.stuck};
        ++checked;
        detected += res.detected[at[i]];
      }
    }

    const std::vector<GroupRecord> lone = lone_records(n, fl, env, opt);
    for (unsigned threads : {1u, 3u}) {
      opt.threads = threads;
      expect_same_records(lone, paired_records(n, fl, env, opt),
                          "buf faults, " + std::to_string(threads) +
                              " threads");
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_LT(detected, checked) << "no undetected BUF fault was checked";
}

// The environment halts at cycle 12, long before the groups finish: every
// lane of every item stops there together, each with a lone run's record.
TEST(FaultSimParallel, PairedSweepHaltStopsBothLanes) {
  const nl::Netlist n = make_random_seq_netlist(3);
  const nl::FaultList fl = nl::enumerate_faults(n);
  constexpr std::uint64_t kHalt = 12;
  FaultSimOptions opt;
  opt.max_cycles = 400;
  const EnvFactory env = hash_env(kHalt);
  const std::vector<GroupRecord> lone = lone_records(n, fl, env, opt);
  std::size_t halted_items = 0;
  for (std::size_t g = 0; g + kSweepLanes <= lone.size(); g += kSweepLanes) {
    halted_items += std::all_of(
        lone.begin() + g, lone.begin() + g + kSweepLanes,
        [&](const GroupRecord& r) { return r.cycles == kHalt; });
  }
  ASSERT_GT(halted_items, 0u) << "no item ran every lane to the halt";
  for (unsigned threads : {1u, 2u, 3u, 4u}) {
    opt.threads = threads;
    expect_same_records(lone, paired_records(n, fl, env, opt),
                        "halt, " + std::to_string(threads) + " threads");
  }
}

// group_timeout_ms cuts an item at the first watchdog check past its
// bound (cycle 1023 here: drive() naps 40 ms at cycle 1000). Every lane
// shares the cut, and each record is the lone record of a run ending at
// that cycle, marked timed out unless its group was already done.
TEST(FaultSimParallel, PairedSweepGroupTimeoutCutsBothLanes) {
  const nl::Netlist n = make_random_seq_netlist(5);
  const nl::FaultList fl = nl::enumerate_faults(n);
  constexpr std::uint64_t kCut = 1023;
  FaultSimOptions ref;
  ref.max_cycles = kCut;
  std::vector<GroupRecord> lone =
      lone_records(n, fl, hash_env(1'000'000), ref);
  std::size_t cut = 0;
  for (GroupRecord& r : lone) {
    r.timed_out = r.cycles == kCut && !fully_detected(r);
    cut += r.timed_out;
  }
  ASSERT_GE(cut, 2u) << "no group runs into the cut";

  FaultSimOptions opt;
  opt.max_cycles = 100'000;
  opt.group_timeout_ms = 10;
  const EnvFactory env =
      hash_env(1'000'000, 1000, std::chrono::milliseconds(40));
  for (unsigned threads : {1u, 2u}) {
    opt.threads = threads;
    expect_same_records(lone, paired_records(n, fl, env, opt),
                        "timeout, " + std::to_string(threads) + " threads");
  }
}

// The multi-group entry: the sweep runs all four groups in one word, the
// event kernel one after the other. Both give each group's lone record,
// and neither takes an empty or five-group item.
TEST(FaultSimParallel, LaneEntryMatchesLoneRunsUnderBothKernels) {
  const nl::Netlist n = make_random_seq_netlist(4);
  const nl::FaultList fl = nl::enumerate_faults(n);
  FaultSimOptions opt;
  opt.max_cycles = 400;
  const EnvFactory env = hash_env(300);
  const std::vector<GroupRecord> lone = lone_records(n, fl, env, opt);
  ASSERT_GE(lone.size(), 5u);
  const GroupPlan plan(fl, opt);
  const std::array<std::size_t, kSweepLanes> groups = {2, 0, 4, 1};

  GroupSimulator sweep(n, fl, plan, env, opt);
  const std::vector<GroupRecord> swept = sweep.simulate_lanes(groups);
  // The event kernel's work counters count what it evaluated, so its
  // multi-group entry is held to its own lone runs, and its verdicts to
  // the sweep's.
  auto trace = std::make_shared<SharedTraceSource>(n, env, opt.max_cycles,
                                                   std::size_t{0});
  GroupSimulator event(n, fl, plan, env, opt, trace);
  const std::vector<GroupRecord> evented = event.simulate_lanes(groups);
  ASSERT_EQ(swept.size(), kSweepLanes);
  ASSERT_EQ(evented.size(), kSweepLanes);
  for (std::size_t l = 0; l < kSweepLanes; ++l) {
    expect_same_record(lone[groups[l]], swept[l], "sweep lane entry");
    expect_same_record(event.simulate(groups[l]), evented[l],
                       "event lane entry");
    EXPECT_EQ(evented[l].engine_used, GroupEngine::kEvent);
    EXPECT_EQ(evented[l].detect_cycle, lone[groups[l]].detect_cycle);
  }
  const std::array<std::size_t, kSweepLanes + 1> five = {0, 1, 2, 3, 4};
  EXPECT_THROW(sweep.simulate_lanes(five), std::invalid_argument);
  EXPECT_THROW(sweep.simulate_lanes({}), std::invalid_argument);
}

// Four lanes force at most 4 x 63 = 252 distinct gates, inside the
// byte-indexed slot table's 255. Each lane's forces stay in its own
// lane, the table fills to kMaxSlots, and one gate more throws.
TEST(FaultSimParallel, FourLaneInjectionTableTakes252ForcedGates) {
  using Quad = std::uint64_t __attribute__((vector_size(32)));
  using Table = detail::InjectionTableT<Quad>;
  nl::Netlist n;
  const nl::GateId in = n.add_input("in", 1).bits[0];
  std::vector<nl::GateId> gates;
  for (std::size_t i = 0; i <= Table::kMaxSlots; ++i) {
    gates.push_back(n.add_gate(nl::GateKind::kNot, in));
  }
  Table table(n.size());
  for (int lane = 0; lane < 4; ++lane) {
    for (int i = 0; i < 63; ++i) {
      const nl::Fault f{gates[static_cast<std::size_t>(lane * 63 + i)], 0,
                        static_cast<std::uint8_t>(i & 1)};
      table.add(n, f, 64 * lane + i);
    }
  }
  ASSERT_EQ(table.slotted_gates().size(), 252u);
  for (int lane = 0; lane < 4; ++lane) {
    for (int i = 0; i < 63; ++i) {
      const nl::GateId g = gates[static_cast<std::size_t>(lane * 63 + i)];
      const auto& force = table.force_record(table.slot(g));
      const Quad& forced = (i & 1) ? force.set[0] : force.clr[0];
      for (int l = 0; l < 4; ++l) {
        EXPECT_EQ(forced[l], l == lane ? std::uint64_t{1} << i : 0u)
            << "lane " << lane << " fault " << i;
      }
    }
  }
  for (std::size_t k = 252; k < Table::kMaxSlots; ++k) {
    table.add(n, nl::Fault{gates[k], 0, 1}, 0);
  }
  EXPECT_EQ(table.slotted_gates().size(), Table::kMaxSlots);
  EXPECT_THROW(table.add(n, nl::Fault{gates[Table::kMaxSlots], 0, 1}, 0),
               std::length_error);
}

// Resume splits items: journaled groups are seeded, the rest of their
// item is simulated without them, and the journal ends up holding
// lone-run records for every group.
TEST(FaultSimParallel, PairedSweepResumesPairsWithOneJournaledGroup) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  const EnvFactory env = parwan::make_parwan_env_factory(cpu, st.image);
  FaultSimOptions sim;
  sim.max_cycles = 10000;
  sim.sample = 630;  // 10 groups
  const std::vector<GroupRecord> lone =
      lone_records(cpu.netlist, faults, env, sim);
  constexpr std::uint64_t kFp = 0x9a12ed5eedull;
  const std::string path =
      std::string(::testing::TempDir()) + "paired_resume.sbstj";

  for (unsigned threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    std::remove(path.c_str());
    {
      campaign::JournalWriter jw = campaign::JournalWriter::create(
          path, {kFp, lone.size(), faults.size()});
      for (std::size_t g : {0u, 3u, 9u}) jw.add(lone[g]);
    }
    campaign::CampaignOptions opt;
    opt.journal = path;
    opt.sim = sim;
    opt.sim.engine = Engine::kSweep;
    opt.sim.threads = threads;
    const campaign::CampaignResult res =
        campaign::run_campaign(cpu.netlist, faults, env, kFp, opt);
    EXPECT_TRUE(res.resumed);
    EXPECT_EQ(res.seeded_groups, 3u);
    EXPECT_EQ(res.groups_done, lone.size());

    const auto loaded = campaign::load_journal(
        path, {kFp, lone.size(), faults.size()});
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->records.size(), lone.size());
    std::vector<GroupRecord> journaled(lone.size());
    for (const GroupRecord& r : loaded->records) journaled[r.group] = r;
    expect_same_records(lone, journaled, "resumed journal");
  }
}

// Each simulated group of an item is charged an equal share of the
// item's wall time, so the per-group durations of a campaign sum to at
// most its busy time.
TEST(FaultSimParallel, PairedSweepChargesEachGroupAnEqualShare) {
  const nl::Netlist n = make_random_seq_netlist(2);
  const nl::FaultList fl = nl::enumerate_faults(n);
  FaultSimOptions opt;
  opt.engine = Engine::kSweep;
  opt.max_cycles = 2000;
  const EnvFactory env = hash_env(1'000'000);
  const std::vector<GroupRecord> lone = lone_records(n, fl, env, opt);
  for (unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    opt.threads = threads;
    std::map<std::uint64_t, double> ms;
    std::vector<GroupRecord> paired(lone.size());
    opt.on_group = [&](const GroupRecord& rec) { paired[rec.group] = rec; };
    opt.on_group_metric = [&](const GroupRecord& rec, bool seeded,
                              double duration_ms) {
      EXPECT_FALSE(seeded);
      ms[rec.group] = duration_ms;
    };
    const auto t0 = std::chrono::steady_clock::now();
    run_fault_sim(n, fl, env, opt);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    const std::size_t groups = GroupPlan(fl, opt).num_groups();
    ASSERT_EQ(ms.size(), groups);
    ASSERT_GE(groups, 2u);
    double sum = 0;
    for (const auto& [group, d] : ms) {
      EXPECT_GT(d, 0.0) << "group " << group;
      sum += d;
    }
    for (std::uint64_t g = 0; g < groups; ++g) {
      EXPECT_EQ(ms[g], ms[g - g % kSweepLanes]) << "group " << g;
    }
    EXPECT_LE(sum, threads * wall_ms);
    expect_same_records(lone, paired, "timed");
  }
}

}  // namespace
}  // namespace sbst::fault
