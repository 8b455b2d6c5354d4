// Bit-identity contract of the event-driven differential kernel
// (Engine::kEvent): for every netlist, environment, injection kind
// (combinational pin, PI/constant output, DFF D-pin, DFF Q-output),
// sampling, thread count and isolation mode, it must produce
// FaultSimResults bit-identical to the full-sweep kernel
// (Engine::kSweep) — including detect cycles and per-group cycle
// counts, which is what lets journals mix records from both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "core/classify.h"
#include "core/program.h"
#include "fault/comb_faultsim.h"
#include "fault/event_kernel.h"
#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "netlist/fault.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"
#include "plasma/cpu.h"
#include "plasma/testbench.h"

namespace sbst::fault {
namespace {

void expect_identical(const FaultSimResult& a, const FaultSimResult& b,
                      const char* what) {
  EXPECT_EQ(a.detected, b.detected) << what;
  EXPECT_EQ(a.simulated, b.simulated) << what;
  EXPECT_EQ(a.detect_cycle, b.detect_cycle) << what;
  EXPECT_EQ(a.timed_out, b.timed_out) << what;
  EXPECT_EQ(a.quarantined, b.quarantined) << what;
  EXPECT_EQ(a.good_cycles, b.good_cycles) << what;
}

// A combinational mesh with constant gates mixed in, so the fault list
// holds combinational-pin, PI-output and constant-output injections.
nl::Netlist make_comb_netlist() {
  nl::Netlist n;
  const auto& in = n.add_input("in", 16);
  std::vector<nl::GateId> nets(in.bits.begin(), in.bits.end());
  nets.push_back(n.add_gate(nl::GateKind::kConst0));
  nets.push_back(n.add_gate(nl::GateKind::kConst1));
  constexpr nl::GateKind kKinds[] = {nl::GateKind::kXor2, nl::GateKind::kAnd2,
                                     nl::GateKind::kOr2, nl::GateKind::kNand2};
  std::vector<nl::GateId> outs;
  for (std::size_t i = 0; i < 96; ++i) {
    const nl::GateId a = nets[(i * 7 + 3) % nets.size()];
    const nl::GateId b = nets[(i * 13 + 5) % nets.size()];
    const nl::GateId g = n.add_gate(kKinds[i % 4], a, b);
    nets.push_back(g);
    if (i % 3 == 0) outs.push_back(g);
  }
  n.add_output("o", outs);
  return n;
}

// A sequential netlist with enough flip-flops to exercise DFF D-pin and
// Q-output injections, cross-register feedback and divergence that must
// persist across clock edges to reach an output.
nl::Netlist make_seq_netlist() {
  nl::Netlist n;
  const auto& in = n.add_input("in", 8);
  std::vector<nl::GateId> nets(in.bits.begin(), in.bits.end());
  std::vector<nl::GateId> dffs;
  for (std::size_t i = 0; i < 24; ++i) {
    const nl::GateId d = nets[(i * 5 + 1) % nets.size()];
    const nl::GateId q = n.add_dff(d, (i % 3) == 0);
    dffs.push_back(q);
    nets.push_back(q);
    const nl::GateId mix = n.add_gate(
        (i % 2) ? nl::GateKind::kXor2 : nl::GateKind::kNand2, q,
        nets[(i * 11 + 2) % nets.size()]);
    nets.push_back(mix);
  }
  // Feedback: route some mixes back into earlier flip-flop D-pins.
  for (std::size_t i = 0; i < dffs.size(); i += 4) {
    n.set_gate_input(dffs[i], 0, nets[nets.size() - 1 - i]);
  }
  std::vector<nl::GateId> outs;
  for (std::size_t i = 0; i < nets.size(); i += 7) outs.push_back(nets[i]);
  n.add_output("o", outs);
  return n;
}

// Drives the inputs with a cycle-dependent pattern for a fixed number
// of cycles. Deterministic and good-machine-only, like all engine
// environments.
class PatternEnv : public Environment {
 public:
  explicit PatternEnv(std::uint64_t cycles) : cycles_(cycles) {}
  void drive(sim::PortIo& io, std::uint64_t cycle) override {
    io.set_input(io.netlist().input("in"),
                  (cycle * 0x9E37u + 0x79B9u) ^ (cycle >> 3));
  }
  bool observe(const sim::PortIo&, std::uint64_t cycle) override {
    return cycle + 1 < cycles_;
  }

 private:
  std::uint64_t cycles_;
};

EnvFactory pattern_env(std::uint64_t cycles) {
  return [cycles]() { return std::make_unique<PatternEnv>(cycles); };
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(EventKernel, CombinationalIdenticalToSweep) {
  const nl::Netlist n = make_comb_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  ASSERT_GT(fl.size(), 63u) << "need more than one fault group";
  VectorSet vs;
  for (unsigned v = 0; v < 24; ++v) vs.push_back({{"in", v * 0x0AD7u}});

  FaultSimOptions opt;
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = grade_vectors(n, fl, vs, opt);
  opt.engine = Engine::kEvent;
  for (unsigned threads : {1u, 2u, 4u}) {
    opt.threads = threads;
    const FaultSimResult event = grade_vectors(n, fl, vs, opt);
    expect_identical(sweep, event, "comb");
    EXPECT_FALSE(event.trace_fallback);
    EXPECT_GT(event.trace_bytes, 0u);
  }
}

TEST(EventKernel, SequentialDffInjectionsIdenticalToSweep) {
  const nl::Netlist n = make_seq_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  ASSERT_GT(fl.size(), 63u) << "need more than one fault group";
  bool has_dff_d = false;
  bool has_dff_q = false;
  for (const nl::Fault& f : fl.faults) {
    if (n.gate(f.gate).kind == nl::GateKind::kDff) {
      (f.pin == 0 ? has_dff_q : has_dff_d) = true;
    }
  }
  ASSERT_TRUE(has_dff_d) << "fault list must include DFF D-pin faults";
  ASSERT_TRUE(has_dff_q) << "fault list must include DFF Q-output faults";

  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = run_fault_sim(n, fl, pattern_env(500), opt);
  opt.engine = Engine::kEvent;
  for (unsigned threads : {1u, 2u, 4u}) {
    opt.threads = threads;
    const FaultSimResult event = run_fault_sim(n, fl, pattern_env(500), opt);
    expect_identical(sweep, event, "sequential");
  }
}

TEST(EventKernel, SampledRunIdenticalToSweep) {
  const nl::Netlist n = make_seq_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.sample = fl.size() / 2;
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = run_fault_sim(n, fl, pattern_env(300), opt);
  opt.engine = Engine::kEvent;
  const FaultSimResult event = run_fault_sim(n, fl, pattern_env(300), opt);
  expect_identical(sweep, event, "sampled");
}

TEST(EventKernel, ParwanSelfTestIdenticalToSweep) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  ASSERT_TRUE(st.halted);
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  FaultSimOptions opt;
  opt.max_cycles = 10000;
  opt.sample = 630;
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = run_fault_sim(
      cpu.netlist, faults, parwan::make_parwan_env_factory(cpu, st.image),
      opt);
  opt.engine = Engine::kEvent;
  for (unsigned threads : {1u, 2u, 4u}) {
    opt.threads = threads;
    const FaultSimResult event = run_fault_sim(
        cpu.netlist, faults, parwan::make_parwan_env_factory(cpu, st.image),
        opt);
    expect_identical(sweep, event, "parwan sbst");
  }
}

TEST(EventKernel, PlasmaPhaseABSampledIdenticalToSweep) {
  const plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const core::SelfTestProgram p =
      core::build_phase_ab(core::classify_plasma(cpu));
  ASSERT_TRUE(p.halted);
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  FaultSimOptions opt;
  opt.max_cycles = 1'000'000;
  opt.sample = 315;  // 5 groups keeps the sweep reference affordable
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = run_fault_sim(
      cpu.netlist, faults, plasma::make_cpu_env_factory(cpu, p.image), opt);
  opt.engine = Engine::kEvent;
  for (unsigned threads : {1u, 2u}) {
    opt.threads = threads;
    const FaultSimResult event = run_fault_sim(
        cpu.netlist, faults, plasma::make_cpu_env_factory(cpu, p.image), opt);
    expect_identical(sweep, event, "plasma phase ab");
    EXPECT_FALSE(event.trace_fallback);
  }
  // The entire point of the differential kernel: far fewer gate
  // evaluations for the same bit-identical verdicts. The committed
  // benchmark (BENCH_event_driven.json) tracks the precise factor; this
  // guards against regressions that quietly destroy the sparsity.
  opt.threads = 1;
  const FaultSimResult event = run_fault_sim(
      cpu.netlist, faults, plasma::make_cpu_env_factory(cpu, p.image), opt);
  ASSERT_GT(event.gates_evaluated, 0u);
  EXPECT_GE(sweep.gates_evaluated, 5 * event.gates_evaluated)
      << "event kernel lost its >=5x activity reduction";
}

TEST(EventKernel, GroupTimeoutBoundsIdenticalWhenNothingTimesOut) {
  // Clock bounds enabled (watchdog active, trace recording bounded by
  // the group timeout) but generous enough that nothing actually trips:
  // results must stay bit-identical, with no sweep fallback.
  const nl::Netlist n = make_seq_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.threads = 1;
  opt.group_timeout_ms = 60'000;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = run_fault_sim(n, fl, pattern_env(400), opt);
  opt.engine = Engine::kEvent;
  const FaultSimResult event = run_fault_sim(n, fl, pattern_env(400), opt);
  expect_identical(sweep, event, "timeout bounds");
  EXPECT_FALSE(event.trace_fallback);
}

TEST(EventKernel, TraceMemoryCapFallsBackToSweep) {
  const nl::Netlist n = make_seq_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);

  // Unit level: a cap smaller than one plane aborts recording.
  EXPECT_EQ(record_good_trace(n, pattern_env(100), 4096, 8), nullptr);
  SharedTraceSource source(n, pattern_env(100), 4096, 8);
  EXPECT_EQ(source.get(), nullptr);
  EXPECT_TRUE(source.fell_back());

  // Engine level: a run whose trace exceeds trace_mem_mb completes on
  // the sweep kernel with identical results and reports the fallback.
  const std::size_t wpc = (n.size() + 63) / 64;
  const std::uint64_t cycles =
      (std::size_t{1} << 20) / (wpc * sizeof(sim::Word)) + 64;
  FaultSimOptions opt;
  opt.max_cycles = cycles + 64;
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = run_fault_sim(n, fl, pattern_env(cycles), opt);
  opt.engine = Engine::kEvent;
  opt.trace_mem_mb = 1;
  const FaultSimResult event = run_fault_sim(n, fl, pattern_env(cycles), opt);
  expect_identical(sweep, event, "mem cap fallback");
  EXPECT_TRUE(event.trace_fallback);
  EXPECT_EQ(event.trace_bytes, 0u);
}

TEST(EventKernel, IsolatedCampaignIdenticalAcrossEngines) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  const auto env = parwan::make_parwan_env_factory(cpu, st.image);
  constexpr std::uint64_t kFp = 0xe4e47dead0001ull;

  campaign::CampaignOptions base;
  base.sim.max_cycles = 10000;
  base.sim.sample = 630;
  base.sim.threads = 1;

  campaign::CampaignOptions sweep_opt = base;
  sweep_opt.sim.engine = Engine::kSweep;
  const campaign::CampaignResult sweep =
      campaign::run_campaign(cpu.netlist, faults, env, kFp, sweep_opt);

  campaign::CampaignOptions iso_opt = base;
  iso_opt.sim.engine = Engine::kEvent;
  iso_opt.isolate = true;
  iso_opt.sim.threads = 2;
  const campaign::CampaignResult iso =
      campaign::run_campaign(cpu.netlist, faults, env, kFp, iso_opt);
  expect_identical(sweep.result, iso.result, "isolated event campaign");
  EXPECT_EQ(iso.result.groups_done, iso.result.groups_total);
}

TEST(EventKernel, JournalResumeMixesEngines) {
  // Records journaled by one engine must seed a resume under the other:
  // start a campaign on the sweep kernel, drain it early, resume on the
  // event kernel — final result bit-identical to an uninterrupted run.
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  const auto env = parwan::make_parwan_env_factory(cpu, st.image);
  constexpr std::uint64_t kFp = 0xe4e47dead0002ull;

  campaign::CampaignOptions base;
  base.sim.max_cycles = 10000;
  base.sim.sample = 630;
  base.sim.threads = 1;

  campaign::CampaignOptions full = base;
  full.sim.engine = Engine::kEvent;
  const campaign::CampaignResult uninterrupted =
      campaign::run_campaign(cpu.netlist, faults, env, kFp, full);

  const std::string journal = temp_path("event_mixed_resume.sbstj");
  std::remove(journal.c_str());

  std::atomic<bool> stop{false};
  campaign::CampaignOptions first = base;
  first.journal = journal;
  first.sim.engine = Engine::kSweep;
  first.sim.cancel = &stop;
  first.sim.progress = [&stop](const fault::Progress& p) {
    if (p.done >= 3) stop.store(true);
  };
  const campaign::CampaignResult partial =
      campaign::run_campaign(cpu.netlist, faults, env, kFp, first);
  ASSERT_TRUE(partial.interrupted);
  ASSERT_LT(partial.groups_done, partial.groups_total);
  ASSERT_GE(partial.groups_done, 3u);

  campaign::CampaignOptions second = base;
  second.journal = journal;
  second.sim.engine = Engine::kEvent;
  const campaign::CampaignResult resumed =
      campaign::run_campaign(cpu.netlist, faults, env, kFp, second);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.groups_done, resumed.groups_total);
  expect_identical(uninterrupted.result, resumed.result,
                   "sweep-journal resumed under event engine");

  // And the reverse direction: event-journaled records seed a sweep run.
  campaign::CampaignOptions third = base;
  third.journal = journal;
  third.sim.engine = Engine::kSweep;
  const campaign::CampaignResult reread =
      campaign::run_campaign(cpu.netlist, faults, env, kFp, third);
  EXPECT_TRUE(reread.resumed);
  EXPECT_EQ(reread.seeded_groups, reread.groups_total);
  expect_identical(uninterrupted.result, reread.result,
                   "event-journal reread under sweep engine");
  std::remove(journal.c_str());
}

TEST(EventKernel, FullySeededResumeRecordsNoTrace) {
  // A campaign whose journal already resolves every group must not pay
  // for good-trace recording (SharedTraceSource is lazy).
  const nl::Netlist n = make_seq_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  std::vector<GroupRecord> records;
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.threads = 1;
  opt.engine = Engine::kEvent;
  opt.on_group = [&records](const GroupRecord& rec) {
    records.push_back(rec);
  };
  const FaultSimResult first = run_fault_sim(n, fl, pattern_env(300), opt);
  EXPECT_GT(first.trace_bytes, 0u);

  FaultSimOptions seeded = opt;
  seeded.on_group = nullptr;
  seeded.seed_group = [&records](std::uint64_t group, GroupRecord* out) {
    *out = records.at(group);
    return true;
  };
  const FaultSimResult second =
      run_fault_sim(n, fl, pattern_env(300), seeded);
  expect_identical(first, second, "fully seeded");
  EXPECT_EQ(second.trace_bytes, 0u) << "no group simulated => no recording";
}

// --- excitation-LUT gate: seeded random designs ------------------------------

// A seeded random sequential design: every gate kind (NOT and BUF leave
// in[1]/in[2] unconnected, two-input gates leave in[2]), constants and
// inputs as fanins, and flip-flops whose D pins are rewired to random
// combinational nets for feedback.
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
  // Half the fanins come from the most recent nets, so cones get deep.
  const auto pick = [&] {
    const std::size_t k = nets.size();
    return (rng() & 1) ? nets[k - 1 - rng() % std::min<std::size_t>(k, 12)]
                       : nets[rng() % k];
  };
  std::vector<nl::GateId> comb;
  for (std::size_t i = 0; i < 140; ++i) {
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
  for (std::size_t i = 0; i < 14; ++i) outs.push_back(comb[rng() % comb.size()]);
  outs.push_back(dffs[0]);
  n.add_output("o", outs);
  return n;
}

// Group 0 packs, in one group of 63, every case the excitation LUT must
// get right; the rest of the collapsed list follows in later groups.
//  * chains: a stem fault on a combinational gate U next to a fault on
//    a combinational consumer S of U, so U's divergence reaches S's
//    site in mid-wavefront, on cycles where S's own fault may be
//    unexcited;
//  * sites on NOT gates (no in[1]/in[2]) and on the pins of two-input
//    gates (no in[2]);
//  * DFF D-pin and Q-output forces, and source-output forces.
nl::FaultList make_lut_fault_list(const nl::Netlist& n, std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5bd1e995u);
  const auto is_comb = [&](nl::GateId g) {
    const nl::GateKind k = n.gate(g).kind;
    return k != nl::GateKind::kInput && k != nl::GateKind::kConst0 &&
           k != nl::GateKind::kConst1 && k != nl::GateKind::kDff &&
           k != nl::GateKind::kBuf;  // BUFs carry no faults (fault.h)
  };
  std::vector<nl::Fault> group;
  const auto add = [&](nl::GateId g, int pin, int stuck) {
    const nl::Fault f{g, static_cast<std::uint8_t>(pin),
                      static_cast<std::uint8_t>(stuck)};
    if (group.size() < 63 &&
        std::find(group.begin(), group.end(), f) == group.end()) {
      group.push_back(f);
    }
  };
  int chains = 0, nots = 0, two_input = 0, dffs = 0;
  for (nl::GateId s = 0; s < n.size(); ++s) {
    const nl::Gate& gate = n.gate(s);
    if (gate.kind == nl::GateKind::kDff && dffs < 4) {
      add(s, 1, dffs & 1);
      add(s, 1, ~dffs & 1);
      add(s, 0, dffs & 1);
      add(s, 0, ~dffs & 1);
      ++dffs;
    }
    if (!is_comb(s)) continue;
    const int arity = nl::fanin_count(gate.kind);
    if (chains < 8) {
      for (int p = 0; p < arity; ++p) {
        const nl::GateId u = gate.in[static_cast<std::size_t>(p)];
        if (!is_comb(u)) continue;
        add(u, 0, chains & 1);
        add(s, p + 1, (chains >> 1) & 1);
        add(s, 0, ~chains & 1);
        ++chains;
        break;
      }
    }
    if (gate.kind == nl::GateKind::kNot && nots < 4) {
      add(s, 0, nots & 1);
      add(s, 1, ~nots & 1);
      ++nots;
    }
    if (arity == 2 && two_input < 4) {
      add(s, 2, two_input & 1);
      ++two_input;
    }
  }
  const nl::Port& in = n.input("in");
  add(in.bits[0], 0, 0);
  add(in.bits[1], 0, 1);
  add(n.const0(), 0, 1);

  nl::FaultList rest = nl::enumerate_faults(n);
  std::shuffle(rest.faults.begin(), rest.faults.end(), rng);
  for (const nl::Fault& f : rest.faults) add(f.gate, f.pin, f.stuck);

  nl::FaultList fl;
  fl.faults = group;
  for (const nl::Fault& f : rest.faults) {
    if (std::find(group.begin(), group.end(), f) == group.end()) {
      fl.faults.push_back(f);
    }
  }
  fl.class_size.assign(fl.faults.size(), 1);
  fl.total_uncollapsed = fl.faults.size();
  return fl;
}

// Asserts that group 0 of `fl` holds every case make_lut_fault_list
// promises, so a generator change cannot quietly hollow out the test.
void expect_group0_covers_lut_cases(const nl::Netlist& n,
                                    const nl::FaultList& fl) {
  ASSERT_GE(fl.size(), 63u);
  const std::vector<nl::Fault> g0(fl.faults.begin(), fl.faults.begin() + 63);
  const auto has = [&](auto pred) {
    return std::any_of(g0.begin(), g0.end(), pred);
  };
  const auto kind = [&](nl::GateId g) { return n.gate(g).kind; };
  // A combinational stem fault on U and a fault on a combinational
  // consumer S of U: U only diverges once the wavefront evaluates it.
  const auto comb = [&](nl::GateId g) {
    return nl::fanin_count(kind(g)) != 0 && kind(g) != nl::GateKind::kDff;
  };
  EXPECT_TRUE(has([&](const nl::Fault& s) {
    const nl::Gate& sg = n.gate(s.gate);
    return comb(s.gate) && has([&](const nl::Fault& u) {
             return u.pin == 0 && u.gate != s.gate && comb(u.gate) &&
                    (sg.in[0] == u.gate || sg.in[1] == u.gate ||
                     sg.in[2] == u.gate);
           });
  })) << "no fault whose divergence feeds another fault's site";
  EXPECT_TRUE(has([&](const nl::Fault& f) {
    return kind(f.gate) == nl::GateKind::kNot;
  })) << "no site with in[1]/in[2] missing";
  EXPECT_TRUE(has([&](const nl::Fault& f) {
    return kind(f.gate) == nl::GateKind::kDff && f.pin == 1;
  })) << "no DFF D-pin force";
  EXPECT_TRUE(has([&](const nl::Fault& f) {
    return kind(f.gate) == nl::GateKind::kDff && f.pin == 0;
  })) << "no DFF Q force";
}

// Hash-driven stimulus: every input bit toggles unpredictably.
class HashEnv : public Environment {
 public:
  explicit HashEnv(std::uint64_t cycles) : cycles_(cycles) {}
  void drive(sim::PortIo& io, std::uint64_t cycle) override {
    std::uint64_t z = (cycle + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 31)) * 0xBF58476D1CE4E5B9ull;
    io.set_input(io.netlist().input("in"), z ^ (z >> 29));
  }
  bool observe(const sim::PortIo&, std::uint64_t cycle) override {
    return cycle + 1 < cycles_;
  }

 private:
  std::uint64_t cycles_;
};

EnvFactory hash_env(std::uint64_t cycles) {
  return [cycles]() { return std::make_unique<HashEnv>(cycles); };
}

// Records of one run, indexed by group.
std::vector<GroupRecord> run_records(const nl::Netlist& n,
                                     const nl::FaultList& fl,
                                     FaultSimOptions opt) {
  std::vector<GroupRecord> recs((fl.size() + 62) / 63);
  opt.on_group = [&recs](const GroupRecord& rec) { recs.at(rec.group) = rec; };
  run_fault_sim(n, fl, hash_env(400), opt);
  return recs;
}

void expect_same_records(const std::vector<GroupRecord>& want,
                         const std::vector<GroupRecord>& got,
                         const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t g = 0; g < want.size(); ++g) {
    EXPECT_EQ(want[g].group, got[g].group) << what << " group " << g;
    EXPECT_EQ(want[g].detected_mask, got[g].detected_mask)
        << what << " group " << g;
    EXPECT_EQ(want[g].detect_cycle, got[g].detect_cycle)
        << what << " group " << g;
    EXPECT_EQ(want[g].cycles, got[g].cycles) << what << " group " << g;
  }
}

constexpr std::uint64_t kLutSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};

TEST(EventKernel, LutGateRandomNetlistsIdenticalToSweep) {
  for (std::uint64_t seed : kLutSeeds) {
    const nl::Netlist n = make_random_seq_netlist(seed);
    const nl::FaultList fl = make_lut_fault_list(n, seed);
    expect_group0_covers_lut_cases(n, fl);
    FaultSimOptions opt;
    opt.max_cycles = 1000;
    opt.threads = 1;
    opt.engine = Engine::kSweep;
    const std::vector<GroupRecord> sweep = run_records(n, fl, opt);
    std::uint64_t detected = 0;
    for (const GroupRecord& r : sweep) detected += std::popcount(r.detected_mask);
    EXPECT_GT(detected, 0u) << "seed " << seed << " detects nothing";
    opt.engine = Engine::kEvent;
    for (unsigned threads : {1u, 2u, 4u}) {
      opt.threads = threads;
      expect_same_records(sweep, run_records(n, fl, opt),
                          "seed " + std::to_string(seed) + ", " +
                              std::to_string(threads) + " threads");
    }
  }
}

TEST(EventKernel, LutGateRandomNetlistsIdenticalUnderIsolation) {
  for (std::uint64_t seed : {kLutSeeds[0], kLutSeeds[3], kLutSeeds[6]}) {
    const nl::Netlist n = make_random_seq_netlist(seed);
    const nl::FaultList fl = make_lut_fault_list(n, seed);
    FaultSimOptions sweep_opt;
    sweep_opt.max_cycles = 1000;
    sweep_opt.threads = 1;
    sweep_opt.engine = Engine::kSweep;
    const std::vector<GroupRecord> sweep = run_records(n, fl, sweep_opt);

    const std::string journal = temp_path("lut_isolated.sbstj");
    std::remove(journal.c_str());
    campaign::CampaignOptions iso;
    iso.journal = journal;
    iso.sim.max_cycles = 1000;
    iso.sim.engine = Engine::kEvent;
    iso.isolate = true;
    iso.sim.threads = 2;
    const campaign::CampaignResult res = campaign::run_campaign(
        n, fl, hash_env(400), 0x1a7e0000u + seed, iso);
    EXPECT_EQ(res.groups_done, res.groups_total);
    const std::optional<campaign::JournalLoad> load =
        campaign::load_journal_raw(journal);
    ASSERT_TRUE(load.has_value());
    expect_same_records(sweep, campaign::winning_records(load->records),
                        "isolated, seed " + std::to_string(seed));
    std::remove(journal.c_str());
  }
}

// --- attribution: trace recording is charged to no group -------------------

// Sleeps on the first drive() of the whole campaign (shared flag), i.e.
// inside good-trace recording under the event engine.
class SlowFirstDriveEnv : public PatternEnv {
 public:
  SlowFirstDriveEnv(std::uint64_t cycles, std::atomic<bool>* slept)
      : PatternEnv(cycles), slept_(slept) {}
  void drive(sim::PortIo& io, std::uint64_t cycle) override {
    if (!slept_->exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    PatternEnv::drive(io, cycle);
  }

 private:
  std::atomic<bool>* slept_;
};

TEST(EventKernel, TraceRecordingChargedToNoGroup) {
  const nl::Netlist n = make_random_seq_netlist(1);
  const nl::FaultList fl = nl::enumerate_faults(n);
  ASSERT_GT(fl.size(), 63u * 4) << "need a group for every worker";
  for (unsigned threads : {1u, 4u}) {
    std::atomic<bool> slept{false};
    const EnvFactory env = [&slept]() {
      return std::make_unique<SlowFirstDriveEnv>(200, &slept);
    };
    FaultSimOptions opt;
    opt.max_cycles = 4096;
    opt.threads = threads;
    opt.engine = Engine::kEvent;
    std::vector<double> durations;
    opt.on_group_metric = [&durations](const GroupRecord&, bool seeded,
                                       double ms) {
      EXPECT_FALSE(seeded);
      durations.push_back(ms);
    };
    const FaultSimResult res = run_fault_sim(n, fl, env, opt);
    EXPECT_TRUE(slept.load()) << "recording never drove the environment";
    EXPECT_GT(res.trace_bytes, 0u);
    ASSERT_EQ(durations.size(), (fl.size() + 62) / 63);
    for (double ms : durations) {
      EXPECT_LT(ms, 100.0) << threads << " threads: a group was charged "
                              "for good-trace recording";
    }
  }

  // The same contract one layer down: GroupSimulator's own clock
  // (KernelStats::eval_ns) starts after the trace fetch.
  std::atomic<bool> slept{false};
  const EnvFactory env = [&slept]() {
    return std::make_unique<SlowFirstDriveEnv>(200, &slept);
  };
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  const GroupPlan plan(fl, opt);
  auto source = std::make_shared<SharedTraceSource>(n, env, opt.max_cycles, 0);
  GroupSimulator sim(n, fl, plan, env, opt, source);
  sim.simulate(0);
  EXPECT_TRUE(slept.load());
  EXPECT_LT(sim.stats().eval_ns, 100'000'000u)
      << "GroupSimulator charged the trace recording to group 0";
}

}  // namespace
}  // namespace sbst::fault
