// Differential verification of the netlist compiler (nl::compile):
// the compiled SoA program must be bit-identical to the interpreted
// per-gate reference on every net of every netlist — that is the
// contract that lets the logic simulator and the fault-simulation sweep
// run on the compiled program. The heavy hammer here is a 10k-netlist random fuzz
// (same splitmix64 idiom as the co-sim fuzzer) over all gate kinds,
// BUF chains, constants, MUXes and flip-flops, run for several clock
// cycles per netlist. Alongside it: unit tests for the lowering rules
// (one node per combinational gate, BUF as AND(a, a), constants as
// plain slots, dangling pins reading 0) and for the node program's
// per-op tallies on random and shipped netlists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/faultsim.h"
#include "netlist/compiled.h"
#include "netlist/fault.h"
#include "netlist/netlist.h"
#include "parwan/cpu.h"
#include "plasma/cpu.h"
#include "sim/logicsim.h"

namespace sbst::nl {
namespace {

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// A random netlist drawing from every combinational kind plus DFFs and
/// constants, with BUF chains over-represented so the AND(a, a) lowering
/// always has work. Acyclic by construction (fanins only reference earlier
/// nets; DFF feedback is rewired afterwards through registered state).
Netlist random_netlist(std::uint64_t seed) {
  std::uint64_t s = seed;
  Netlist n;
  const int width = 2 + static_cast<int>(splitmix64(s) % 7);  // 2..8
  const Port in = n.add_input("in", width);
  std::vector<GateId> nets(in.bits.begin(), in.bits.end());
  nets.push_back(n.add_gate(GateKind::kConst0));
  nets.push_back(n.add_gate(GateKind::kConst1));

  constexpr GateKind kComb[] = {
      GateKind::kAnd2, GateKind::kOr2,   GateKind::kNand2, GateKind::kNor2,
      GateKind::kXor2, GateKind::kXnor2, GateKind::kNot,   GateKind::kBuf,
      GateKind::kBuf,  GateKind::kMux2};  // kBuf twice: bias toward chains
  std::vector<GateId> dffs;
  const std::size_t gates = 8 + splitmix64(s) % 48;
  for (std::size_t i = 0; i < gates; ++i) {
    const auto pick = [&]() { return nets[splitmix64(s) % nets.size()]; };
    if (splitmix64(s) % 5 == 0) {
      const GateId q = n.add_dff(pick(), (splitmix64(s) & 1) != 0);
      dffs.push_back(q);
      nets.push_back(q);
      continue;
    }
    const GateKind k = kComb[splitmix64(s) % (sizeof(kComb) / sizeof(*kComb))];
    GateId g;
    if (k == GateKind::kNot || k == GateKind::kBuf) {
      g = n.add_gate(k, pick());
    } else if (k == GateKind::kMux2) {
      g = n.add_gate(k, pick(), pick(), pick());
    } else {
      g = n.add_gate(k, pick(), pick());
    }
    nets.push_back(g);
  }
  // DFF feedback: some D-pins re-point at late nets (registered state
  // breaks any comb cycle this could create).
  for (std::size_t i = 0; i < dffs.size(); i += 2) {
    n.set_gate_input(dffs[i], 0, nets[nets.size() - 1 - (i % 5)]);
  }
  // Outputs: a spread of nets, BUFs and BUF-fed gates among them.
  std::vector<GateId> outs;
  for (std::size_t i = 0; i < nets.size(); i += 1 + splitmix64(s) % 4) {
    outs.push_back(nets[i]);
  }
  if (outs.empty()) outs.push_back(nets.back());
  n.add_output("o", outs);
  return n;
}

/// Index of gate g's node in the program; throws (failing the test) if
/// it has none.
std::uint32_t node_of(const CompiledNetlist& cn, GateId g) {
  const auto it = std::find(cn.node_gate.begin(), cn.node_gate.end(), g);
  if (it == cn.node_gate.end()) {
    throw std::runtime_error("gate " + std::to_string(g) + " has no node");
  }
  return static_cast<std::uint32_t>(it - cn.node_gate.begin());
}

/// The run containing node `node`; throws if none does.
const CompiledRun& run_of(const CompiledNetlist& cn, std::uint32_t node) {
  const auto it = std::find_if(
      cn.runs.begin(), cn.runs.end(), [node](const CompiledRun& r) {
        return r.begin <= node && node < r.end;
      });
  if (it == cn.runs.end()) {
    throw std::runtime_error("node " + std::to_string(node) + " in no run");
  }
  return *it;
}

/// Drives nothing (inputs stay 0) and stops after four cycles.
class IdleEnv final : public fault::Environment {
 public:
  void drive(sim::PortIo&, std::uint64_t) override {}
  bool observe(const sim::PortIo&, std::uint64_t cycle) override {
    return cycle + 1 < 4;
  }
};

TEST(CompiledNetlist, FuzzTenThousandRandomNetlistsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 10'000; ++seed) {
    const Netlist n = random_netlist(seed);
    sim::LogicSim sim(n);
    std::uint64_t s = seed ^ 0xC0FFEEull;
    const int cycles = 2 + static_cast<int>(s % 3);
    for (int cycle = 0; cycle < cycles; ++cycle) {
      sim.set_input(n.input("in"), splitmix64(s));
      sim.eval_reference();
      const std::vector<sim::Word> ref = sim.values();
      sim.eval();
      for (GateId g = 0; g < n.size(); ++g) {
        ASSERT_EQ(sim.word(g), ref[g])
            << "seed " << seed << " cycle " << cycle << " gate " << g << ":"
            << gate_kind_name(n.gate(g).kind);
      }
      sim.step_clock();
    }
  }
}

TEST(CompiledNetlist, BufChainsKeepOneNodePerBuf) {
  Netlist n;
  const Port in = n.add_input("in", 2);
  const GateId root = n.add_gate(GateKind::kAnd2, in.bits[0], in.bits[1]);
  const GateId b1 = n.add_gate(GateKind::kBuf, root);
  const GateId b2 = n.add_gate(GateKind::kBuf, b1);
  const GateId user = n.add_gate(GateKind::kXor2, b2, in.bits[0]);
  n.add_output("o", {user});

  // Each BUF is an AND(a, a) node of its own reading its direct driver.
  const auto cn = compile(n);
  EXPECT_EQ(cn->num_nodes(), 4u);
  const std::uint32_t n1 = node_of(*cn, b1);
  const std::uint32_t n2 = node_of(*cn, b2);
  EXPECT_EQ(cn->node_in0[n1], root);
  EXPECT_EQ(cn->node_in1[n1], root);
  EXPECT_EQ(cn->node_in0[n2], b1);
  EXPECT_EQ(cn->node_in1[n2], b1);
  EXPECT_EQ(run_of(*cn, n1).op, CompiledOp::kAnd);
  EXPECT_FALSE(run_of(*cn, n1).invert);
  EXPECT_EQ(cn->node_in0[node_of(*cn, user)], b2);

  sim::LogicSim sim(n);
  for (std::uint64_t x = 0; x < 4; ++x) {
    sim.set_input(n.input("in"), x);
    sim.eval();
    EXPECT_EQ(sim.word(b1), sim.word(root));
    EXPECT_EQ(sim.word(b2), sim.word(root));
    EXPECT_EQ(sim.word(user), sim.word(root) ^ sim.word(in.bits[0]));
  }
}

TEST(CompiledNetlist, PrimaryOutputBufIsMaterializedNotFolded) {
  Netlist n;
  const Port in = n.add_input("in", 2);
  const GateId root = n.add_gate(GateKind::kOr2, in.bits[0], in.bits[1]);
  const GateId po_buf = n.add_gate(GateKind::kBuf, root);
  n.add_output("o", {po_buf});

  // A PO-bit BUF is lowered like any other BUF: AND(a, a), no inversion.
  const auto cn = compile(n);
  const std::uint32_t node = node_of(*cn, po_buf);
  EXPECT_EQ(cn->node_in0[node], root);
  EXPECT_EQ(cn->node_in1[node], root);
  EXPECT_EQ(run_of(*cn, node).op, CompiledOp::kAnd);
  EXPECT_FALSE(run_of(*cn, node).invert);

  sim::LogicSim sim(n);
  sim.set_input(n.input("in"), 2);
  sim.eval();
  EXPECT_EQ(sim.word(po_buf), sim.word(root));
}

TEST(CompiledNetlist, ConstantsAliasButNeverPropagate) {
  Netlist n;
  const Port in = n.add_input("in", 1);
  const GateId c1 = n.add_gate(GateKind::kConst1);
  const GateId anded = n.add_gate(GateKind::kAnd2, in.bits[0], c1);
  n.add_output("o", {anded});

  // No constant propagation: the AND keeps its compiled node (its
  // output stem carries injectable faults), the constant stays a plain
  // value slot.
  const auto cn = compile(n);
  EXPECT_EQ(cn->node_in1[node_of(*cn, anded)], c1);
  EXPECT_EQ(std::count(cn->node_gate.begin(), cn->node_gate.end(), c1), 0);

  sim::LogicSim sim(n);
  sim.set_input(n.input("in"), 1);
  sim.eval();
  EXPECT_EQ(sim.word(anded), sim::kAllOnes);
}

// A BUF whose input was never connected reads the always-zero slot:
// under the compiled program, under the interpreted reference and in
// the fault sweep, where stuck-at-1 on it is detected at once and
// stuck-at-0 never.
TEST(CompiledNetlist, DanglingBufReadsZero) {
  Netlist n;
  const Port in = n.add_input("in", 1);
  const GateId dangling = n.add_gate(GateKind::kBuf);  // in0 = kNoGate
  n.add_output("o", {dangling, in.bits[0]});
  const auto cn = compile(n);
  EXPECT_EQ(cn->node_in0[node_of(*cn, dangling)], cn->zero_slot);

  sim::LogicSim sim(n);
  sim.set_input(n.input("in"), 1);
  sim.eval();
  EXPECT_EQ(sim.word(dangling), 0u);
  sim.eval_reference();
  EXPECT_EQ(sim.word(dangling), 0u);

  FaultList fl;
  fl.faults = {{dangling, 0, 0}, {dangling, 0, 1}};
  fl.class_size = {1, 1};
  fl.total_uncollapsed = 2;
  fault::FaultSimOptions opt;
  opt.engine = fault::Engine::kSweep;
  opt.max_cycles = 4;
  opt.threads = 1;
  const fault::FaultSimResult res = fault::run_fault_sim(
      n, fl, [] { return std::make_unique<IdleEnv>(); }, opt);
  EXPECT_EQ(res.detect_cycle[0], -1);
  EXPECT_EQ(res.detect_cycle[1], 0);
}

TEST(CompiledNetlist, ZeroSlotStaysZeroAcrossEvaluation) {
  const Netlist n = random_netlist(42);
  sim::LogicSim sim(n);
  sim.set_input(n.input("in"), ~0ull);
  sim.eval();
  ASSERT_EQ(sim.values().size(), n.size() + 1);
  EXPECT_EQ(sim.values()[sim.compiled().zero_slot], 0u);
}

// One node per combinational gate: the runs partition the node array in
// execution order, the node count is the comb-order length, and the
// per-op run tallies equal the op_class tallies of the original gates.
// This is what makes the sweep's work counters exact node counts.
void expect_one_node_per_comb_gate(const Netlist& n) {
  const auto cn = compile(n);
  ASSERT_EQ(cn->num_nodes(), cn->lv.comb_order.size());
  std::uint64_t by_op[kNumCompiledOps] = {0, 0, 0, 0};
  std::uint32_t next = 0;
  for (const CompiledRun& r : cn->runs) {
    EXPECT_EQ(r.begin, next);
    EXPECT_LE(r.begin, r.end);
    by_op[static_cast<std::size_t>(r.op)] += r.end - r.begin;
    next = r.end;
  }
  EXPECT_EQ(next, cn->num_nodes());
  std::uint64_t by_class[kNumCompiledOps] = {0, 0, 0, 0};
  for (GateId g : cn->lv.comb_order) {
    ++by_class[static_cast<std::size_t>(op_class(n.gate(g).kind))];
  }
  for (int op = 0; op < kNumCompiledOps; ++op) {
    EXPECT_EQ(by_op[op], by_class[op]) << "op " << op;
  }
}

TEST(CompiledNetlist, PerKindNodeTalliesSumToNodeCount) {
  for (std::uint64_t seed : {7u, 42u, 1234u}) {
    SCOPED_TRACE(seed);
    expect_one_node_per_comb_gate(random_netlist(seed));
  }
  expect_one_node_per_comb_gate(plasma::build_plasma_cpu().netlist);
  expect_one_node_per_comb_gate(parwan::build_parwan_cpu().netlist);
}

}  // namespace
}  // namespace sbst::nl
