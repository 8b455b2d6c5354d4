// One-time netlist compiler: lowers a levelized netlist into a flat
// structure-of-arrays program for the simulation kernels.
//
// The interpreted kernels chase a 16-byte Gate AoS record per evaluation
// and branch through a 13-way GateKind switch. The compiled form removes
// both costs:
//
//   * gates are sorted level-major into per-(level, base-op) runs, so the
//     inner loop over a run is branch-free (no per-gate switch, no Gate
//     loads — three contiguous u32 fanin streams and one output stream);
//   * NAND/NOR/XNOR/NOT fold into the base AND/OR/XOR ops plus one
//     precomputed output-inversion word per run ((a op b) ^ inv);
//   * every combinational gate keeps a node of its own; BUF lowers to
//     AND(a, a), so fault injection can force any gate's output slot and
//     every sweep runs this one program. Constant gates are aliases of
//     themselves — they are never re-evaluated and never
//     constant-propagated (output-stem faults on constants are forced per
//     group by the injection layer, which aggressive folding would break).
//
// Values stay indexed by original GateId (one extra always-zero slot at
// index num_gates stands in for kNoGate), so the injection tables, the
// good-trace planes and every external observer keep their addressing.
// Compiling is deterministic; the logic simulator and the fault sweep
// stay bit-identical to the interpreted reference (differential-tested
// in compiled_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/levelize.h"
#include "netlist/netlist.h"

namespace sbst::nl {

/// Base operations every combinational GateKind lowers to.
enum class CompiledOp : std::uint8_t { kAnd = 0, kOr = 1, kXor = 2, kMux = 3 };
inline constexpr int kNumCompiledOps = 4;

/// Base-op class a combinational GateKind lowers to (kAnd for sources,
/// which never lower). BUF classes with the AND lane it lowers to;
/// inverting kinds class with their base op. Work-counter tallies
/// bucket per-kind evaluations with this, in both engines.
inline CompiledOp op_class(GateKind k) {
  switch (k) {
    case GateKind::kOr2:
    case GateKind::kNor2:
      return CompiledOp::kOr;
    case GateKind::kXor2:
    case GateKind::kXnor2:
      return CompiledOp::kXor;
    case GateKind::kMux2:
      return CompiledOp::kMux;
    default:  // And2/Nand2/Not/Buf (and sources, unused)
      return CompiledOp::kAnd;
  }
}

/// One contiguous range of same-level, same-op, same-inversion nodes.
struct CompiledRun {
  std::uint32_t begin = 0;  // node index range [begin, end)
  std::uint32_t end = 0;
  std::uint32_t level = 0;
  CompiledOp op = CompiledOp::kAnd;
  bool invert = false;
};

struct CompiledNetlist {
  std::size_t num_gates = 0;
  /// Value-array slot that is always zero (maps kNoGate / unused pins).
  /// Value arrays driven through this program are sized num_gates + 1.
  std::uint32_t zero_slot = 0;
  /// The levelization the program was built from (levels, comb order,
  /// DFF list, original fanout CSR) — shared so simulators need not
  /// levelize again.
  Levelization lv;

  // --- node program (SoA, level-major, grouped into `runs`) ---------------
  std::vector<std::uint32_t> node_gate;  // output value slot (original id)
  std::vector<std::uint32_t> node_in0;   // fanin value slots
  std::vector<std::uint32_t> node_in1;
  std::vector<std::uint32_t> node_in2;   // zero_slot unless op == kMux
  std::vector<CompiledRun> runs;  // execution order
  /// Runs of level L are runs[level_run_begin[L] .. level_run_begin[L+1]).
  std::vector<std::uint32_t> level_run_begin;

  // --- flip-flops (Levelization::dffs order) ------------------------------
  std::vector<GateId> dff_gate;
  std::vector<std::uint32_t> dff_d;  // value slot of the D driver

  std::size_t num_nodes() const { return node_gate.size(); }
};

/// Branch-free evaluation of one run over a value array of size
/// num_gates + 1 (slot zero_slot must hold 0). W is the simulation word:
/// std::uint64_t for the logic simulator, a GCC/Clang 256-bit vector for
/// the fault sweep's four 64-machine lanes. Always inlined, so the
/// sweep's AVX2 clone gets an AVX2 copy of the loop (`flatten` alone
/// left it a baseline SSE2 call).
template <class W>
[[gnu::always_inline]] inline void eval_run(const CompiledNetlist& cn,
                                           const CompiledRun& r, W* v) {
  const std::uint32_t* const go = cn.node_gate.data();
  const std::uint32_t* const i0 = cn.node_in0.data();
  const std::uint32_t* const i1 = cn.node_in1.data();
  const W inv = r.invert ? ~W{} : W{};
  switch (r.op) {
    case CompiledOp::kAnd:
      for (std::uint32_t i = r.begin; i < r.end; ++i) {
        v[go[i]] = (v[i0[i]] & v[i1[i]]) ^ inv;
      }
      break;
    case CompiledOp::kOr:
      for (std::uint32_t i = r.begin; i < r.end; ++i) {
        v[go[i]] = (v[i0[i]] | v[i1[i]]) ^ inv;
      }
      break;
    case CompiledOp::kXor:
      for (std::uint32_t i = r.begin; i < r.end; ++i) {
        v[go[i]] = (v[i0[i]] ^ v[i1[i]]) ^ inv;
      }
      break;
    case CompiledOp::kMux: {
      const std::uint32_t* const i2 = cn.node_in2.data();
      for (std::uint32_t i = r.begin; i < r.end; ++i) {
        const W c = v[i2[i]];
        v[go[i]] = (v[i0[i]] & ~c) | (v[i1[i]] & c);
      }
      break;
    }
  }
}

/// Lowers the netlist; throws NetlistError on combinational cycles
/// (via levelize). The result is immutable and shared: campaigns build
/// it once and every worker (thread or COW-forked --isolate process)
/// reuses it, exactly like the recorded good trace.
std::shared_ptr<const CompiledNetlist> compile(const Netlist& netlist);

}  // namespace sbst::nl
