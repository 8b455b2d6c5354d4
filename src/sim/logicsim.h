// Levelized compiled-code 2-valued logic simulator.
//
// Each net carries a 64-bit word: the same evaluation kernel serves the
// good-machine simulator (all bits broadcast) and the 64-way parallel
// fault simulator (one machine per bit). Two-valued simulation is sound
// for this project because every DFF elaborated by the DSL has a defined
// reset value and designs are reset before use (enforced by
// Netlist::check + the DSL, see DESIGN.md).
//
// Evaluation runs the compiled SoA program (nl::CompiledNetlist):
// branch-free per-(level, op) runs with folded inversions, one node per
// combinational gate. eval_reference() keeps the original per-gate
// interpreted sweep for differential testing; both produce
// bit-identical values on every net.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/compiled.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"

namespace sbst::sim {

using Word = std::uint64_t;
inline constexpr Word kAllOnes = ~Word{0};

/// Broadcasts a single logic bit into a simulation word.
inline Word broadcast(bool b) { return b ? kAllOnes : Word{0}; }

/// Evaluates one gate function over words into `out`. W is Word or the
/// fault sweep's 256-bit four-lane word, which is handled by reference:
/// passed by value it would cross between the sweep's AVX2 and baseline
/// code under two different calling conventions.
template <class W>
inline void eval_gate_to(nl::GateKind k, const W& a, const W& b, const W& c,
                         W& out) {
  using nl::GateKind;
  switch (k) {
    case GateKind::kBuf:   out = a; break;
    case GateKind::kNot:   out = ~a; break;
    case GateKind::kAnd2:  out = a & b; break;
    case GateKind::kOr2:   out = a | b; break;
    case GateKind::kNand2: out = ~(a & b); break;
    case GateKind::kNor2:  out = ~(a | b); break;
    case GateKind::kXor2:  out = a ^ b; break;
    case GateKind::kXnor2: out = ~(a ^ b); break;
    case GateKind::kMux2:  out = (a & ~c) | (b & c); break;
    default:               out = W{}; break;
  }
}

/// Evaluates one gate function over 64-bit words.
inline Word eval_gate(nl::GateKind k, Word a, Word b, Word c) {
  Word w;
  eval_gate_to(k, a, b, c, w);
  return w;
}

/// The port-level view a closed-loop environment (fault::Environment,
/// a testbench) has of a simulation: it drives input ports with scalar
/// values broadcast to every machine, and reads output ports of the
/// good machine (machine 63). LogicSim implements it, and so does the
/// fault sweep's four-lane state, so one environment serves both.
class PortIo {
 public:
  virtual const nl::Netlist& netlist() const = 0;
  /// Drives an input port with a scalar value broadcast to all machines,
  /// bit i of `value` driving port bit i.
  virtual void set_input(const nl::Port& port, std::uint64_t value) = 0;
  /// Scalar value of an output port in the good machine (machine 63).
  virtual std::uint64_t read_output(const nl::Port& port) const = 0;

 protected:
  ~PortIo() = default;
};

/// Compiled simulator state for one netlist. Holds a shared compiled
/// program; construction is O(gates) (or O(1) when a pre-compiled
/// program is supplied), evaluation is a flat branch-free sweep.
class LogicSim final : public PortIo {
 public:
  explicit LogicSim(const nl::Netlist& netlist);
  /// Reuses a campaign-shared compiled program (must be compiled from
  /// `netlist`) instead of compiling again.
  LogicSim(const nl::Netlist& netlist,
           std::shared_ptr<const nl::CompiledNetlist> compiled);

  const nl::Netlist& netlist() const override { return *nl_; }
  const nl::Levelization& levelization() const { return cn_->lv; }
  const nl::CompiledNetlist& compiled() const { return *cn_; }

  /// Loads DFF reset values and clears inputs.
  void reset();

  void set_input(const nl::Port& port, std::uint64_t value) override;
  /// Drives one net (must be an INPUT gate) with a raw simulation word.
  void set_input_word(nl::GateId g, Word w);

  /// Propagates through the combinational logic (compiled sweep).
  void eval();
  /// Original per-gate interpreted sweep. Bit-identical to eval() on
  /// every net; kept as the differential-testing reference.
  void eval_reference();

  /// Clocks every DFF: state <- D. Call after eval().
  void step_clock();

  /// Raw word on a net (valid after eval()).
  Word word(nl::GateId g) const { return val_[g]; }
  /// Scalar value of an output port in machine `machine`; the one-port
  /// form reads machine 63, the fault simulator's good machine (for pure
  /// logic simulation all bits agree).
  std::uint64_t read_output(const nl::Port& port, int machine) const;
  std::uint64_t read_output(const nl::Port& port) const override {
    return read_output(port, 63);
  }

  /// Direct access for the fault simulator. The vector holds one word
  /// per gate plus a trailing always-zero slot (CompiledNetlist's
  /// zero_slot) that stands in for unconnected pins.
  std::vector<Word>& values() { return val_; }
  const std::vector<Word>& values() const { return val_; }

  /// All primary-output bits, flattened across ports in declaration
  /// order. Precomputed so per-cycle PO comparisons need not walk the
  /// nested Port structure.
  const std::vector<nl::GateId>& po_bits() const { return po_bits_; }

 private:
  const nl::Netlist* nl_;
  std::shared_ptr<const nl::CompiledNetlist> cn_;
  std::vector<Word> val_;
  std::vector<nl::GateId> po_bits_;
};

/// All primary-output bits of `netlist`, flattened across ports in
/// declaration order (LogicSim::po_bits() without a simulator).
std::vector<nl::GateId> flat_po_bits(const nl::Netlist& netlist);

}  // namespace sbst::sim
