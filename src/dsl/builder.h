// Hardware-construction DSL: structural elaboration of RT-level
// operators (adders, muxes, decoders, shifters, registers) into the gate
// netlist. This plays the role the paper's synthesis tool (Leonardo)
// played: turning the RT description of each processor component into a
// gate-level structure for fault grading and gate counting.
//
// Buses are little-endian vectors of nets: bits[0] is the LSB.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace sbst::dsl {

using nl::GateId;
using Bus = std::vector<GateId>;

class Builder {
 public:
  explicit Builder(nl::Netlist& netlist) : nl_(&netlist) {}

  nl::Netlist& netlist() { return *nl_; }

  /// Scopes subsequently created gates to an RT component.
  void set_component(nl::ComponentId c) { nl_->set_current_component(c); }

  // --- single-bit gates --------------------------------------------------
  // Constant/identity folding mirrors what logic synthesis would do;
  // without it the elaborated netlist carries dead structures (e.g.
  // mux(sel, 0, 0)) whose faults are structurally untestable and would
  // distort both gate counts and fault-coverage denominators.
  GateId lit(bool v) const { return v ? nl_->const1() : nl_->const0(); }
  GateId not_(GateId a);
  GateId and_(GateId a, GateId b);
  GateId or_(GateId a, GateId b);
  GateId nand_(GateId a, GateId b);
  GateId nor_(GateId a, GateId b);
  GateId xor_(GateId a, GateId b);
  GateId xnor_(GateId a, GateId b);
  /// 2:1 mux: returns a when sel==0, b when sel==1.
  GateId mux(GateId sel, GateId a, GateId b);
  GateId and3(GateId a, GateId b, GateId c) { return and_(and_(a, b), c); }
  GateId or3(GateId a, GateId b, GateId c) { return or_(or_(a, b), c); }

  // --- reductions ---------------------------------------------------------
  GateId reduce_and(std::span<const GateId> bits);
  GateId reduce_or(std::span<const GateId> bits);
  GateId reduce_xor(std::span<const GateId> bits);
  GateId reduce_and(const Bus& b) { return reduce_and(std::span<const GateId>(b)); }
  GateId reduce_or(const Bus& b) { return reduce_or(std::span<const GateId>(b)); }
  GateId reduce_xor(const Bus& b) { return reduce_xor(std::span<const GateId>(b)); }

  // --- buses ---------------------------------------------------------------
  Bus constant(std::uint64_t value, int width) const;
  Bus input(const std::string& name, int width) {
    return nl_->add_input(name, width).bits;
  }
  void output(const std::string& name, const Bus& b) { nl_->add_output(name, b); }

  Bus not_bus(const Bus& a);
  Bus and_bus(const Bus& a, const Bus& b);
  Bus or_bus(const Bus& a, const Bus& b);
  Bus xor_bus(const Bus& a, const Bus& b);
  Bus nor_bus(const Bus& a, const Bus& b);
  /// Bitwise AND of a bus with one enable bit.
  Bus mask_bus(const Bus& a, GateId en);

  /// Per-bit 2:1 mux (a when sel==0, b when sel==1).
  Bus mux_bus(GateId sel, const Bus& a, const Bus& b);
  /// Mux tree over 2^sel.size() choices; missing choices repeat the last
  /// provided one.
  Bus mux_tree(const Bus& sel, std::span<const Bus> choices);
  /// One-hot decoder, output i == (sel == i) [AND-ed with enable if given].
  Bus decoder(const Bus& sel, GateId enable = nl::kNoGate);

  // --- arithmetic -----------------------------------------------------------
  struct AddResult {
    Bus sum;
    GateId carry_out = nl::kNoGate;
    /// Carry into the MSB position (used for signed-overflow detection).
    GateId carry_msb = nl::kNoGate;
  };
  /// Ripple-carry addition, widths must match.
  AddResult add(const Bus& a, const Bus& b, GateId carry_in);
  AddResult add(const Bus& a, const Bus& b) { return add(a, b, lit(false)); }
  /// a - b as a + ~b + 1; carry_out == 1 means "no borrow" (a >= b
  /// unsigned).
  AddResult sub(const Bus& a, const Bus& b);
  Bus inc(const Bus& a);
  Bus negate(const Bus& a);

  GateId eq(const Bus& a, const Bus& b);
  GateId is_zero(const Bus& a);
  /// Unsigned a < b.
  GateId ult(const Bus& a, const Bus& b);
  /// Signed a < b.
  GateId slt(const Bus& a, const Bus& b);

  // --- shifting --------------------------------------------------------------
  /// Logarithmic right shifter; vacated positions take `fill`.
  /// amount.size() selects over shifts 0 .. 2^k-1.
  Bus shift_right_var(const Bus& data, const Bus& amount, GateId fill);
  /// Bit-order reversal (pure wiring).
  static Bus reverse(const Bus& a);

  // --- registers ---------------------------------------------------------------
  /// Creates a register with its D inputs left open; connect with
  /// connect_reg once the next-state logic exists (for feedback paths).
  Bus reg(int width, std::uint64_t reset_value = 0);
  void connect_reg(const Bus& q, const Bus& d);
  /// Register with already-known input.
  Bus dff_bus(const Bus& d, std::uint64_t reset_value = 0);

  // --- wiring helpers -------------------------------------------------------------
  static Bus slice(const Bus& a, int lo, int n);
  static Bus cat(const Bus& lo, const Bus& hi);  // lo bits first
  Bus zero_extend(const Bus& a, int width) const;
  Bus sign_extend(const Bus& a, int width) const;

 private:
  nl::Netlist* nl_;
  GateId reduce(std::span<const GateId> bits, nl::GateKind kind);
};

}  // namespace sbst::dsl
