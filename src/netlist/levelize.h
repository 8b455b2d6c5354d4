// Topological levelization of a netlist for compiled-code simulation.
//
// DFF outputs, INPUT gates and constants are treated as level-0 sources;
// the combinational gates are ordered so every gate appears after all of
// its drivers. A combinational cycle (a loop not broken by a DFF) is a
// design error and raises NetlistError.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace sbst::nl {

struct Levelization {
  /// Combinational gates (everything except INPUT/CONST/DFF) in evaluation
  /// order.
  std::vector<GateId> comb_order;
  /// All DFF gates, in id order.
  std::vector<GateId> dffs;
  /// level[g] = 0 for sources, else 1 + max(level of drivers).
  std::vector<std::uint32_t> level;
  /// Maximum combinational depth (levels of logic).
  std::uint32_t max_level = 0;
  /// CSR fanout index over every driver->consumer edge (DFF D-pins
  /// included): the consumers of gate g are
  /// fanout[fanout_offset[g] .. fanout_offset[g+1]). A consumer appears
  /// once per pin it connects, so a gate feeding two pins of the same
  /// MUX is listed twice. Event-driven fault simulation uses this to
  /// schedule divergence forward in level order.
  std::vector<std::uint32_t> fanout_offset;
  std::vector<GateId> fanout;

  /// Consumers of gate g (valid ids only; dangling pins are skipped).
  std::span<const GateId> consumers(GateId g) const {
    return std::span<const GateId>(fanout).subspan(
        fanout_offset[g], fanout_offset[g + 1] - fanout_offset[g]);
  }
};

/// Computes a levelization; throws NetlistError on combinational cycles.
Levelization levelize(const Netlist& nl);

/// Marks gates in the transitive fan-in cone of the primary outputs
/// (traced through DFF D-pins). Gates outside the cone correspond to logic
/// a synthesis tool would sweep away: they are excluded from gate counts
/// and from the fault universe. INPUT/CONST gates are always live.
std::vector<std::uint8_t> live_mask(const Netlist& nl);

}  // namespace sbst::nl
