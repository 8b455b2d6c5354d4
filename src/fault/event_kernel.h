// Event-driven differential fault-simulation kernel (PROOFS-style).
//
// The sweep kernel re-evaluates every combinational gate of all 64
// machines each cycle. This kernel instead simulates only *divergence*
// from a pre-recorded good-machine trace (good_trace.h):
//
//   invariant  v[g] == broadcast(good[t][g]) ^ divergence word,
//              where any gate not evaluated at cycle t has divergence 0
//              and is reconstructed from the trace on demand.
//
// Per cycle, events are seeded at the group's excited injection sites
// and at flip-flops whose state diverged on an earlier clock edge; they
// propagate forward through the netlist's CSR fanout index in levelized
// order, and a gate whose recomputed word equals the good broadcast
// stops the wavefront. Because fault dropping removes detected machines
// quickly, the surviving divergence cones are tiny on most cycles and
// per-group cost collapses from O(gates x cycles) to O(activity).
//
// Two structures keep the per-event cost flat:
//
//   * level-tagged fanout: every consumer edge carries its level (0 for
//     a flip-flop) in an array parallel to the levelization's fanout
//     CSR, and the worklist is one flat arena cut into per-level
//     segments sized from the levelization, so scheduling touches
//     neither the gate records nor the level table;
//   * excitation LUTs: each injected combinational gate gets a
//     per-group 8-entry table of its forced output's divergence from
//     the good output, indexed by its good fanin bits. A site is queued
//     at the start of a cycle only when that divergence has a live lane
//     or a fanin already carries divergence; an unexcited fault costs
//     three trace-bit reads per cycle. A site whose fanin diverges later
//     in the wavefront is queued by that fanin's consumer edge and
//     evaluated in full.
//
// The kernel is bit-identical to the sweep kernel: same detection masks,
// detect cycles, fault dropping, cycle accounting and watchdog cadence.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "fault/injection.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"

namespace sbst::fault {

/// Wall-clock bounds shared with the sweep kernel (time_point::max() =
/// unbounded; `active` mirrors the sweep's has_clock_bounds fast path).
struct KernelDeadlines {
  bool active = false;
  std::chrono::steady_clock::time_point group_deadline =
      std::chrono::steady_clock::time_point::max();
  std::chrono::steady_clock::time_point run_deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Per-worker differential simulator state. Not thread-safe; the trace
/// is immutable and shared. `netlist` and `lv` must outlive the kernel.
class EventKernel {
 public:
  EventKernel(const nl::Netlist& netlist, const nl::Levelization& lv,
              const std::vector<nl::GateId>& po_bits,
              std::shared_ptr<const GoodTrace> trace);

  /// Simulates one injected group differentially against the trace,
  /// filling rec->detected_mask, detect_cycle, cycles and timed_out
  /// (rec->group/count/detect_cycle must be pre-sized by the caller).
  void simulate(const detail::InjectionTable& inj, int count,
                const KernelDeadlines& deadlines, GroupRecord* rec);

  const KernelStats& stats() const { return stats_; }

 private:
  using Word = sim::Word;

  /// One injection site's aggregated set/clear masks, re-forced against
  /// the good trace every cycle (sources and DFF Q outputs).
  struct SeedForce {
    nl::GateId gate;
    Word set;
    Word clr;
  };

  /// Per-group record of one injected combinational gate.
  struct Site {
    nl::GateId gate;
    std::uint32_t level;
    /// Fanin gates probed for the LUT index; a missing pin repeats
    /// pin[0] (its LUT bit is ignored: the table holds it at 0).
    nl::GateId pin[3];
    /// Forced output XOR good output, by good fanin bits (pin p = bit p).
    Word dv[8];
  };

  static void aggregate_seed_forces(
      const std::vector<detail::Injection>& list,
      std::vector<SeedForce>* out);
  static Site make_site(const nl::Gate& gate, nl::GateId g,
                        std::uint32_t level, const detail::GateForce& f);

  /// Diverged value of a gate plus the stamp it is valid for, fused so
  /// a fanin read touches one cache line.
  struct Slot {
    Word v;
    std::uint64_t mark;
  };

  const nl::Netlist* netlist_;
  const nl::Levelization* lv_;
  std::shared_ptr<const GoodTrace> trace_;
  std::vector<std::uint8_t> is_po_;
  /// Level of each consumer edge of lv_->fanout (0 = flip-flop D pin).
  std::vector<std::uint32_t> fanout_level_;

  // Per-cycle scratch, validity tracked by monotone stamps (never reset,
  // so state is trivially clean across cycles and groups).
  std::uint64_t stamp_ = 0;
  std::vector<Slot> slot_;
  std::vector<std::uint64_t> seen_;       // seed processed this stamp
  // Scheduled this stamp: a combinational gate sits in a level bucket,
  // a flip-flop in dff_cands_. Only combinational gates are queued and
  // only flip-flops become candidates, so one array serves both.
  std::vector<std::uint64_t> scheduled_;
  // Flat worklist: level L's bucket is arena_[bucket_begin_[L] ..
  // bucket_end_[L]); a level never holds more gates than it has.
  std::vector<nl::GateId> arena_;
  std::vector<std::uint32_t> bucket_begin_;
  std::vector<std::uint32_t> bucket_end_;
  std::vector<nl::GateId> dff_cands_;

  // Sparse diverged flip-flop state carried across clock edges.
  std::vector<std::pair<nl::GateId, Word>> diverged_dffs_;
  std::vector<std::pair<nl::GateId, Word>> next_diverged_;

  // Per-group injection site partition (rebuilt by simulate()).
  std::vector<Site> sites_;                // injected comb gates
  std::vector<nl::GateId> dffd_gates_;     // D-pin-injected DFFs
  std::vector<SeedForce> src_forces_;      // PI/const, aggregated per gate
  std::vector<SeedForce> q_forces_;        // DFF Q-output, aggregated

  KernelStats stats_;
};

}  // namespace sbst::fault
