#include "fault/event_kernel.h"

#include <bit>

#include "fault/faultsim.h"
#include "sim/logicsim.h"

namespace sbst::fault {

using sim::Word;

namespace {

/// One good-trace bit of a tiled cycle base, as 0/1.
inline unsigned trace_bit(const Word* base, nl::GateId g) {
  return static_cast<unsigned>((base[(g >> 6) << 3] >> (g & 63)) & 1);
}

}  // namespace

void EventKernel::aggregate_seed_forces(
    const std::vector<detail::Injection>& list, std::vector<SeedForce>* out) {
  out->clear();
  for (const detail::Injection& i : list) {
    SeedForce* f = nullptr;
    for (SeedForce& s : *out) {
      if (s.gate == i.gate) {
        f = &s;
        break;
      }
    }
    if (f == nullptr) {
      out->push_back(SeedForce{i.gate, 0, 0});
      f = &out->back();
    }
    if (i.stuck) {
      f->set |= i.mask;
    } else {
      f->clr |= i.mask;
    }
  }
}

EventKernel::Site EventKernel::make_site(const nl::Gate& gate, nl::GateId g,
                                         std::uint32_t level,
                                         const detail::GateForce& f) {
  // Missing pins read 0 in every evaluator, so their LUT bit is held at
  // 0 and the rows that differ only in it coincide: any probe is exact.
  const bool u1 = gate.in[1] != nl::kNoGate;
  const bool u2 = gate.in[2] != nl::kNoGate;
  Site s;
  s.gate = g;
  s.level = level;
  s.pin[0] = gate.in[0];
  s.pin[1] = u1 ? gate.in[1] : gate.in[0];
  s.pin[2] = u2 ? gate.in[2] : gate.in[0];
  for (unsigned ix = 0; ix < 8; ++ix) {
    const Word a = Word{0} - (ix & 1);
    const Word b = u1 ? Word{0} - ((ix >> 1) & 1) : 0;
    const Word c = u2 ? Word{0} - ((ix >> 2) & 1) : 0;
    const Word good = sim::eval_gate(gate.kind, a, b, c);
    const Word w = (sim::eval_gate(gate.kind, (a | f.set[1]) & ~f.clr[1],
                                   (b | f.set[2]) & ~f.clr[2],
                                   (c | f.set[3]) & ~f.clr[3]) |
                    f.set[0]) &
                   ~f.clr[0];
    s.dv[ix] = w ^ good;
  }
  return s;
}

EventKernel::EventKernel(const nl::Netlist& netlist,
                         const nl::Levelization& lv,
                         const std::vector<nl::GateId>& po_bits,
                         std::shared_ptr<const GoodTrace> trace)
    : netlist_(&netlist), lv_(&lv), trace_(std::move(trace)) {
  const std::size_t n = netlist.size();
  is_po_.assign(n, 0);
  for (nl::GateId b : po_bits) {
    if (b < n) is_po_[b] = 1;
  }
  fanout_level_.resize(lv.fanout.size());
  for (std::size_t e = 0; e < lv.fanout.size(); ++e) {
    const nl::GateId c = lv.fanout[e];
    fanout_level_[e] =
        netlist.gate(c).kind == nl::GateKind::kDff ? 0 : lv.level[c];
  }
  // Per-level arena segments: combinational gates sit at levels >= 1.
  bucket_begin_.assign(static_cast<std::size_t>(lv.max_level) + 2, 0);
  for (nl::GateId g : lv.comb_order) ++bucket_begin_[lv.level[g] + 1];
  for (std::size_t l = 1; l < bucket_begin_.size(); ++l) {
    bucket_begin_[l] += bucket_begin_[l - 1];
  }
  bucket_end_ = bucket_begin_;
  arena_.resize(lv.comb_order.size());
  slot_.assign(n, Slot{0, 0});
  seen_.assign(n, 0);
  scheduled_.assign(n, 0);
}

void EventKernel::simulate(const detail::InjectionTable& inj, int count,
                           const KernelDeadlines& deadlines,
                           GroupRecord* rec) {
  using Clock = std::chrono::steady_clock;
  const GoodTrace& tr = *trace_;
  const std::uint64_t T = tr.cycles();
  const Word all_mask = (Word{1} << count) - 1;  // count <= 63

  // Partition this group's injection sites.
  sites_.clear();
  dffd_gates_.clear();
  for (nl::GateId g : inj.slotted_gates()) {
    const nl::Gate& gate = netlist_->gate(g);
    if (gate.kind == nl::GateKind::kDff) {
      dffd_gates_.push_back(g);
    } else {
      sites_.push_back(
          make_site(gate, g, lv_->level[g], inj.force_record(inj.slot(g))));
    }
  }
  aggregate_seed_forces(inj.sources(), &src_forces_);
  aggregate_seed_forces(inj.dff_q(), &q_forces_);

  diverged_dffs_.clear();
  next_diverged_.clear();
  dff_cands_.clear();

  Slot* const slot = slot_.data();
  const std::uint32_t* const fo_off = lv_->fanout_offset.data();
  const nl::GateId* const fo = lv_->fanout.data();
  const std::uint32_t* const fo_lvl = fanout_level_.data();
  nl::GateId* const arena = arena_.data();
  std::uint32_t* const bend = bucket_end_.data();

  Word detected = 0;
  // Machines still awaiting a verdict. Divergence is masked with this
  // before it propagates: once a machine is detected, its detection
  // mask bit is frozen (the sweep kernel masks it out of every later
  // PO comparison), so its divergence can never be observed again and
  // its wavefront collapses immediately — the event-driven form of
  // fault dropping. Results stay bit-identical by construction.
  Word live = all_mask;
  std::uint64_t evals = 0;
  std::uint64_t kind_evals[nl::kNumCompiledOps] = {0, 0, 0, 0};
  std::uint64_t cycle = 0;
  for (; cycle < T; ++cycle) {
    // Same amortized watchdog cadence and verdict as the sweep kernel.
    if (deadlines.active && (cycle & 1023u) == 1023u) [[unlikely]] {
      const Clock::time_point now = Clock::now();
      if (now >= deadlines.group_deadline || now >= deadlines.run_deadline) {
        rec->timed_out = true;
        break;
      }
    }

    const Word* const plane = tr.cycle_base(cycle);
    const std::uint64_t st = ++stamp_;
    Word po_acc = 0;
    std::uint32_t lvl_hi = 0;

    // Value of a net as the faulty machines see it this cycle: the
    // diverged word when one was computed, otherwise the good broadcast.
    auto value_of = [&](nl::GateId d) -> Word {
      const Slot& s = slot[d];
      return s.mark == st ? s.v : GoodTrace::broadcast_bit(plane, d);
    };
    auto enqueue = [&](nl::GateId g, std::uint32_t lvl) {
      if (scheduled_[g] == st) return;
      scheduled_[g] = st;
      arena[bend[lvl]++] = g;
      if (lvl > lvl_hi) lvl_hi = lvl;
    };
    auto schedule_consumers = [&](nl::GateId g) {
      for (std::uint32_t e = fo_off[g]; e < fo_off[g + 1]; ++e) {
        const nl::GateId c = fo[e];
        if (const std::uint32_t lvl = fo_lvl[e]; lvl != 0) {
          enqueue(c, lvl);
        } else if (scheduled_[c] != st) {
          // Flip-flops do not propagate combinationally; they become
          // re-clock candidates at this cycle's edge.
          scheduled_[c] = st;
          dff_cands_.push_back(c);
        }
      }
    };
    // Seeds one already-valued gate: accumulate PO divergence and wake
    // its fanout iff it actually differs from the good machine.
    auto seed = [&](nl::GateId g) {
      if (seen_[g] == st) return;
      seen_[g] = st;
      const Word dv =
          (slot[g].v ^ GoodTrace::broadcast_bit(plane, g)) & live;
      if (dv == 0) return;
      if (is_po_[g]) po_acc |= dv;
      schedule_consumers(g);
    };

    // 1. Carry diverged flip-flop state into this cycle.
    for (const auto& [g, w] : diverged_dffs_) slot[g] = {w, st};
    // 2. Re-force Q-output and source-gate injections against this
    //    cycle's good values (forcing can create or mask divergence,
    //    and sweep semantics re-apply these forces every cycle).
    for (const SeedForce& f : q_forces_) {
      slot[f.gate] = {(value_of(f.gate) | f.set) & ~f.clr, st};
    }
    for (const SeedForce& f : src_forces_) {
      slot[f.gate] = {
          (GoodTrace::broadcast_bit(plane, f.gate) | f.set) & ~f.clr, st};
    }
    // 3. Schedule the fanout of every diverged seed.
    for (const auto& [g, w] : diverged_dffs_) seed(g);
    for (const SeedForce& f : q_forces_) seed(f.gate);
    for (const SeedForce& f : src_forces_) seed(f.gate);
    // 4. Queue the injected combinational gates that can diverge from
    //    the good machine with their current inputs: an excited fault
    //    (LUT over the good fanin bits), or a fanin already carrying a
    //    seeded value. Any other site can only be woken later in the
    //    wavefront, by the consumer edge of a diverged fanin.
    for (const Site& s : sites_) {
      const unsigned ix = trace_bit(plane, s.pin[0]) |
                          (trace_bit(plane, s.pin[1]) << 1) |
                          (trace_bit(plane, s.pin[2]) << 2);
      if ((s.dv[ix] & live) != 0 || slot[s.pin[0]].mark == st ||
          slot[s.pin[1]].mark == st || slot[s.pin[2]].mark == st) {
        enqueue(s.gate, s.level);
      }
    }

    // 5. Levelized wavefront: evaluate scheduled gates; a gate whose
    //    word matches the good broadcast stops propagating. lvl_hi can
    //    grow while iterating (consumers always sit at higher levels).
    for (std::uint32_t lvl = 1; lvl <= lvl_hi; ++lvl) {
      const std::uint32_t begin = bucket_begin_[lvl];
      for (std::uint32_t i = begin; i < bend[lvl]; ++i) {
        const nl::GateId g = arena[i];
        const nl::Gate& gate = netlist_->gate(g);
        Word a = value_of(gate.in[0]);
        Word b = gate.in[1] == nl::kNoGate ? 0 : value_of(gate.in[1]);
        Word c = gate.in[2] == nl::kNoGate ? 0 : value_of(gate.in[2]);
        Word w;
        if (const std::uint32_t s = inj.slot(g); s != 0) [[unlikely]] {
          const detail::GateForce& f = inj.force_record(s);
          a = (a | f.set[1]) & ~f.clr[1];
          b = (b | f.set[2]) & ~f.clr[2];
          c = (c | f.set[3]) & ~f.clr[3];
          w = (sim::eval_gate(gate.kind, a, b, c) | f.set[0]) & ~f.clr[0];
        } else {
          w = sim::eval_gate(gate.kind, a, b, c);
        }
        slot[g] = {w, st};
        ++kind_evals[static_cast<std::size_t>(nl::op_class(gate.kind))];
        const Word dv = (w ^ GoodTrace::broadcast_bit(plane, g)) & live;
        if (dv != 0) {
          if (is_po_[g]) po_acc |= dv;
          schedule_consumers(g);
        }
      }
      evals += bend[lvl] - begin;
      bend[lvl] = begin;
    }
    ++stats_.cycles;

    // 6. Detection — identical to the sweep kernel's po_diff handling.
    //    po_acc only holds divergence words, whose good-machine bit 63
    //    is zero by construction.
    const Word diff = po_acc & all_mask & ~detected;
    if (diff != 0) {
      Word d = diff;
      while (d != 0) {
        const int bit = std::countr_zero(d);
        d &= d - 1;
        rec->detect_cycle[static_cast<std::size_t>(bit)] =
            static_cast<std::int64_t>(cycle);
      }
      detected |= diff;
      if (detected == all_mask) {
        dff_cands_.clear();
        break;  // fault dropping: group done
      }
      live = all_mask & ~detected;
    }

    // 7. Clock edge: recompute the next state of every flip-flop whose
    //    D input diverged this cycle or carries a D-pin injection; all
    //    other flip-flops converge to the recorded good state.
    if (cycle + 1 < T) {
      for (nl::GateId g : dffd_gates_) {
        if (scheduled_[g] != st) {
          scheduled_[g] = st;
          dff_cands_.push_back(g);
        }
      }
      next_diverged_.clear();
      for (nl::GateId g : dff_cands_) {
        const nl::GateId d = netlist_->gate(g).in[0];
        Word next = value_of(d);
        if (const std::uint32_t s = inj.slot(g); s != 0) {
          const detail::GateForce& f = inj.force_record(s);
          next = (next | f.set[1]) & ~f.clr[1];
        }
        // Good next state of a DFF is the good machine's D value now.
        const Word dv = (next ^ GoodTrace::broadcast_bit(plane, d)) & live;
        if (dv != 0) next_diverged_.emplace_back(g, next);
      }
      dff_cands_.clear();
      diverged_dffs_.swap(next_diverged_);
    } else {
      dff_cands_.clear();
    }
  }

  stats_.gates_evaluated += evals;
  for (std::size_t i = 0; i < nl::kNumCompiledOps; ++i) {
    stats_.evals_by_kind[i] += kind_evals[i];
  }
  rec->detected_mask = detected;
  rec->cycles = cycle;
}

}  // namespace sbst::fault
