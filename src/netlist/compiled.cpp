#include "netlist/compiled.h"

#include <algorithm>
#include <cstdint>

#include "netlist/gate.h"

namespace sbst::nl {
namespace {

bool valid_gate(const Netlist& nl, GateId g) {
  return g != kNoGate && static_cast<std::size_t>(g) < nl.size();
}

/// Lowered form of one combinational gate.
struct Lowered {
  CompiledOp op;
  bool invert;
  GateId in0;
  GateId in1;
  GateId in2;  // kNoGate unless kMux
};

Lowered lower_gate(const Gate& gate, GateId self) {
  switch (gate.kind) {
    case GateKind::kAnd2:
      return {CompiledOp::kAnd, false, gate.in[0], gate.in[1], kNoGate};
    case GateKind::kNand2:
      return {CompiledOp::kAnd, true, gate.in[0], gate.in[1], kNoGate};
    case GateKind::kOr2:
      return {CompiledOp::kOr, false, gate.in[0], gate.in[1], kNoGate};
    case GateKind::kNor2:
      return {CompiledOp::kOr, true, gate.in[0], gate.in[1], kNoGate};
    case GateKind::kXor2:
      return {CompiledOp::kXor, false, gate.in[0], gate.in[1], kNoGate};
    case GateKind::kXnor2:
      return {CompiledOp::kXor, true, gate.in[0], gate.in[1], kNoGate};
    case GateKind::kNot:
      // ~a == ~(a & a): duplicate the pin into the AND lane.
      return {CompiledOp::kAnd, true, gate.in[0], gate.in[0], kNoGate};
    case GateKind::kBuf:
      // a == (a & a): duplicate the pin into the AND lane.
      return {CompiledOp::kAnd, false, gate.in[0], gate.in[0], kNoGate};
    case GateKind::kMux2:
      return {CompiledOp::kMux, false, gate.in[0], gate.in[1], gate.in[2]};
    default:
      // Sources (const/input/dff) never reach here.
      return {CompiledOp::kAnd, false, self, self, kNoGate};
  }
}

}  // namespace

std::shared_ptr<const CompiledNetlist> compile(const Netlist& netlist) {
  auto out = std::make_shared<CompiledNetlist>();
  CompiledNetlist& cn = *out;
  const std::size_t n = netlist.size();
  cn.num_gates = n;
  cn.zero_slot = static_cast<std::uint32_t>(n);
  cn.lv = levelize(netlist);

  // Pass 1: sort the combinational gates into (level, op, invert,
  // gate-id) order so equal-shape neighbours coalesce into branch-free
  // runs.
  struct Key {
    GateId g;
    std::uint32_t level;
    Lowered low;
  };
  std::vector<Key> keys;
  keys.reserve(cn.lv.comb_order.size());
  for (GateId g : cn.lv.comb_order) {
    keys.push_back({g, cn.lv.level[g], lower_gate(netlist.gate(g), g)});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.level != b.level) return a.level < b.level;
    if (a.low.op != b.low.op) return a.low.op < b.low.op;
    if (a.low.invert != b.low.invert) return a.low.invert < b.low.invert;
    return a.g < b.g;
  });

  const auto slot = [&](GateId d) -> std::uint32_t {
    return valid_gate(netlist, d) ? d : cn.zero_slot;
  };

  const std::size_t num_nodes = keys.size();
  cn.node_gate.reserve(num_nodes);
  cn.node_in0.reserve(num_nodes);
  cn.node_in1.reserve(num_nodes);
  cn.node_in2.reserve(num_nodes);
  for (const Key& k : keys) {
    cn.node_gate.push_back(k.g);
    cn.node_in0.push_back(slot(k.low.in0));
    cn.node_in1.push_back(slot(k.low.in1));
    cn.node_in2.push_back(k.low.op == CompiledOp::kMux ? slot(k.low.in2)
                                                       : cn.zero_slot);
  }

  // Pass 2: run boundaries + per-level run index.
  const std::uint32_t num_levels = cn.lv.max_level + 1;
  for (std::uint32_t i = 0; i < num_nodes;) {
    CompiledRun run;
    run.begin = i;
    run.level = keys[i].level;
    run.op = keys[i].low.op;
    run.invert = keys[i].low.invert;
    std::uint32_t j = i + 1;
    while (j < num_nodes && keys[j].level == run.level &&
           keys[j].low.op == run.op && keys[j].low.invert == run.invert) {
      ++j;
    }
    run.end = j;
    cn.runs.push_back(run);
    i = j;
  }
  // Prefix-fill: level L owns the runs up to the first of level > L.
  cn.level_run_begin.assign(num_levels + 1, 0);
  for (std::uint32_t lvl = 0, r = 0; lvl <= num_levels; ++lvl) {
    while (r < cn.runs.size() && cn.runs[r].level < lvl) ++r;
    cn.level_run_begin[lvl] = r;
  }

  // Pass 3: DFFs (Levelization order) and their D-driver slots.
  cn.dff_gate = cn.lv.dffs;
  cn.dff_d.reserve(cn.dff_gate.size());
  for (GateId g : cn.dff_gate) {
    cn.dff_d.push_back(slot(netlist.gate(g).in[0]));
  }

  return out;
}

}  // namespace sbst::nl
