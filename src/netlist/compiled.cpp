#include "netlist/compiled.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

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
      // Materialized BUFs (PO bits) become a = (a & a).
      return {CompiledOp::kAnd, false, gate.in[0], gate.in[0], kNoGate};
    case GateKind::kMux2:
      return {CompiledOp::kMux, false, gate.in[0], gate.in[1], gate.in[2]};
    default:
      // Sources (const/input/dff) never reach here.
      return {CompiledOp::kAnd, false, self, self, kNoGate};
  }
}

}  // namespace

std::vector<GateId> fold_roots(const Netlist& netlist) {
  const std::size_t n = netlist.size();
  std::vector<GateId> root(n);
  std::iota(root.begin(), root.end(), GateId{0});
  // Memoized chain walk instead of a topological sweep: lint runs this
  // pass on arbitrary (possibly malformed) netlists, so it must not
  // require a levelization — dangling pins terminate a chain (the BUF
  // stays its own root, matching the sweep kernel's constant-0 read),
  // and a pure BUF cycle is cut at the first revisited gate so roots
  // stay well defined even on designs lint will reject anyway.
  std::vector<std::uint8_t> state(n, 0);  // 0 new, 1 on path, 2 done
  std::vector<GateId> path;
  for (GateId g = 0; g < n; ++g) {
    if (state[g] != 0) continue;
    path.clear();
    GateId cur = g;
    GateId r;
    for (;;) {
      if (state[cur] == 2) {
        r = root[cur];
        break;
      }
      if (state[cur] == 1) {  // BUF cycle: cut here
        r = cur;
        break;
      }
      const Gate& gate = netlist.gate(cur);
      if (gate.kind != GateKind::kBuf || !valid_gate(netlist, gate.in[0])) {
        state[cur] = 2;
        r = cur;
        break;
      }
      state[cur] = 1;
      path.push_back(cur);
      cur = gate.in[0];
    }
    for (GateId p : path) {
      root[p] = r;
      state[p] = 2;
    }
  }
  return root;
}

std::shared_ptr<const CompiledNetlist> compile(const Netlist& netlist) {
  auto out = std::make_shared<CompiledNetlist>();
  CompiledNetlist& cn = *out;
  const std::size_t n = netlist.size();
  cn.num_gates = n;
  cn.zero_slot = static_cast<std::uint32_t>(n);
  cn.lv = levelize(netlist);
  cn.fold_root.assign(n, kNoGate);
  std::iota(cn.fold_root.begin(), cn.fold_root.end(), GateId{0});
  cn.node_of_gate.assign(n, kNoNode);

  // Primary-output bits stay materialized even when they are BUFs.
  std::vector<std::uint8_t> is_po(n, 0);
  for (const auto& port : netlist.outputs()) {
    for (GateId g : port.bits) {
      if (valid_gate(netlist, g)) is_po[g] = 1;
    }
  }

  // Pass 1 (topological): fold BUF chains and classify the survivors.
  std::vector<GateId> kept;
  kept.reserve(cn.lv.comb_order.size());
  for (GateId g : cn.lv.comb_order) {
    const Gate& gate = netlist.gate(g);
    if (gate.kind == GateKind::kBuf && !is_po[g] &&
        valid_gate(netlist, gate.in[0])) {
      cn.fold_root[g] = cn.fold_root[gate.in[0]];
      cn.copy_dst.push_back(g);
      cn.copy_src.push_back(cn.fold_root[g]);
      continue;
    }
    kept.push_back(g);
  }

  // Pass 2: sort survivors into (level, op, invert, gate-id) order so
  // equal-shape neighbours coalesce into branch-free runs.
  struct Key {
    GateId g;
    std::uint32_t level;
    Lowered low;
  };
  std::vector<Key> keys;
  keys.reserve(kept.size());
  for (GateId g : kept) {
    keys.push_back({g, cn.lv.level[g], lower_gate(netlist.gate(g), g)});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.level != b.level) return a.level < b.level;
    if (a.low.op != b.low.op) return a.low.op < b.low.op;
    if (a.low.invert != b.low.invert) return a.low.invert < b.low.invert;
    return a.g < b.g;
  });

  const auto slot = [&](GateId d) -> std::uint32_t {
    if (!valid_gate(netlist, d)) return cn.zero_slot;
    return cn.fold_root[d];
  };

  const std::size_t num_nodes = keys.size();
  cn.node_gate.reserve(num_nodes);
  cn.node_in0.reserve(num_nodes);
  cn.node_in1.reserve(num_nodes);
  cn.node_in2.reserve(num_nodes);
  for (const Key& k : keys) {
    const std::uint32_t idx = static_cast<std::uint32_t>(cn.node_gate.size());
    cn.node_of_gate[k.g] = idx;
    cn.node_gate.push_back(k.g);
    cn.node_in0.push_back(slot(k.low.in0));
    cn.node_in1.push_back(slot(k.low.in1));
    cn.node_in2.push_back(k.low.op == CompiledOp::kMux ? slot(k.low.in2)
                                                       : cn.zero_slot);
  }

  // Pass 3: run boundaries + per-level run index.
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

  // Pass 4: DFFs (Levelization order) with fold-rooted D drivers.
  cn.dff_gate = cn.lv.dffs;
  cn.dff_d.reserve(cn.dff_gate.size());
  for (GateId g : cn.dff_gate) {
    cn.dff_d.push_back(slot(netlist.gate(g).in[0]));
  }

  return out;
}

}  // namespace sbst::nl
