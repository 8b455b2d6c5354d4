#include "netlist/levelize.h"

#include <algorithm>

namespace sbst::nl {

namespace {

bool is_source(GateKind k) {
  return k == GateKind::kConst0 || k == GateKind::kConst1 ||
         k == GateKind::kInput || k == GateKind::kDff;
}

}  // namespace

Levelization levelize(const Netlist& nl) {
  const std::size_t n = nl.size();
  Levelization lv;
  lv.level.assign(n, 0);

  // Kahn's algorithm over combinational gates only. DFF D-pins consume
  // values but a DFF's *output* is a source, so DFFs never gate ordering.
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<std::vector<GateId>> fanout(n);
  std::vector<GateId> ready;
  std::size_t num_comb = 0;

  for (GateId g = 0; g < n; ++g) {
    const Gate& gate = nl.gate(g);
    if (gate.kind == GateKind::kDff) lv.dffs.push_back(g);
    if (is_source(gate.kind)) continue;
    ++num_comb;
    const int arity = fanin_count(gate.kind);
    std::uint32_t deps = 0;
    for (int pin = 0; pin < arity; ++pin) {
      const GateId d = gate.in[static_cast<std::size_t>(pin)];
      if (d < n && !is_source(nl.gate(d).kind)) {
        ++deps;
        fanout[d].push_back(g);
      }
    }
    pending[g] = deps;
    if (deps == 0) ready.push_back(g);
  }

  lv.comb_order.reserve(num_comb);
  while (!ready.empty()) {
    const GateId g = ready.back();
    ready.pop_back();
    const Gate& gate = nl.gate(g);
    std::uint32_t max_in = 0;
    const int arity = fanin_count(gate.kind);
    for (int pin = 0; pin < arity; ++pin) {
      const GateId d = gate.in[static_cast<std::size_t>(pin)];
      if (d < n) max_in = std::max(max_in, lv.level[d]);
    }
    lv.level[g] = max_in + 1;
    lv.max_level = std::max(lv.max_level, lv.level[g]);
    lv.comb_order.push_back(g);
    for (GateId f : fanout[g]) {
      if (--pending[f] == 0) ready.push_back(f);
    }
  }

  if (lv.comb_order.size() != num_comb) {
    throw NetlistError(
        "combinational cycle detected: " +
        std::to_string(num_comb - lv.comb_order.size()) +
        " gate(s) unreachable in topological order");
  }

  // CSR fanout over every driver->consumer edge, DFF D-pins included
  // (the comb-only `fanout` above is a levelization scratch structure;
  // this one is the published forward-scheduling index). Dangling pins
  // are skipped here as above, so partially built netlists can still be
  // levelized by callers that tolerate them elsewhere (the compiled
  // program reads them as constant 0).
  lv.fanout_offset.assign(n + 1, 0);
  for (GateId g = 0; g < n; ++g) {
    const Gate& gate = nl.gate(g);
    const int arity = fanin_count(gate.kind);
    for (int pin = 0; pin < arity; ++pin) {
      const GateId d = gate.in[static_cast<std::size_t>(pin)];
      if (d < n) ++lv.fanout_offset[d + 1];
    }
  }
  for (std::size_t g = 0; g < n; ++g) {
    lv.fanout_offset[g + 1] += lv.fanout_offset[g];
  }
  lv.fanout.resize(lv.fanout_offset[n]);
  std::vector<std::uint32_t> cursor(lv.fanout_offset.begin(),
                                    lv.fanout_offset.end() - 1);
  for (GateId g = 0; g < n; ++g) {
    const Gate& gate = nl.gate(g);
    const int arity = fanin_count(gate.kind);
    for (int pin = 0; pin < arity; ++pin) {
      const GateId d = gate.in[static_cast<std::size_t>(pin)];
      if (d < n) lv.fanout[cursor[d]++] = g;
    }
  }
  return lv;
}

std::vector<std::uint8_t> live_mask(const Netlist& nl) {
  const std::size_t n = nl.size();
  std::vector<std::uint8_t> live(n, 0);
  std::vector<GateId> stack;
  // Tolerates unconnected/dangling pins so lint can still compute the
  // cone of a structurally broken netlist.
  auto mark = [&](GateId g) {
    if (g < n && !live[g]) {
      live[g] = 1;
      stack.push_back(g);
    }
  };
  for (const Port& p : nl.outputs()) {
    for (GateId b : p.bits) mark(b);
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    const Gate& gate = nl.gate(g);
    const int arity = fanin_count(gate.kind);
    for (int pin = 0; pin < arity; ++pin) {
      mark(gate.in[static_cast<std::size_t>(pin)]);
    }
  }
  // Environment-facing and constant gates are always considered live.
  for (GateId g = 0; g < n; ++g) {
    const GateKind k = nl.gate(g).kind;
    if (k == GateKind::kInput || k == GateKind::kConst0 ||
        k == GateKind::kConst1) {
      live[g] = 1;
    }
  }
  return live;
}

}  // namespace sbst::nl
