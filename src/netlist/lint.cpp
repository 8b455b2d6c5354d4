#include "netlist/lint.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "netlist/levelize.h"

namespace sbst::nl {

namespace {

/// Most findings aggregate many gates; keep the per-finding sample small
/// so a massively broken netlist still produces a readable report.
constexpr std::size_t kMaxSampleGates = 8;

bool is_structural(GateKind k) {
  return k == GateKind::kInput || k == GateKind::kConst0 ||
         k == GateKind::kConst1;
}

bool is_comb(GateKind k) { return !is_structural(k) && k != GateKind::kDff; }

std::string gate_ref(const Netlist& nl, GateId g) {
  std::string s = std::to_string(g) + ":" +
                  std::string(gate_kind_name(nl.gate(g).kind));
  const ComponentId c = nl.gate(g).component;
  if (c != kNoComponent && c < nl.num_components()) {
    s += "/" + nl.component_name(c);
  }
  return s;
}

class Linter {
 public:
  explicit Linter(const Netlist& nl) : nl_(nl) {}

  LintReport run(const FaultList* faults) {
    check_pins_and_tags();
    check_comb_loops();
    check_dff_resets();
    const std::vector<std::uint8_t> live = live_mask(nl_);
    check_dead_logic(live);
    if (faults) check_fault_observability(live, *faults);
    check_component_tags(live);
    finish();
    return std::move(rep_);
  }

 private:
  void add(LintCheck check, LintSeverity severity, std::string message,
           std::vector<GateId> gates = {},
           ComponentId component = kNoComponent) {
    rep_.findings.push_back(LintFinding{check, severity, std::move(message),
                                        std::move(gates), component});
  }

  void check_pins_and_tags() {
    std::vector<GateId> unconnected, dangling, bad_tag;
    for (GateId g = 0; g < nl_.size(); ++g) {
      const Gate& gate = nl_.gate(g);
      const int arity = fanin_count(gate.kind);
      for (int pin = 0; pin < arity; ++pin) {
        const GateId d = gate.in[static_cast<std::size_t>(pin)];
        if (d == kNoGate) {
          unconnected.push_back(g);
        } else if (d >= nl_.size()) {
          dangling.push_back(g);
        }
      }
      if (gate.component >= nl_.num_components()) bad_tag.push_back(g);
    }
    report_gate_list(LintCheck::kUnconnectedPin, unconnected,
                     "gate(s) with unconnected input pins");
    report_gate_list(LintCheck::kDanglingRef, dangling,
                     "gate(s) referencing nonexistent driver ids");
    report_gate_list(LintCheck::kBadComponentTag, bad_tag,
                     "gate(s) tagged with an undeclared component id");
    for (const Port& p : nl_.outputs()) {
      for (GateId b : p.bits) {
        if (b >= nl_.size()) {
          add(LintCheck::kDanglingRef, LintSeverity::kError,
              "output port '" + p.name + "' references nonexistent gate " +
                  std::to_string(b));
        }
      }
    }
  }

  void report_gate_list(LintCheck check, const std::vector<GateId>& gates,
                        const std::string& what) {
    if (gates.empty()) return;
    std::vector<GateId> sample(
        gates.begin(),
        gates.begin() + static_cast<std::ptrdiff_t>(
                            std::min(gates.size(), kMaxSampleGates)));
    std::string msg = std::to_string(gates.size()) + " " + what + ", e.g.";
    for (GateId g : sample) {
      // Kind/component lookup needs valid state; gate id alone is always
      // printable.
      msg += " " + (check == LintCheck::kBadComponentTag
                        ? std::to_string(g)
                        : gate_ref(nl_, g));
    }
    add(check, LintSeverity::kError, std::move(msg), std::move(sample));
  }

  /// Kahn's algorithm over combinational gates (mirrors nl::levelize, but
  /// instead of throwing it extracts the concrete cycles left over).
  void check_comb_loops() {
    const std::size_t n = nl_.size();
    std::vector<std::uint32_t> pending(n, 0);
    std::vector<std::vector<GateId>> fanout(n);
    std::vector<GateId> ready;
    std::size_t num_comb = 0, done = 0;
    for (GateId g = 0; g < n; ++g) {
      const Gate& gate = nl_.gate(g);
      if (!is_comb(gate.kind)) continue;
      ++num_comb;
      std::uint32_t deps = 0;
      const int arity = fanin_count(gate.kind);
      for (int pin = 0; pin < arity; ++pin) {
        const GateId d = gate.in[static_cast<std::size_t>(pin)];
        if (d == kNoGate || d >= n) continue;  // reported separately
        if (is_comb(nl_.gate(d).kind)) {
          ++deps;
          fanout[d].push_back(g);
        }
      }
      pending[g] = deps;
      if (deps == 0) ready.push_back(g);
    }
    while (!ready.empty()) {
      const GateId g = ready.back();
      ready.pop_back();
      ++done;
      for (GateId f : fanout[g]) {
        if (--pending[f] == 0) ready.push_back(f);
      }
    }
    if (done == num_comb) return;

    // Every gate with pending > 0 sits in or downstream of a cycle.
    // Walking pending drivers from any of them must eventually revisit a
    // gate; the revisited suffix is a concrete cycle.
    std::vector<std::uint8_t> visited(n, 0);
    for (GateId start = 0; start < n; ++start) {
      if (pending[start] == 0 || !is_comb(nl_.gate(start).kind) ||
          visited[start]) {
        continue;
      }
      std::vector<GateId> path;
      std::vector<std::uint32_t> pos(n, 0);  // 1 + index into path
      GateId g = start;
      while (!visited[g] && pos[g] == 0) {
        pos[g] = static_cast<std::uint32_t>(path.size()) + 1;
        path.push_back(g);
        const Gate& gate = nl_.gate(g);
        const int arity = fanin_count(gate.kind);
        GateId next = kNoGate;
        for (int pin = 0; pin < arity; ++pin) {
          const GateId d = gate.in[static_cast<std::size_t>(pin)];
          if (d != kNoGate && d < n && is_comb(nl_.gate(d).kind) &&
              pending[d] > 0) {
            next = d;
            break;
          }
        }
        if (next == kNoGate) break;  // walked out of the cyclic region
        g = next;
      }
      for (GateId p : path) visited[p] = 1;
      if (pos[g] != 0 && !path.empty()) {
        std::vector<GateId> cycle(path.begin() + pos[g] - 1, path.end());
        std::string msg = "combinational loop through " +
                          std::to_string(cycle.size()) + " gate(s):";
        for (GateId c : cycle) msg += " " + gate_ref(nl_, c);
        add(LintCheck::kCombLoop, LintSeverity::kError, std::move(msg),
            std::move(cycle));
      }
    }
  }

  void check_dff_resets() {
    std::vector<GateId> bad;
    for (GateId g = 0; g < nl_.size(); ++g) {
      const Gate& gate = nl_.gate(g);
      if (gate.kind == GateKind::kDff && gate.reset_val != 0 &&
          gate.reset_val != 1) {
        bad.push_back(g);
      }
    }
    if (bad.empty()) return;
    std::vector<GateId> sample(
        bad.begin(), bad.begin() + static_cast<std::ptrdiff_t>(std::min(
                                       bad.size(), kMaxSampleGates)));
    std::string msg =
        std::to_string(bad.size()) +
        " DFF(s) without an assigned reset value (2-valued simulation "
        "is undefined after reset), e.g. gate " +
        std::to_string(sample.front());
    add(LintCheck::kDffNoReset, LintSeverity::kError, std::move(msg),
        std::move(sample));
  }

  void check_dead_logic(const std::vector<std::uint8_t>& live) {
    std::vector<GateId> dead;
    for (GateId g = 0; g < nl_.size(); ++g) {
      if (!live[g] && !is_structural(nl_.gate(g).kind)) dead.push_back(g);
    }
    if (dead.empty()) return;
    std::vector<GateId> sample(
        dead.begin(), dead.begin() + static_cast<std::ptrdiff_t>(std::min(
                                         dead.size(), kMaxSampleGates)));
    add(LintCheck::kDeadLogic, LintSeverity::kInfo,
        std::to_string(dead.size()) +
            " gate(s) outside the primary-output cone (swept from gate "
            "counts and the fault universe)",
        std::move(sample));
  }

  void check_fault_observability(const std::vector<std::uint8_t>& live,
                                 const FaultList& faults) {
    std::vector<GateId> bad;
    for (const Fault& f : faults.faults) {
      if (f.gate < nl_.size() && !live[f.gate]) bad.push_back(f.gate);
    }
    if (bad.empty()) return;
    std::sort(bad.begin(), bad.end());
    bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
    std::vector<GateId> sample(
        bad.begin(), bad.begin() + static_cast<std::ptrdiff_t>(std::min(
                                       bad.size(), kMaxSampleGates)));
    add(LintCheck::kUnobservableFault, LintSeverity::kError,
        "fault list places faults on " + std::to_string(bad.size()) +
            " gate(s) with no structural path to any primary output — "
            "undetectable by construction, they poison the coverage "
            "denominator",
        std::move(sample));
  }

  void check_component_tags(const std::vector<std::uint8_t>& live) {
    std::vector<std::size_t> per_comp(
        static_cast<std::size_t>(nl_.num_components()), 0);
    std::vector<GateId> untagged;
    for (GateId g = 0; g < nl_.size(); ++g) {
      const Gate& gate = nl_.gate(g);
      if (gate.component < nl_.num_components()) {
        ++per_comp[gate.component];
      }
      if (gate.component == kNoComponent && live[g] &&
          !is_structural(gate.kind)) {
        untagged.push_back(g);
      }
    }
    for (ComponentId c = 1; c < nl_.num_components(); ++c) {
      if (per_comp[c] == 0) {
        add(LintCheck::kEmptyComponent, LintSeverity::kWarning,
            "component '" + nl_.component_name(c) +
                "' is declared but tags no gates",
            {}, c);
      }
    }
    // Only meaningful once the design uses component tagging at all.
    if (!untagged.empty() && nl_.num_components() > 1) {
      std::vector<GateId> sample(
          untagged.begin(),
          untagged.begin() + static_cast<std::ptrdiff_t>(std::min(
                                 untagged.size(), kMaxSampleGates)));
      std::string msg =
          std::to_string(untagged.size()) +
          " live logic gate(s) without a component tag (excluded from "
          "every per-component coverage row), e.g. gate " +
          std::to_string(sample.front());
      add(LintCheck::kUntaggedGate, LintSeverity::kWarning, std::move(msg),
          std::move(sample));
    }
  }

  void finish() {
    auto rank = [](LintSeverity s) { return static_cast<int>(s); };
    std::stable_sort(rep_.findings.begin(), rep_.findings.end(),
                     [&](const LintFinding& a, const LintFinding& b) {
                       return rank(a.severity) < rank(b.severity);
                     });
    for (const LintFinding& f : rep_.findings) {
      switch (f.severity) {
        case LintSeverity::kError:   ++rep_.errors; break;
        case LintSeverity::kWarning: ++rep_.warnings; break;
        case LintSeverity::kInfo:    ++rep_.infos; break;
      }
    }
  }

  const Netlist& nl_;
  LintReport rep_;
};

}  // namespace

std::string_view lint_check_name(LintCheck check) {
  switch (check) {
    case LintCheck::kUnconnectedPin:    return "unconnected-pin";
    case LintCheck::kDanglingRef:       return "dangling-ref";
    case LintCheck::kBadComponentTag:   return "bad-component-tag";
    case LintCheck::kCombLoop:          return "comb-loop";
    case LintCheck::kDffNoReset:        return "dff-no-reset";
    case LintCheck::kUnobservableFault: return "unobservable-fault";
    case LintCheck::kEmptyComponent:    return "empty-component";
    case LintCheck::kUntaggedGate:      return "untagged-gate";
    case LintCheck::kDeadLogic:         return "dead-logic";
  }
  return "?";
}

std::string_view lint_severity_name(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kError:   return "error";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kInfo:    return "info";
  }
  return "?";
}

LintReport lint(const Netlist& netlist) {
  return Linter(netlist).run(nullptr);
}

LintReport lint(const Netlist& netlist, const FaultList& faults) {
  return Linter(netlist).run(&faults);
}

void print_lint_report(std::ostream& os, const LintReport& report) {
  for (const LintFinding& f : report.findings) {
    os << lint_severity_name(f.severity) << " [" << lint_check_name(f.check)
       << "] " << f.message << "\n";
  }
  os << report.errors << " error(s), " << report.warnings << " warning(s), "
     << report.infos << " info(s)\n";
}

void lint_or_throw(const Netlist& netlist, std::string_view context) {
  const LintReport rep = lint(netlist);
  if (rep.errors == 0) return;
  std::ostringstream os;
  os << context << ": netlist lint failed\n";
  for (const LintFinding& f : rep.findings) {
    if (f.severity != LintSeverity::kError) continue;
    os << "  [" << lint_check_name(f.check) << "] " << f.message << "\n";
  }
  throw NetlistError(os.str());
}

}  // namespace sbst::nl
