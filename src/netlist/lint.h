// Structured netlist lint.
//
// Netlist::check() throws on the first pin-connectivity violation it
// meets; that is fine as a construction-time assertion but useless as a
// diagnostic. lint() instead walks the whole design once and returns
// every finding, each tied to the offending gates:
//
//   errors   — unconnected pins, dangling gate references, unknown
//              component tags, combinational loops (reported with the
//              concrete gate cycle), DFFs whose reset value was never
//              assigned, and — when a fault list is supplied — fault
//              sites unreachable from any primary output (such faults
//              can never be detected and poison coverage denominators);
//   warnings — declared components containing zero gates (tag holes)
//              and live logic gates left untagged;
//   infos    — logic outside the primary-output cone (swept from gate
//              counts and the fault universe, see nl::live_mask),
//              dead BUF chains included, by original gate id.
//
// A report is `clean()` when it carries no errors and no warnings; infos
// never make a design dirty. lint_or_throw() adapts the pass back to the
// construction-time assertion style used by the CPU builders.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/fault.h"
#include "netlist/netlist.h"

namespace sbst::nl {

enum class LintSeverity : std::uint8_t { kError, kWarning, kInfo };

enum class LintCheck : std::uint8_t {
  kUnconnectedPin,     // a pin required by the gate's arity has no driver
  kDanglingRef,        // a pin or output port references a nonexistent gate
  kBadComponentTag,    // gate tagged with an undeclared component id
  kCombLoop,           // combinational cycle; `gates` holds the cycle
  kDffNoReset,         // DFF whose reset value was never assigned
  kUnobservableFault,  // fault site with no structural path to any PO
  kEmptyComponent,     // declared component that tags zero gates
  kUntaggedGate,       // live logic gate without a component tag
  kDeadLogic,          // gates outside the PO cone (informational)
};

std::string_view lint_check_name(LintCheck check);
std::string_view lint_severity_name(LintSeverity severity);

struct LintFinding {
  LintCheck check = LintCheck::kUnconnectedPin;
  LintSeverity severity = LintSeverity::kError;
  /// Self-contained human-readable description.
  std::string message;
  /// Offending gates. For kCombLoop this is the full cycle, in driver
  /// order (gates[i+1] drives gates[i], and gates.front() drives
  /// gates.back()). For aggregate findings, a bounded sample.
  std::vector<GateId> gates;
  ComponentId component = kNoComponent;  // kEmptyComponent only
};

struct LintReport {
  std::vector<LintFinding> findings;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t infos = 0;

  bool clean() const { return errors == 0 && warnings == 0; }
};

/// Lints the netlist structure alone.
LintReport lint(const Netlist& netlist);

/// Lints the netlist and cross-checks `faults` for observability: every
/// fault site must lie in the transitive fan-in cone of some primary
/// output, otherwise its detection probability is zero by construction.
LintReport lint(const Netlist& netlist, const FaultList& faults);

/// One line per finding plus a summary line, e.g. for `sbst lint`.
void print_lint_report(std::ostream& os, const LintReport& report);

/// Construction-time assertion: throws NetlistError listing every
/// error-level finding (warnings and infos are tolerated — component
/// tagging is optional for standalone sub-netlists). Replaces the old
/// throw-on-first-error Netlist::check() call sites in the CPU builders.
void lint_or_throw(const Netlist& netlist, std::string_view context);

}  // namespace sbst::nl
