#include "netlist/lint.h"

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "netlist/fault.h"
#include "parwan/cpu.h"
#include "plasma/cpu.h"

namespace sbst::nl {
namespace {

bool has_check(const LintReport& rep, LintCheck check) {
  return std::any_of(rep.findings.begin(), rep.findings.end(),
                     [check](const LintFinding& f) { return f.check == check; });
}

const LintFinding& find_check(const LintReport& rep, LintCheck check) {
  for (const LintFinding& f : rep.findings) {
    if (f.check == check) return f;
  }
  throw std::logic_error("finding not present");
}

TEST(Lint, CleanNetlistHasNoFindings) {
  Netlist n;
  const Port in = n.add_input("in", 2);
  n.add_output("o", {n.add_gate(GateKind::kAnd2, in.bits[0], in.bits[1])});
  const LintReport rep = lint(n);
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(rep.findings.empty());
}

TEST(Lint, ReportsUnconnectedPin) {
  Netlist n;
  const Port in = n.add_input("in", 1);
  const GateId g = n.add_gate(GateKind::kAnd2, in.bits[0], kNoGate);
  n.add_output("o", {g});
  const LintReport rep = lint(n);
  EXPECT_FALSE(rep.clean());
  ASSERT_TRUE(has_check(rep, LintCheck::kUnconnectedPin));
  const LintFinding& f = find_check(rep, LintCheck::kUnconnectedPin);
  EXPECT_EQ(f.severity, LintSeverity::kError);
  ASSERT_FALSE(f.gates.empty());
  EXPECT_EQ(f.gates[0], g);
}

TEST(Lint, ReportsCombLoopWithCycle) {
  Netlist n;
  const Port in = n.add_input("in", 1);
  const GateId a = n.add_gate(GateKind::kAnd2, in.bits[0], kNoGate);
  const GateId b = n.add_gate(GateKind::kNot, a);
  n.set_gate_input(a, 1, b);  // closes the loop a -> b -> a
  n.add_output("o", {b});
  const LintReport rep = lint(n);
  EXPECT_FALSE(rep.clean());
  ASSERT_TRUE(has_check(rep, LintCheck::kCombLoop));
  const LintFinding& f = find_check(rep, LintCheck::kCombLoop);
  EXPECT_EQ(f.severity, LintSeverity::kError);
  // The concrete cycle, both members present.
  EXPECT_EQ(f.gates.size(), 2u);
  EXPECT_NE(std::find(f.gates.begin(), f.gates.end(), a), f.gates.end());
  EXPECT_NE(std::find(f.gates.begin(), f.gates.end(), b), f.gates.end());
}

TEST(Lint, DffThroughRawAddGateLacksReset) {
  Netlist n;
  const Port in = n.add_input("in", 1);
  const GateId d = n.add_gate(GateKind::kDff, in.bits[0]);
  n.add_output("o", {d});
  const LintReport rep = lint(n);
  EXPECT_FALSE(rep.clean());
  ASSERT_TRUE(has_check(rep, LintCheck::kDffNoReset));
  EXPECT_EQ(find_check(rep, LintCheck::kDffNoReset).severity,
            LintSeverity::kError);

  // Assigning the reset value clears the finding.
  n.set_dff_reset(d, false);
  EXPECT_FALSE(has_check(lint(n), LintCheck::kDffNoReset));
}

TEST(Lint, AddDffAssignsReset) {
  Netlist n;
  const Port in = n.add_input("in", 1);
  n.add_output("o", {n.add_dff(in.bits[0], true)});
  EXPECT_TRUE(lint(n).clean());
}

TEST(Lint, DeadLogicIsInfoOnly) {
  Netlist n;
  const Port in = n.add_input("in", 2);
  n.add_gate(GateKind::kXor2, in.bits[0], in.bits[1]);  // drives nothing
  n.add_output("o", {n.add_gate(GateKind::kAnd2, in.bits[0], in.bits[1])});
  const LintReport rep = lint(n);
  EXPECT_TRUE(rep.clean());  // infos never make a design dirty
  ASSERT_TRUE(has_check(rep, LintCheck::kDeadLogic));
  EXPECT_EQ(find_check(rep, LintCheck::kDeadLogic).severity,
            LintSeverity::kInfo);
}

// A BUF chain hanging off a live net but driving nothing is dead logic
// like any other gate (the compiled kernel evaluates it), reported by
// original gate id.
TEST(Lint, DeadBufChainIsDeadLogic) {
  Netlist n;
  const Port in = n.add_input("in", 2);
  const GateId live = n.add_gate(GateKind::kAnd2, in.bits[0], in.bits[1]);
  const GateId buf1 = n.add_gate(GateKind::kBuf, live);
  const GateId buf2 = n.add_gate(GateKind::kBuf, buf1);
  n.add_output("o", {live});
  const LintReport rep = lint(n);
  EXPECT_TRUE(rep.clean());
  ASSERT_EQ(rep.findings.size(), 1u);
  const LintFinding& f = find_check(rep, LintCheck::kDeadLogic);
  EXPECT_EQ(f.severity, LintSeverity::kInfo);
  EXPECT_EQ(f.gates, (std::vector<GateId>{buf1, buf2}));
}

TEST(Lint, FaultOnDeadGateIsUnobservable) {
  Netlist n;
  const Port in = n.add_input("in", 2);
  const GateId dead = n.add_gate(GateKind::kXor2, in.bits[0], in.bits[1]);
  n.add_output("o", {n.add_gate(GateKind::kAnd2, in.bits[0], in.bits[1])});

  // enumerate_faults() skips dead gates; hand-craft a list that does not.
  FaultList fl;
  fl.faults.push_back({dead, 0, 0});
  fl.class_size.push_back(1);
  fl.total_uncollapsed = 1;
  const LintReport rep = lint(n, fl);
  EXPECT_FALSE(rep.clean());
  ASSERT_TRUE(has_check(rep, LintCheck::kUnobservableFault));
  EXPECT_EQ(find_check(rep, LintCheck::kUnobservableFault).severity,
            LintSeverity::kError);
}

TEST(Lint, EmptyComponentIsWarning) {
  Netlist n;
  const ComponentId hole = n.declare_component("HOLE");
  const ComponentId used = n.declare_component("USED");
  n.set_current_component(used);
  const Port in = n.add_input("in", 2);
  n.add_output("o", {n.add_gate(GateKind::kAnd2, in.bits[0], in.bits[1])});
  const LintReport rep = lint(n);
  EXPECT_FALSE(rep.clean());
  ASSERT_TRUE(has_check(rep, LintCheck::kEmptyComponent));
  const LintFinding& f = find_check(rep, LintCheck::kEmptyComponent);
  EXPECT_EQ(f.severity, LintSeverity::kWarning);
  EXPECT_EQ(f.component, hole);
}

TEST(Lint, UntaggedLiveLogicWarnsOnlyInTaggedDesigns) {
  // A design that never declares components is a standalone netlist —
  // no warning.
  Netlist plain;
  const Port in0 = plain.add_input("in", 2);
  plain.add_output(
      "o", {plain.add_gate(GateKind::kAnd2, in0.bits[0], in0.bits[1])});
  EXPECT_FALSE(has_check(lint(plain), LintCheck::kUntaggedGate));

  // A design with RT components must tag all live logic.
  Netlist tagged;
  const ComponentId c0 = tagged.declare_component("A");
  tagged.declare_component("B");
  tagged.set_current_component(c0);
  const Port in1 = tagged.add_input("in", 2);
  const GateId g0 =
      tagged.add_gate(GateKind::kAnd2, in1.bits[0], in1.bits[1]);
  tagged.set_current_component(kNoComponent);
  const GateId g1 = tagged.add_gate(GateKind::kNot, g0);
  tagged.set_current_component(c0);
  tagged.add_output("o", {tagged.add_gate(GateKind::kNot, g1)});
  const LintReport rep = lint(tagged);
  ASSERT_TRUE(has_check(rep, LintCheck::kUntaggedGate));
  const LintFinding& f = find_check(rep, LintCheck::kUntaggedGate);
  EXPECT_EQ(f.severity, LintSeverity::kWarning);
  ASSERT_FALSE(f.gates.empty());
  EXPECT_EQ(f.gates[0], g1);
}

TEST(Lint, LintOrThrowPassesWarningsThrowsErrors) {
  Netlist warn_only;
  warn_only.declare_component("HOLE");
  const Port in = warn_only.add_input("in", 1);
  warn_only.add_output("o", {warn_only.add_gate(GateKind::kNot, in.bits[0])});
  EXPECT_NO_THROW(lint_or_throw(warn_only, "warn-only"));

  Netlist bad;
  const Port in2 = bad.add_input("in", 1);
  bad.add_output("o", {bad.add_gate(GateKind::kAnd2, in2.bits[0], kNoGate)});
  EXPECT_THROW(lint_or_throw(bad, "bad"), NetlistError);
}

TEST(Lint, PrintReportMentionsEveryFinding) {
  Netlist n;
  const Port in = n.add_input("in", 1);
  n.add_output("o", {n.add_gate(GateKind::kAnd2, in.bits[0], kNoGate)});
  const LintReport rep = lint(n);
  std::ostringstream os;
  print_lint_report(os, rep);
  EXPECT_NE(os.str().find("unconnected-pin"), std::string::npos);
  EXPECT_NE(os.str().find("error"), std::string::npos);
}

// The acceptance bar for the shipped designs: both CPU netlists lint
// clean, including the fault-observability cross-check.
TEST(Lint, ShippedPlasmaNetlistIsClean) {
  const plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const FaultList faults = enumerate_faults(cpu.netlist);
  const LintReport rep = lint(cpu.netlist, faults);
  EXPECT_EQ(rep.errors, 0u);
  EXPECT_EQ(rep.warnings, 0u);
  EXPECT_TRUE(rep.clean());
}

TEST(Lint, ShippedParwanNetlistIsClean) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const FaultList faults = enumerate_faults(cpu.netlist);
  const LintReport rep = lint(cpu.netlist, faults);
  EXPECT_EQ(rep.errors, 0u);
  EXPECT_EQ(rep.warnings, 0u);
  EXPECT_TRUE(rep.clean());
}

}  // namespace
}  // namespace sbst::nl
