// The telemetry correctness contract, end to end: for a pinned engine
// the counter fields of the --metrics stream (group, faults, detected,
// verdicts, cycles, gates_evaluated, sim_cycles) are bit-stable across
// thread counts, process isolation, and kill-and-resume — only the
// run-local fields (seeded, attempts, duration, rusage) may differ.
// This is what lets CI diff `sbst stats` output between a clean and an
// interrupted campaign.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "netlist/fault.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/stats.h"

namespace sbst::campaign {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

struct ParwanFixture {
  parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  nl::FaultList faults = nl::enumerate_faults(cpu.netlist);

  fault::EnvFactory env() const {
    return parwan::make_parwan_env_factory(cpu, st.image);
  }

  static CampaignOptions base_options(unsigned threads) {
    CampaignOptions o;
    o.sim.max_cycles = 10000;
    o.sim.sample = 630;  // 10 groups
    o.sim.threads = threads;
    o.sim.engine = fault::Engine::kEvent;  // counters are engine-specific
    return o;
  }
};

const ParwanFixture& fixture() {
  static const auto* f = new ParwanFixture;
  return *f;
}

constexpr std::uint64_t kFp = 0x7e1e7e1e5b575b57ull;

std::map<std::uint64_t, telemetry::GroupMetric> load_metrics(
    const std::string& path) {
  std::map<std::uint64_t, telemetry::GroupMetric> by_group;
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::string line;
  while (std::getline(in, line)) {
    telemetry::GroupMetric m;
    EXPECT_TRUE(telemetry::metric_from_json(line, &m)) << line;
    EXPECT_EQ(by_group.count(m.group), 0u)
        << "group " << m.group << " recorded twice";
    by_group[m.group] = m;
  }
  return by_group;
}

void expect_counters_equal(
    const std::map<std::uint64_t, telemetry::GroupMetric>& a,
    const std::map<std::uint64_t, telemetry::GroupMetric>& b,
    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (const auto& [group, ma] : a) {
    const auto it = b.find(group);
    ASSERT_NE(it, b.end()) << what << " group " << group;
    const telemetry::GroupMetric& mb = it->second;
    EXPECT_EQ(ma.faults, mb.faults) << what << " group " << group;
    EXPECT_EQ(ma.detected, mb.detected) << what << " group " << group;
    EXPECT_EQ(ma.engine, mb.engine) << what << " group " << group;
    EXPECT_EQ(ma.timed_out, mb.timed_out) << what << " group " << group;
    EXPECT_EQ(ma.quarantined, mb.quarantined) << what << " group " << group;
    EXPECT_EQ(ma.cycles, mb.cycles) << what << " group " << group;
    EXPECT_EQ(ma.gates_evaluated, mb.gates_evaluated)
        << what << " group " << group;
    EXPECT_EQ(ma.sim_cycles, mb.sim_cycles) << what << " group " << group;
    // seeded/attempts/duration_ms/rusage are run-local by design.
  }
}

TEST(CampaignTelemetry, CountersBitStableAcrossThreadsAndIsolate) {
  const auto& fx = fixture();

  const std::string ref_path = temp_path("tele_ref.ndjson");
  CampaignOptions ref_opt = ParwanFixture::base_options(1);
  ref_opt.telemetry.metrics_path = ref_path;
  const CampaignResult ref =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, ref_opt);
  ASSERT_FALSE(ref.interrupted);
  const auto reference = load_metrics(ref_path);
  ASSERT_EQ(reference.size(), ref.groups_total);

  for (unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const std::string path = temp_path("tele_threads.ndjson");
    CampaignOptions opt = ParwanFixture::base_options(threads);
    opt.telemetry.metrics_path = path;
    run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
    expect_counters_equal(reference, load_metrics(path), "threads");
  }

  const std::string iso_path = temp_path("tele_isolate.ndjson");
  CampaignOptions iso = ParwanFixture::base_options(1);
  iso.isolate = true;
  iso.sim.threads = 2;
  iso.telemetry.metrics_path = iso_path;
  run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, iso);
  const auto isolated = load_metrics(iso_path);
  expect_counters_equal(reference, isolated, "isolate");
  for (const auto& [group, m] : isolated) {
    EXPECT_EQ(m.attempts, 1u) << group;  // no worker ever died
  }
}

TEST(CampaignTelemetry, ResumedCampaignReplaysSeededCountersVerbatim) {
  const auto& fx = fixture();

  const std::string ref_path = temp_path("tele_resume_ref.ndjson");
  CampaignOptions ref_opt = ParwanFixture::base_options(1);
  ref_opt.telemetry.metrics_path = ref_path;
  run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, ref_opt);
  const auto reference = load_metrics(ref_path);

  // Interrupt a journaled campaign after a few groups...
  const std::string journal = temp_path("tele_resume.sbstj");
  std::remove(journal.c_str());
  CampaignOptions part = ParwanFixture::base_options(1);
  part.journal = journal;
  std::atomic<bool> cancel{false};
  part.sim.cancel = &cancel;
  part.sim.progress = [&cancel](const fault::Progress& p) {
    if (p.done >= 3) cancel.store(true);
  };
  const CampaignResult interrupted =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, part);
  ASSERT_TRUE(interrupted.interrupted);
  ASSERT_LT(interrupted.groups_done, interrupted.groups_total);

  // ...and resume it with metrics on. The stream covers every group —
  // journal-seeded ones flagged as such — and the counter fields match
  // the uninterrupted reference bit for bit.
  const std::string path = temp_path("tele_resume.ndjson");
  const std::string status = temp_path("tele_resume_status.json");
  CampaignOptions resume = ParwanFixture::base_options(2);
  resume.journal = journal;
  resume.telemetry.metrics_path = path;
  resume.telemetry.status_path = status;
  const CampaignResult full =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, resume);
  ASSERT_TRUE(full.resumed);
  ASSERT_EQ(full.groups_done, full.groups_total);

  const auto resumed = load_metrics(path);
  expect_counters_equal(reference, resumed, "resumed");
  std::size_t seeded = 0;
  for (const auto& [group, m] : resumed) seeded += m.seeded ? 1 : 0;
  EXPECT_EQ(seeded, full.seeded_groups);
  EXPECT_GE(seeded, 3u);

  // The aggregate counter lines CI diffs are equal, too.
  std::ifstream ref_in(ref_path), res_in(path);
  const telemetry::MetricsSummary sr = telemetry::summarize_metrics(ref_in);
  const telemetry::MetricsSummary ss = telemetry::summarize_metrics(res_in);
  EXPECT_EQ(sr.faults, ss.faults);
  EXPECT_EQ(sr.detected, ss.detected);
  EXPECT_EQ(sr.gates_evaluated, ss.gates_evaluated);
  EXPECT_EQ(sr.sim_cycles, ss.sim_cycles);
  EXPECT_EQ(sr.event_groups, ss.event_groups);
  EXPECT_EQ(sr.sweep_groups, ss.sweep_groups);

  // The terminal status file reflects the completed resume.
  std::ifstream st_in(status, std::ios::binary);
  std::ostringstream st_ss;
  st_ss << st_in.rdbuf();
  std::map<std::string, telemetry::JsonValue> st;
  ASSERT_TRUE(telemetry::parse_flat_json_object(st_ss.str(), &st));
  EXPECT_EQ(st["state"].str, "done");
  EXPECT_EQ(st["groups_done"].u64, full.groups_total);
  EXPECT_EQ(st["groups_seeded"].u64, full.seeded_groups);
  EXPECT_EQ(st["gates_evaluated"].u64, sr.gates_evaluated);
}

// Isolated mode with a seeded crash: the metric of the crash-then-
// succeed group carries the consumed attempts and the dead attempt's
// rusage, and a quarantined group's metric reports rusage across every
// attempt — work the campaign spent even though no verdict came back.
// In-process sweep campaigns simulate up to four groups per pass,
// --isolate workers one at a time: the counter lines of `sbst stats` must
// not tell the two apart.
TEST(CampaignTelemetry, PairedSweepCounterLinesMatchUnpairedIsolate) {
  const auto& fx = fixture();
  const auto counter_lines = [&](bool isolate) {
    const std::string path = temp_path(isolate ? "tele_sweep_isolate.ndjson"
                                               : "tele_sweep_paired.ndjson");
    CampaignOptions opt = ParwanFixture::base_options(2);
    opt.sim.engine = fault::Engine::kSweep;
    opt.isolate = isolate;
    opt.telemetry.metrics_path = path;
    run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
    std::ifstream in(path);
    std::ostringstream printed;
    telemetry::print_metrics_summary(printed, telemetry::summarize_metrics(in));
    std::istringstream lines(printed.str());
    std::string line, counters;
    while (std::getline(lines, line)) {
      for (const char* prefix : {"engines:", "verdicts:", "counters:"}) {
        if (line.rfind(prefix, 0) == 0) counters += line + "\n";
      }
    }
    return counters;
  };
  const std::string paired = counter_lines(false);
  EXPECT_NE(paired.find("counters:"), std::string::npos) << paired;
  EXPECT_EQ(paired, counter_lines(true));
}

TEST(CampaignTelemetry, IsolateMetricsCarryAttemptsAndDeadWorkerRusage) {
  const auto& fx = fixture();

  const std::string path = temp_path("tele_crash.ndjson");
  CampaignOptions opt = ParwanFixture::base_options(1);
  opt.isolate = true;
  opt.sim.threads = 2;
  opt.iso.crash_group = 4;
  opt.iso.crash_attempts = 1;  // first attempt dies, retry succeeds
  opt.telemetry.metrics_path = path;
  const CampaignResult res =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
  EXPECT_EQ(res.worker_restarts, 1u);
  const auto metrics = load_metrics(path);
  ASSERT_EQ(metrics.count(4), 1u);
  const telemetry::GroupMetric& crashed = metrics.at(4);
  EXPECT_EQ(crashed.attempts, 2u);
  EXPECT_FALSE(crashed.quarantined);
  EXPECT_GT(crashed.max_rss_kb, 0u) << "dead attempt rusage lost";

  const std::string qpath = temp_path("tele_quarantine.ndjson");
  CampaignOptions qopt = ParwanFixture::base_options(1);
  qopt.isolate = true;
  qopt.sim.threads = 2;
  qopt.iso.max_group_retries = 2;
  qopt.iso.crash_group = 4;  // every attempt dies
  qopt.telemetry.metrics_path = qpath;
  const CampaignResult qres =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, qopt);
  ASSERT_EQ(qres.quarantined_groups.size(), 1u);
  const auto qmetrics = load_metrics(qpath);
  const telemetry::GroupMetric& q = qmetrics.at(4);
  EXPECT_TRUE(q.quarantined);
  EXPECT_EQ(q.attempts, 3u);  // max_group_retries + 1
  EXPECT_EQ(q.engine, "none");
  EXPECT_EQ(q.gates_evaluated, 0u);
  EXPECT_GT(q.max_rss_kb, 0u);
  // The quarantine record itself now carries the all-attempts rusage.
  EXPECT_EQ(qres.quarantined_groups[0].error.max_rss_kb, q.max_rss_kb);
}

}  // namespace
}  // namespace sbst::campaign
