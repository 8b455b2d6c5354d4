// Process-isolation contract of the campaign supervisor: results are
// bit-identical to the in-process engine, a worker crash costs retries
// and then quarantines exactly one group (with the fatal signal in the
// structured error record) while every other group stays bit-identical,
// a transient crash is healed by a retry, a drained isolated campaign
// resumes — even in the other execution mode — and no worker process
// outlives the campaign that forked it.
#include "campaign/supervisor.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "netlist/fault.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"

namespace sbst::campaign {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

void expect_identical(const fault::FaultSimResult& a,
                      const fault::FaultSimResult& b, const char* what) {
  EXPECT_EQ(a.detected, b.detected) << what;
  EXPECT_EQ(a.simulated, b.simulated) << what;
  EXPECT_EQ(a.detect_cycle, b.detect_cycle) << what;
  EXPECT_EQ(a.timed_out, b.timed_out) << what;
  EXPECT_EQ(a.quarantined, b.quarantined) << what;
  EXPECT_EQ(a.good_cycles, b.good_cycles) << what;
}

struct ParwanIsolated {
  parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  nl::FaultList faults = nl::enumerate_faults(cpu.netlist);

  fault::EnvFactory env() const {
    return parwan::make_parwan_env_factory(cpu, st.image);
  }

  static CampaignOptions base_options() {
    CampaignOptions o;
    o.sim.max_cycles = 10000;
    o.sim.sample = 630;  // 10 groups, same shape as campaign_test
    o.sim.threads = 1;
    return o;
  }
};

const ParwanIsolated& fixture() {
  static const auto* f = new ParwanIsolated;
  return *f;
}

constexpr std::uint64_t kFp = 0x150a7edbeef0001ull;

TEST(Supervisor, IsolatedRunIsBitIdenticalToInProcess) {
  const auto& fx = fixture();
  CampaignOptions opt = ParwanIsolated::base_options();
  const CampaignResult inproc =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);

  CampaignOptions iso = ParwanIsolated::base_options();
  iso.isolate = true;
  iso.sim.threads = 3;
  iso.journal = temp_path("sup_identical.sbstj");
  std::remove(iso.journal.c_str());
  const CampaignResult isolated =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, iso);

  expect_identical(inproc.result, isolated.result, "isolated vs in-process");
  EXPECT_EQ(isolated.groups_done, isolated.groups_total);
  EXPECT_EQ(isolated.worker_restarts, 0u);
  EXPECT_TRUE(isolated.quarantined_groups.empty());
  EXPECT_FALSE(isolated.interrupted);

  // The journal an isolated run writes is a plain campaign journal: the
  // in-process mode can seed every group from it.
  CampaignOptions reread = ParwanIsolated::base_options();
  reread.journal = iso.journal;
  const CampaignResult seeded =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, reread);
  EXPECT_EQ(seeded.seeded_groups, seeded.groups_total);
  expect_identical(inproc.result, seeded.result, "journal crosses modes");
}

// The ISSUE acceptance scenario: a worker that abort()s on one
// designated group, every attempt. After max_group_retries + 1 attempts
// the group is quarantined with SIGABRT in the error record; every
// other group matches the clean run bit-for-bit; coverage turns into an
// explicit lower bound.
TEST(Supervisor, PoisonGroupIsQuarantinedAfterRetriesWithSignalRecorded) {
  const auto& fx = fixture();
  CampaignOptions clean_opt = ParwanIsolated::base_options();
  const CampaignResult clean =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, clean_opt);

  constexpr std::uint64_t kPoison = 4;
  CampaignOptions opt = ParwanIsolated::base_options();
  opt.isolate = true;
  opt.sim.threads = 2;
  opt.iso.max_group_retries = 2;
  opt.iso.crash_group = kPoison;  // crashes on every attempt
  opt.journal = temp_path("sup_poison.sbstj");
  std::remove(opt.journal.c_str());
  const CampaignResult res =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);

  // The campaign survives and finishes every group.
  EXPECT_EQ(res.groups_done, res.groups_total);
  EXPECT_FALSE(res.interrupted);
  ASSERT_EQ(res.quarantined_groups.size(), 1u);
  const QuarantinedGroup& q = res.quarantined_groups[0];
  EXPECT_EQ(q.group, kPoison);
  EXPECT_EQ(q.error.term_signal, SIGABRT);
  EXPECT_EQ(q.error.attempts, opt.iso.max_group_retries + 1);
  EXPECT_EQ(res.worker_restarts, opt.iso.max_group_retries + 1);
  EXPECT_EQ(res.faults_quarantined, 63u);

  // Slot-exact verdicts: the poison group's faults are quarantined (not
  // undetected, not detected); every other fault matches the clean run.
  std::size_t quarantined_slots = 0;
  for (std::size_t i = 0; i < fx.faults.size(); ++i) {
    if (i < res.result.quarantined.size() && res.result.quarantined[i]) {
      ++quarantined_slots;
      EXPECT_EQ(res.result.detected[i], 0);
      EXPECT_EQ(res.result.detect_cycle[i], -1);
      EXPECT_EQ(res.result.simulated[i], 1);
    } else {
      EXPECT_EQ(res.result.detected[i], clean.result.detected[i]) << i;
      EXPECT_EQ(res.result.detect_cycle[i], clean.result.detect_cycle[i])
          << i;
      EXPECT_EQ(res.result.simulated[i], clean.result.simulated[i]) << i;
    }
  }
  EXPECT_EQ(quarantined_slots, 63u);

  // Coverage is now an explicit lower bound.
  const fault::Coverage cov = fault::overall_coverage(fx.faults, res.result);
  EXPECT_TRUE(cov.is_lower_bound());
  EXPECT_GT(cov.quarantined, 0u);

  // The quarantine record is durable: a resumed campaign seeds it (and
  // everything else) without touching a worker.
  const CampaignResult reread =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
  EXPECT_EQ(reread.seeded_groups, reread.groups_total);
  ASSERT_EQ(reread.quarantined_groups.size(), 1u);
  EXPECT_EQ(reread.quarantined_groups[0].error.term_signal, SIGABRT);
  EXPECT_EQ(reread.worker_restarts, 0u);

  // retry_timed_out gives the quarantined group a fresh chance; without
  // the crash hook it now succeeds and the full result matches clean.
  CampaignOptions heal = opt;
  heal.iso.crash_group = -1;
  heal.retry_timed_out = true;
  const CampaignResult healed =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, heal);
  EXPECT_EQ(healed.seeded_groups, healed.groups_total - 1);
  EXPECT_TRUE(healed.quarantined_groups.empty());
  expect_identical(clean.result, healed.result, "healed vs clean");
}

TEST(Supervisor, TransientCrashIsHealedByARetry) {
  const auto& fx = fixture();
  CampaignOptions clean_opt = ParwanIsolated::base_options();
  const CampaignResult clean =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, clean_opt);

  CampaignOptions opt = ParwanIsolated::base_options();
  opt.isolate = true;
  opt.sim.threads = 2;
  opt.iso.max_group_retries = 2;
  opt.iso.crash_group = 6;
  opt.iso.crash_attempts = 1;  // first attempt dies, the retry succeeds
  const CampaignResult res =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);

  EXPECT_EQ(res.worker_restarts, 1u);
  EXPECT_TRUE(res.quarantined_groups.empty());
  EXPECT_EQ(res.faults_quarantined, 0u);
  EXPECT_EQ(res.groups_done, res.groups_total);
  expect_identical(clean.result, res.result, "retried vs clean");
}

TEST(Supervisor, DrainStopsDispatchAndResumesBitIdentical) {
  const auto& fx = fixture();
  CampaignOptions clean_opt = ParwanIsolated::base_options();
  const CampaignResult clean =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, clean_opt);

  const std::string path = temp_path("sup_drain.sbstj");
  std::remove(path.c_str());

  CampaignOptions opt = ParwanIsolated::base_options();
  opt.isolate = true;
  opt.sim.threads = 2;
  opt.journal = path;
  std::atomic<bool> cancel{false};
  opt.sim.cancel = &cancel;
  opt.sim.progress = [&cancel](const fault::Progress& p) {
    if (p.done >= 3) cancel.store(true);
  };
  const CampaignResult part =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
  ASSERT_TRUE(part.interrupted);
  ASSERT_GE(part.groups_done, 3u);
  ASSERT_LT(part.groups_done, part.groups_total);

  // Resume in isolated mode...
  CampaignOptions resume = ParwanIsolated::base_options();
  resume.isolate = true;
  resume.sim.threads = 2;
  resume.journal = path;
  const CampaignResult full =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, resume);
  EXPECT_TRUE(full.resumed);
  EXPECT_EQ(full.groups_done, full.groups_total);
  expect_identical(clean.result, full.result, "isolated resume");
}

/// True when this process has no child left, running or unreaped.
bool no_children_left() {
  errno = 0;
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

TEST(Supervisor, NoWorkerOutlivesQuarantineOrDrain) {
  // Every worker an isolated campaign forks is reaped before
  // run_campaign returns, whether its group was quarantined after
  // crashing or the campaign drained mid-run.
  const auto& fx = fixture();
  ASSERT_TRUE(no_children_left());

  CampaignOptions crash = ParwanIsolated::base_options();
  crash.isolate = true;
  crash.sim.threads = 2;
  crash.iso.max_group_retries = 1;
  crash.iso.crash_group = 3;  // every attempt dies
  const CampaignResult quarantined =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, crash);
  ASSERT_EQ(quarantined.quarantined_groups.size(), 1u);
  EXPECT_TRUE(no_children_left()) << "a worker outlived the quarantine";

  CampaignOptions drain = ParwanIsolated::base_options();
  drain.isolate = true;
  drain.sim.threads = 2;
  std::atomic<bool> cancel{false};
  drain.sim.cancel = &cancel;
  drain.sim.progress = [&cancel](const fault::Progress& p) {
    if (p.done >= 3) cancel.store(true);
  };
  const CampaignResult drained =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, drain);
  ASSERT_TRUE(drained.interrupted);
  EXPECT_TRUE(no_children_left()) << "a worker outlived the drain";

  // A hook that throws mid-campaign unwinds run_campaign, and the
  // workers are still reaped on the way out.
  CampaignOptions failing = ParwanIsolated::base_options();
  failing.isolate = true;
  failing.sim.threads = 2;
  failing.sim.progress = [](const fault::Progress& p) {
    if (p.done >= 3) throw std::runtime_error("progress sink failed");
  };
  EXPECT_THROW(
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, failing),
      std::runtime_error);
  EXPECT_TRUE(no_children_left()) << "a worker outlived the exception";
}

TEST(Supervisor, ResumeFromFullJournalReportsProgressForEverySeededGroup) {
  // Progress fires once per resolved group, seeded ones included, in
  // both execution modes.
  const auto& fx = fixture();
  CampaignOptions opt = ParwanIsolated::base_options();
  opt.isolate = true;
  opt.sim.threads = 2;
  opt.journal = temp_path("sup_progress.sbstj");
  std::remove(opt.journal.c_str());
  run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);

  for (const bool isolate : {true, false}) {
    CampaignOptions resume = opt;
    resume.isolate = isolate;
    std::size_t calls = 0;
    fault::Progress last;
    resume.sim.progress = [&](const fault::Progress& p) {
      ++calls;
      last = p;
    };
    const CampaignResult res =
        run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, resume);
    EXPECT_EQ(res.seeded_groups, res.groups_total);
    EXPECT_EQ(calls, res.groups_total) << (isolate ? "isolate" : "threads");
    EXPECT_EQ(last.done, res.groups_total);
    EXPECT_EQ(last.seeded, res.groups_total);
    EXPECT_EQ(res.worker_restarts, 0u);
  }
}

/// Environment that hoards memory the way a leaking testbench would:
/// every construction grabs a fresh 64 MiB mapping. Under a worker
/// RLIMIT_AS that allocation can never be granted.
class HungryEnv final : public fault::Environment {
 public:
  HungryEnv() : hoard_(64 * 1024 * 1024, 0xAB) {}
  void drive(sim::PortIo&, std::uint64_t) override {}
  bool observe(const sim::PortIo&, std::uint64_t) override { return true; }

 private:
  std::vector<std::uint8_t> hoard_;
};

nl::Netlist make_small_netlist() {
  nl::Netlist n;
  const auto& in = n.add_input("in", 8);
  std::vector<nl::GateId> nets(in.bits.begin(), in.bits.end());
  std::vector<nl::GateId> outs;
  for (std::size_t i = 0; i < 40; ++i) {
    const nl::GateId g =
        n.add_gate(i % 2 ? nl::GateKind::kAnd2 : nl::GateKind::kXor2,
                   nets[(i * 5 + 1) % nets.size()],
                   nets[(i * 11 + 3) % nets.size()]);
    nets.push_back(g);
    if (i % 2 == 0) outs.push_back(g);
  }
  n.add_output("o", outs);
  return n;
}

TEST(Supervisor, WorkerMemoryLimitTurnsOomIntoQuarantineNotCampaignDeath) {
  // The 64 MiB-per-group HungryEnv can never be satisfied under a small
  // RLIMIT_AS: every attempt on every group OOMs its own worker. The
  // campaign must still terminate with every group quarantined rather
  // than crash, hang, or take the test runner down — that containment
  // is the entire point of process isolation.
  const nl::Netlist n = make_small_netlist();
  const nl::FaultList faults = nl::enumerate_faults(n);
  const auto env = []() { return std::make_unique<HungryEnv>(); };

  CampaignOptions opt;
  opt.sim.threads = 1;
  opt.sim.max_cycles = 256;
  // Pin the sweep kernel: the OOM must happen inside the *workers*, and
  // the event engine deliberately never constructs the Environment in
  // per-group simulation (the supervisor records the good trace once,
  // outside any rlimit), so under it HungryEnv cannot OOM a worker.
  opt.sim.engine = fault::Engine::kSweep;
  opt.isolate = true;
  opt.iso.max_group_retries = 0;
  opt.iso.worker_mem_mb = 32;
  const CampaignResult res = run_campaign(n, faults, env, kFp ^ 0x99, opt);

  EXPECT_EQ(res.groups_done, res.groups_total);
  EXPECT_EQ(res.quarantined_groups.size(), res.groups_total);
  EXPECT_GE(res.worker_restarts, res.groups_total);
  for (const QuarantinedGroup& q : res.quarantined_groups) {
    // Death by rlimit shows up as SIGABRT (uncaught bad_alloc) or
    // SIGSEGV/SIGKILL — never as a clean exit 0.
    EXPECT_TRUE(q.error.term_signal != 0 || q.error.exit_code != 0)
        << "group " << q.group;
  }
}

}  // namespace
}  // namespace sbst::campaign
