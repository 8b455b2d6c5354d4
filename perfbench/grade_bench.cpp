// Full-fault-list grading benchmark driver.
//
// Makes, from one process, the public calls `sbst grade` makes for the
// paper's Table 5 workload — Plasma Phase A+B against the full collapsed
// single stuck-at fault list — and times them from outside:
//
//   setup:    build_plasma_cpu, classify_plasma + build_phase_ab,
//             run_gate_cpu (the halting check), enumerate_faults and the
//             cmd_grade campaign fingerprint;
//   campaign: run_campaign with sample = 0 and max_cycles = 10'000'000,
//             under the options of one workload (kWorkloads below).
//
// Every campaign repetition starts without journal records, and its
// verdicts are checked against the committed reference digest
// (verdicts.ref). A campaign that throws, drains, times out or
// quarantines a group, or disagrees with the reference, is a failed
// operation.
//
// Untraced runs (--trace 0) report the end-to-end metrics as medians over
// repeated setups and campaigns. Traced runs (--trace 1) call each layer
// once, serially, inside spans recorded here around the calls, and
// report the per-layer metrics; the spans are written to the scratch
// directory when the run ends. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; diagnostics go to stderr.
//
//   grade_bench --workload W --seed N --seconds S --trace 0|1
//               --scratch DIR --oracle FILE [--smoke]
//   grade_bench --bless FILE --scratch DIR
//   grade_bench --build-info
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "core/classify.h"
#include "core/program.h"
#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "netlist/compiled.h"
#include "netlist/fault.h"
#include "plasma/cpu.h"
#include "plasma/testbench.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "util/argparse.h"
#include "util/parallel.h"

namespace {

using namespace sbst;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMaxCycles = 10'000'000;
/// --smoke grades only shard 0 of this many: groups 0, 64, ..., 576 (10
/// of the 631), through the same run_campaign path.
constexpr std::uint32_t kSmokeShards = 64;
/// Setup-only repetitions per untraced run. Every campaign repetition
/// sets up too; the reported setup_s is the median over all of them.
constexpr int kSetupReps = 20;
/// Campaigns per untraced run: at least kMinGrades, then more until
/// --seconds have passed (capped at kMaxGrades).
constexpr int kMinGrades = 3;
constexpr int kMaxGrades = 64;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Quantile of `v` with linear interpolation between order statistics
/// (q = 0.5 is the median).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  fault::Engine engine;
  unsigned threads;  // 0 = one per hardware thread (sbst grade's default)
  bool isolate;      // forked workers, one per hardware thread
  bool journal;      // durability = flush
  bool metrics;      // per-group NDJSON sink
};

// The kernel flavor is left at FaultSimOptions' default, which is also
// `sbst grade`'s default.
constexpr Workload kWorkloads[] = {
    {"ab_full_mt", fault::Engine::kEvent, 0, false, true, true},
    {"ab_full_1t", fault::Engine::kEvent, 1, false, false, false},
    {"ab_isolate", fault::Engine::kEvent, 0, true, true, false},
    {"ab_sweep_mt", fault::Engine::kSweep, 0, false, false, false},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw util::ArgError("unknown --workload '" + name + "'");
}

unsigned effective_threads(const Workload& w) {
  return w.threads == 0 ? util::hardware_threads() : w.threads;
}

// --- spans ---------------------------------------------------------------------

/// In-memory span recorder for traced runs, driven from the benchmark's
/// own thread around each call into a layer. A disabled tracer records
/// nothing, so untraced runs pay one branch per scope.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer* t, int id) : t_(t), id_(id) {}
    ~Scope() {
      if (id_ >= 0) t_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Scope scope(std::string name) {
    if (!enabled_) return Scope(this, -1);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), Clock::now(), {},
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return Scope(this, id);
  }

  /// A span measured by other means (e.g. from progress callbacks).
  void add(std::string name, Clock::time_point start, Clock::time_point end,
           int parent) {
    if (enabled_) spans_.push_back({std::move(name), start, end, parent});
  }

  const std::vector<Span>& spans() const { return spans_; }

  double duration_ms(const std::string& name) const {
    for (const Span& s : spans_) {
      if (s.name == name) return ms_between(s.start, s.end);
    }
    return 0.0;
  }

  /// Self time of span i: its duration minus the union of its children.
  double self_ms(std::size_t i) const {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> kids;
    for (const Span& s : spans_) {
      if (s.parent == static_cast<int>(i)) kids.emplace_back(s.start, s.end);
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    Clock::time_point reach = spans_[i].start;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, spans_[i].end);
      if (b > a) {
        covered += ms_between(a, b);
        reach = b;
      }
    }
    return ms_between(spans_[i].start, spans_[i].end) - covered;
  }

  void write(const std::string& path, const std::string& run_id,
             const std::string& workload, std::uint64_t seed) const {
    const Clock::time_point t0 = spans_.empty() ? Clock::now()
                                                : spans_.front().start;
    std::string out = "{\"run_id\": ";
    telemetry::append_json_string(out, run_id);
    out += ", \"workload\": ";
    telemetry::append_json_string(out, workload);
    out += ", \"seed\": " + std::to_string(seed) + ", \"spans\": [\n";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += "  {\"run_id\": ";
      telemetry::append_json_string(out, run_id);
      out += ", \"id\": " + std::to_string(i) + ", \"name\": ";
      telemetry::append_json_string(out, s.name);
      std::snprintf(buf, sizeof(buf),
                    ", \"start_ms\": %.6f, \"end_ms\": %.6f, \"parent\": %d}",
                    ms_between(t0, s.start), ms_between(t0, s.end), s.parent);
      out += buf;
      out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << out;
    if (!f) throw std::runtime_error("cannot write " + path);
  }

 private:
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    open_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- setup -------------------------------------------------------------------

struct Setup {
  plasma::PlasmaCpu cpu;
  isa::Program program;
  std::uint64_t good_cycles = 0;
  nl::FaultList faults;
  std::uint64_t fingerprint = 0;
};

/// Everything `sbst grade` does before run_campaign, for the Phase A+B
/// program (built in-process instead of assembled from a listing).
std::unique_ptr<Setup> run_setup(Tracer& tr) {
  auto s = std::make_unique<Setup>();
  {
    auto span = tr.scope("plasma.elaborate");
    s->cpu = plasma::build_plasma_cpu();
  }
  {
    auto span = tr.scope("core.program");
    const auto classified = core::classify_plasma(s->cpu);
    s->program = core::build_phase_ab(classified).image;
  }
  {
    auto span = tr.scope("sim.good_run");
    const plasma::GateRunResult gr =
        plasma::run_gate_cpu(s->cpu, s->program, kMaxCycles);
    if (!gr.halted) {
      throw std::runtime_error("Phase A+B does not halt on the gate-level CPU");
    }
    s->good_cycles = gr.cycles;
  }
  {
    auto span = tr.scope("netlist.enumerate");
    s->faults = nl::enumerate_faults(s->cpu.netlist);
  }
  // cmd_grade's fingerprint formula, with sample = 0 and the default
  // sample seed.
  const fault::FaultSimOptions sim;
  std::uint64_t fp = campaign::fingerprint_init();
  fp = campaign::fingerprint_bytes(fp, s->program.words.data(),
                                   s->program.words.size() * 4);
  fp = campaign::fingerprint_u64(fp, s->cpu.netlist.size());
  fp = campaign::fingerprint_u64(fp, s->faults.size());
  fp = campaign::fingerprint_u64(fp, 0);
  fp = campaign::fingerprint_u64(fp, sim.sample_seed);
  fp = campaign::fingerprint_u64(fp, kMaxCycles);
  s->fingerprint = fp;
  return s;
}

// --- verdict oracle ------------------------------------------------------------

/// FNV-1a 64, kept local so the oracle shares no code with the engine.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void put(T v) {
    bytes(&v, sizeof(v));
  }
};

/// Digest of one group's verdicts: per fault, in group slot order, its
/// index, site (gate, pin, stuck-at value), detected flag and
/// first-detect cycle.
template <typename Detected, typename Cycle>
std::uint64_t group_digest(const nl::FaultList& faults,
                           const fault::GroupPlan& plan, std::size_t group,
                           Detected detected, Cycle cycle) {
  Fnv f;
  const std::uint32_t n = plan.group_count(group);
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    const std::size_t i = plan.active()[group * 63 + slot];
    const nl::Fault& ft = faults.faults[i];
    f.put<std::uint64_t>(i);
    f.put<std::uint32_t>(ft.gate);
    f.put<std::uint8_t>(ft.pin);
    f.put<std::uint8_t>(ft.stuck);
    f.put<std::uint8_t>(detected(slot, i) ? 1 : 0);
    f.put<std::int64_t>(cycle(slot, i));
  }
  return f.h;
}

std::uint64_t result_group_digest(const nl::FaultList& faults,
                                  const fault::GroupPlan& plan,
                                  std::size_t group,
                                  const fault::FaultSimResult& r) {
  return group_digest(
      faults, plan, group,
      [&](std::uint32_t, std::size_t i) { return r.detected[i] != 0; },
      [&](std::uint32_t, std::size_t i) { return r.detect_cycle[i]; });
}

std::uint64_t record_digest(const nl::FaultList& faults,
                            const fault::GroupPlan& plan,
                            const fault::GroupRecord& rec) {
  return group_digest(
      faults, plan, rec.group,
      [&](std::uint32_t s, std::size_t) { return (rec.detected_mask >> s) & 1; },
      [&](std::uint32_t s, std::size_t) { return rec.detect_cycle[s]; });
}

/// The committed reference: campaign digest, the uncollapsed counts
/// behind the headline coverage, and one digest per group.
struct Oracle {
  std::uint64_t faults_collapsed = 0;
  std::uint64_t faults_uncollapsed = 0;
  std::uint64_t detected_uncollapsed = 0;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> groups;
};

std::uint64_t campaign_digest(const Oracle& o) {
  Fnv f;
  f.put(o.faults_collapsed);
  f.put(o.faults_uncollapsed);
  f.put(o.detected_uncollapsed);
  for (std::uint64_t g : o.groups) f.put(g);
  return f.h;
}

Oracle load_oracle(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open oracle " + path);
  Oracle o;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "faults_collapsed") {
      ls >> o.faults_collapsed;
    } else if (key == "faults_uncollapsed") {
      ls >> o.faults_uncollapsed;
    } else if (key == "detected_uncollapsed") {
      ls >> o.detected_uncollapsed;
    } else if (key == "digest") {
      ls >> std::hex >> o.digest;
    } else if (key == "group") {
      std::size_t g = 0;
      std::uint64_t d = 0;
      ls >> g >> std::hex >> d;
      if (g != o.groups.size()) {
        throw std::runtime_error("oracle groups out of order at " +
                                 std::to_string(g));
      }
      o.groups.push_back(d);
      continue;
    } else {
      throw std::runtime_error("oracle: unknown key '" + key + "'");
    }
    if (ls.fail()) throw std::runtime_error("oracle: bad line '" + line + "'");
  }
  if (o.groups.empty() || campaign_digest(o) != o.digest) {
    throw std::runtime_error("oracle " + path + " is inconsistent");
  }
  return o;
}

/// Groups a run grades: all of them, or the smoke shard.
std::vector<std::size_t> graded_groups(const fault::GroupPlan& plan,
                                       bool smoke) {
  std::vector<std::size_t> out;
  for (std::size_t g = 0; g < plan.num_groups(); ++g) {
    if (!smoke || g % kSmokeShards == 0) out.push_back(g);
  }
  return out;
}

/// Checks a campaign result against the oracle. Returns an empty string
/// when it matches, else the first discrepancy. Full runs must match the
/// campaign digest; smoke runs their groups' digests.
std::string check_result(const Setup& s, const fault::GroupPlan& plan,
                         const fault::FaultSimResult& r, const Oracle& o,
                         bool smoke) {
  const nl::FaultList& faults = s.faults;
  if (faults.size() != o.faults_collapsed ||
      faults.total_uncollapsed != o.faults_uncollapsed ||
      plan.num_groups() != o.groups.size()) {
    return "fault universe differs from the oracle";
  }
  Oracle got = o;
  got.detected_uncollapsed = 0;
  for (std::size_t g : graded_groups(plan, smoke)) {
    got.groups[g] = result_group_digest(faults, plan, g, r);
    if (got.groups[g] != o.groups[g]) {
      return "verdicts of group " + std::to_string(g) +
             " differ from the oracle";
    }
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (r.timed_out[i] || r.quarantined[i]) {
      return "fault " + std::to_string(i) + " has no verdict";
    }
    if (r.detected[i]) got.detected_uncollapsed += faults.class_size[i];
  }
  if (!smoke && campaign_digest(got) != o.digest) {
    return "campaign digest differs from the oracle (detected " +
           std::to_string(got.detected_uncollapsed) + " of " +
           std::to_string(faults.total_uncollapsed) + " uncollapsed, want " +
           std::to_string(o.detected_uncollapsed) + ")";
  }
  return {};
}

// --- campaigns -----------------------------------------------------------------

struct Paths {
  std::string scratch;
  std::string path(const std::string& leaf) const {
    return (std::filesystem::path(scratch) / leaf).string();
  }
};

campaign::CampaignOptions campaign_options(const Workload& w,
                                           const Paths& paths, bool smoke) {
  campaign::CampaignOptions c;
  c.isolate = w.isolate;
  if (w.journal) c.journal = paths.path(std::string(w.name) + ".sbstj");
  if (w.metrics) {
    c.telemetry.metrics_path = paths.path(std::string(w.name) + ".ndjson");
  }
  c.durability = util::Durability::kFlush;
  c.telemetry.durability = c.durability;
  c.sim.engine = w.engine;
  c.sim.sample = 0;
  c.sim.max_cycles = kMaxCycles;
  c.sim.threads = w.threads;
  if (smoke) {
    c.sim.shard_count = kSmokeShards;
    c.sim.shard_index = 0;
  }
  return c;
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double max_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Grade {
  double wall_s = 0;
  double cpu_s = 0;  // this process and its reaped workers
  std::string failure;  // empty = the operation succeeded
  std::size_t worker_restarts = 0;
  Clock::time_point start, end;
  std::vector<Clock::time_point> completions;  // traced runs only
};

/// One fresh campaign: no journal records, no metrics lines.
Grade grade_once(const Setup& s, const Workload& w, const Paths& paths,
                 const Oracle& o, bool smoke, bool record_progress) {
  campaign::CampaignOptions opt = campaign_options(w, paths, smoke);
  if (!opt.journal.empty()) std::filesystem::remove(opt.journal);
  if (!opt.telemetry.metrics_path.empty()) {
    std::filesystem::remove(opt.telemetry.metrics_path);
  }
  Grade g;
  if (record_progress) {
    g.completions.reserve(o.groups.size());
    opt.sim.progress = [&g](const fault::Progress&) {
      g.completions.push_back(Clock::now());
    };
  }
  const fault::GroupPlan plan(s.faults, opt.sim);
  const double cpu0 = cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN);
  g.start = Clock::now();
  try {
    const campaign::CampaignResult cr = campaign::run_campaign(
        s.cpu.netlist, s.faults,
        plasma::make_cpu_env_factory(s.cpu, s.program), s.fingerprint, opt);
    g.end = Clock::now();
    g.worker_restarts = cr.worker_restarts;
    if (cr.interrupted) {
      g.failure = "campaign drained";
    } else if (cr.faults_timed_out != 0 || !cr.quarantined_groups.empty()) {
      g.failure = "campaign timed out or quarantined a group";
    } else {
      g.failure = check_result(s, plan, cr.result, o, smoke);
    }
  } catch (const std::exception& e) {
    g.end = Clock::now();
    g.failure = std::string("campaign threw: ") + e.what();
  }
  g.wall_s = seconds_between(g.start, g.end);
  g.cpu_s = cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN) - cpu0;
  if (!g.failure.empty()) {
    std::fprintf(stderr, "%s: failed operation: %s\n", w.name,
                 g.failure.c_str());
  }
  return g;
}

// --- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    telemetry::append_json_string(out, metrics[i].name);
    std::snprintf(buf, sizeof(buf), ": {\"value\": %.12g, \"unit\": ",
                  metrics[i].value);
    out += buf;
    telemetry::append_json_string(out, metrics[i].unit);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 10;
  unsigned trace = 0;
  std::string scratch;
  std::string oracle;
  std::string bless;
  bool smoke = false;
  bool build_info = false;
};

// --- untraced run: end-to-end metrics --------------------------------------------

/// What one repetition reports back from its child process.
struct Sample {
  double setup_s = 0;
  double grade_s = -1;  // < 0: a setup-only repetition
  double cpu_s = 0;
  double rss_mb = 0;
  std::uint64_t fingerprint = 0;
  bool ok = false;
};

/// Runs one repetition in a forked child, so that each starts from a
/// fresh heap like a separate `sbst grade` process: neither heap growth
/// nor the order of earlier repetitions leaks into its timings or its
/// peak RSS. The parent stays single-threaded and reaps the child.
Sample run_forked(const std::function<Sample()>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    ::close(fds[0]);
    Sample s;
    try {
      s = body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "repetition failed: %s\n", e.what());
      s.ok = false;
    }
    const bool sent = ::write(fds[1], &s, sizeof(s)) == sizeof(s);
    std::fflush(stderr);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  Sample s;
  std::size_t got = 0;
  while (got < sizeof(s)) {
    const ssize_t n =
        ::read(fds[0], reinterpret_cast<char*>(&s) + got, sizeof(s) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof(s) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "repetition process died (status %d)\n", status);
    return Sample{};
  }
  return s;
}

int run_untraced(const Args& a, const Workload& w, const Oracle& o) {
  const Paths paths{a.scratch};
  auto setup_only = [&] {
    Tracer off(false);
    Sample s;
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Setup> setup = run_setup(off);
    s.setup_s = seconds_between(t0, Clock::now());
    s.fingerprint = setup->fingerprint;
    s.ok = true;
    return s;
  };
  auto setup_and_grade = [&] {
    Tracer off(false);
    Sample s;
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Setup> setup = run_setup(off);
    s.setup_s = seconds_between(t0, Clock::now());
    s.fingerprint = setup->fingerprint;
    const Grade g = grade_once(*setup, w, paths, o, a.smoke, false);
    s.grade_s = g.wall_s;
    s.cpu_s = g.cpu_s;
    s.rss_mb = std::max(max_rss_mb(RUSAGE_SELF), max_rss_mb(RUSAGE_CHILDREN));
    s.ok = g.failure.empty();
    return s;
  };

  // The seed only orders how the setup-only repetitions interleave with
  // the campaigns, so an order effect cannot pass for a gain.
  std::vector<char> order(kSetupReps, 's');
  order.insert(order.end(), kMaxGrades, 'g');
  std::mt19937_64 rng(a.seed);
  std::shuffle(order.begin(), order.end(), rng);

  const Clock::time_point begin = Clock::now();
  std::vector<double> setup_s, grade_s, cpu_s, rss_mb;
  std::size_t attempted = 0, failed = 0;
  bool setup_ok = true;
  std::uint64_t fingerprint = 0;
  for (char op : order) {
    if (op == 'g' && static_cast<int>(grade_s.size()) >= kMinGrades &&
        seconds_between(begin, Clock::now()) >=
            static_cast<double>(a.seconds)) {
      continue;  // time is up; the remaining setups still run
    }
    const Sample s = run_forked(op == 's' ? std::function<Sample()>(setup_only)
                                          : setup_and_grade);
    if (s.fingerprint == 0 || (fingerprint != 0 && s.fingerprint != fingerprint)) {
      std::fprintf(stderr, "setup failed or is not deterministic\n");
      setup_ok = false;
    }
    fingerprint = s.fingerprint;
    setup_s.push_back(s.setup_s);
    if (op == 's') continue;
    ++attempted;
    if (!s.ok) ++failed;
    grade_s.push_back(s.grade_s);
    cpu_s.push_back(s.cpu_s);
    rss_mb.push_back(s.rss_mb);
  }

  std::fprintf(stderr, "%s: %zu campaigns, %zu setups, seed %llu\n", w.name,
               grade_s.size(), setup_s.size(),
               static_cast<unsigned long long>(a.seed));
  for (const auto& [name, v] : {std::pair{"grade_s", &grade_s},
                                std::pair{"setup_s", &setup_s}}) {
    std::fprintf(stderr, "  %s samples:", name);
    for (double x : *v) std::fprintf(stderr, " %.4f", x);
    std::fprintf(stderr, "\n");
  }
  print_result(setup_ok && failed == 0, attempted, failed,
               {{"grade_s", quantile(grade_s, 0.5), "s"},
                {"setup_s", quantile(setup_s, 0.5), "s"},
                {"cpu_s", quantile(cpu_s, 0.5), "s"},
                {"peak_rss_mb", quantile(rss_mb, 0.5), "MB"}});
  return 0;
}

// --- traced run: per-layer metrics -----------------------------------------------

struct LayerRun {
  std::vector<fault::GroupRecord> records;
  std::vector<double> group_ms;
  fault::KernelStats stats;
  std::size_t mismatches = 0;
};

/// Simulates the graded groups one after another on one GroupSimulator,
/// each inside its own span, and checks every record against the oracle.
LayerRun simulate_groups(Tracer& tr, const char* span_name, const Setup& s,
                         const fault::GroupPlan& plan,
                         const std::vector<std::size_t>& groups,
                         fault::GroupSimulator& sim, const Oracle& o) {
  LayerRun run;
  for (std::size_t g : groups) {
    auto span = tr.scope(span_name);
    const Clock::time_point t0 = Clock::now();
    fault::GroupRecord rec = sim.simulate(g);
    run.group_ms.push_back(ms_between(t0, Clock::now()));
    if (rec.timed_out || record_digest(s.faults, plan, rec) != o.groups[g]) {
      std::fprintf(stderr, "%s: group %zu differs from the oracle\n",
                   span_name, g);
      ++run.mismatches;
    }
    run.records.push_back(std::move(rec));
  }
  run.stats = sim.stats();
  return run;
}

int run_traced(const Args& a, const Workload& w, const Oracle& o) {
  const Paths paths{a.scratch};
  Tracer tr(true);
  std::size_t attempted = 0, failed = 0;
  std::vector<Metric> m;

  std::unique_ptr<Setup> s;
  {
    auto span = tr.scope("bench.setup");
    s = run_setup(tr);
  }
  m.push_back({"plasma.elaborate_ms", tr.duration_ms("plasma.elaborate"), "ms"});
  m.push_back({"core.program_ms", tr.duration_ms("core.program"), "ms"});
  m.push_back({"sim.good_run_ms", tr.duration_ms("sim.good_run"), "ms"});
  m.push_back({"netlist.enumerate_ms", tr.duration_ms("netlist.enumerate"),
               "ms"});
  m.push_back({"netlist.faults_collapsed",
               static_cast<double>(s->faults.size()), "count"});
  m.push_back({"netlist.faults_uncollapsed",
               static_cast<double>(s->faults.total_uncollapsed), "count"});

  fault::FaultSimOptions sim;
  sim.engine = fault::Engine::kEvent;
  sim.max_cycles = kMaxCycles;
  sim.threads = 1;
  const fault::GroupPlan plan(s->faults, sim);
  const std::vector<std::size_t> groups = graded_groups(plan, a.smoke);
  const fault::EnvFactory env = plasma::make_cpu_env_factory(s->cpu, s->program);

  LayerRun event, sweep;
  std::size_t trace_bytes = 0;
  double journal_add_us = 0, sink_ms = 0;
  {
    auto layers = tr.scope("bench.layers");
    std::shared_ptr<const nl::CompiledNetlist> compiled;
    {
      auto span = tr.scope("netlist.compile");
      compiled = nl::compile(s->cpu.netlist);
    }
    auto source = std::make_shared<fault::SharedTraceSource>(
        s->cpu.netlist, env, kMaxCycles,
        sim.trace_mem_mb * std::size_t{1024} * 1024, compiled);
    {
      auto span = tr.scope("fault.trace_record");
      const auto trace = source->get();
      if (!trace) throw std::runtime_error("good-trace recording fell back");
      trace_bytes = trace->memory_bytes();
    }
    {
      auto span = tr.scope("fault.groups");
      fault::GroupSimulator gs(s->cpu.netlist, s->faults, plan, env, sim,
                               source, compiled);
      event = simulate_groups(tr, "fault.group", *s, plan, groups, gs, o);
    }
    {
      auto span = tr.scope("fault.sweep_groups");
      fault::FaultSimOptions sw = sim;
      sw.engine = fault::Engine::kSweep;
      fault::GroupSimulator gs(s->cpu.netlist, s->faults, plan, env, sw,
                               nullptr, compiled);
      sweep = simulate_groups(tr, "fault.sweep_group", *s, plan, groups, gs, o);
    }
    attempted += 2;
    failed += (event.mismatches != 0) + (sweep.mismatches != 0);
    {
      auto span = tr.scope("campaign.journal");
      const std::string path = paths.path("layer.sbstj");
      std::filesystem::remove(path);
      campaign::JournalWriter jw = campaign::JournalWriter::create(
          path, {s->fingerprint, plan.num_groups(), s->faults.size()},
          util::Durability::kFlush);
      std::vector<double> add_us;
      for (const fault::GroupRecord& rec : event.records) {
        const Clock::time_point t0 = Clock::now();
        jw.add(rec);
        add_us.push_back(1000.0 * ms_between(t0, Clock::now()));
      }
      journal_add_us = quantile(add_us, 0.5);
    }
    {
      auto span = tr.scope("telemetry.sink");
      const Clock::time_point t0 = Clock::now();
      telemetry::TelemetryOptions topt;
      topt.metrics_path = paths.path("layer.ndjson");
      topt.durability = util::Durability::kFlush;
      telemetry::CampaignTelemetry tele(topt, "threads", event.records.size());
      for (std::size_t i = 0; i < event.records.size(); ++i) {
        tele.record(campaign::to_group_metric(event.records[i], false,
                                              event.group_ms[i]));
      }
      tele.finish(false);
      sink_ms = ms_between(t0, Clock::now());
    }
  }

  const double good = static_cast<double>(s->good_cycles);
  const double event_sum = sum(event.group_ms);
  m.push_back({"netlist.compile_ms", tr.duration_ms("netlist.compile"), "ms"});
  m.push_back({"fault.trace_record_ms", tr.duration_ms("fault.trace_record"),
               "ms"});
  m.push_back({"fault.trace_bytes", static_cast<double>(trace_bytes), "bytes"});
  m.push_back({"fault.group_ms.p50", quantile(event.group_ms, 0.5), "ms"});
  m.push_back({"fault.group_ms.p95", quantile(event.group_ms, 0.95), "ms"});
  m.push_back({"fault.group_ms.max", quantile(event.group_ms, 1.0), "ms"});
  m.push_back({"fault.group_ms.sum", event_sum, "ms"});
  m.push_back({"fault.gates_evaluated",
               static_cast<double>(event.stats.gates_evaluated), "count"});
  m.push_back({"fault.sim_cycles", static_cast<double>(event.stats.cycles),
               "count"});
  m.push_back({"fault.ns_per_eval",
               1e6 * event_sum /
                   static_cast<double>(std::max<std::uint64_t>(
                       event.stats.gates_evaluated, 1)),
               "ns"});
  m.push_back({"fault.drop_ratio",
               static_cast<double>(event.stats.cycles) /
                   (static_cast<double>(groups.size()) * good),
               "ratio"});
  m.push_back({"fault.sweep_group_ms.sum", sum(sweep.group_ms), "ms"});
  m.push_back({"fault.sweep_group_ms.max", quantile(sweep.group_ms, 1.0),
               "ms"});
  m.push_back({"fault.sweep_gates_evaluated",
               static_cast<double>(sweep.stats.gates_evaluated), "count"});
  m.push_back({"campaign.journal_add_us.p50", journal_add_us, "us"});
  m.push_back({"telemetry.sink_ms", sink_ms, "ms"});

  // The same campaign twice: untraced (the reference for the tracing
  // overhead) and traced. The seed picks which runs first.
  std::mt19937_64 rng(a.seed);
  const bool untraced_first = (rng() & 1) != 0;
  Grade plain, traced;
  for (int pass = 0; pass < 2; ++pass) {
    if ((pass == 0) == untraced_first) {
      plain = grade_once(*s, w, paths, o, a.smoke, false);
      continue;
    }
    const Clock::time_point entry = Clock::now();
    traced = grade_once(*s, w, paths, o, a.smoke, true);
    tr.add("campaign.run", entry, Clock::now(), -1);
    const int run = static_cast<int>(tr.spans().size()) - 1;
    const auto& c = traced.completions;
    if (!c.empty()) {
      tr.add("campaign.first_group", traced.start, c.front(), run);
      // Tail: from the first completion that leaves fewer groups
      // unfinished than there are workers, to the last completion.
      const std::size_t workers = effective_threads(w);
      const std::size_t tail_from =
          c.size() >= workers ? c.size() - workers : 0;
      tr.add("campaign.tail", c[tail_from], c.back(), run);
      tr.add("campaign.drain", c.back(), traced.end, run);
    }
  }
  attempted += 2;
  failed += !plain.failure.empty();
  failed += !traced.failure.empty();

  const double threads = static_cast<double>(effective_threads(w));
  const double engine_sum =
      w.engine == fault::Engine::kSweep ? sum(sweep.group_ms) : event_sum;
  m.push_back({"campaign.first_group_ms",
               tr.duration_ms("campaign.first_group"), "ms"});
  m.push_back({"campaign.tail_ms", tr.duration_ms("campaign.tail"), "ms"});
  m.push_back({"campaign.drain_ms", tr.duration_ms("campaign.drain"), "ms"});
  m.push_back({"campaign.busy_ratio",
               engine_sum / 1000.0 / (threads * plain.wall_s), "ratio"});
  m.push_back({"campaign.worker_restarts",
               static_cast<double>(traced.worker_restarts), "count"});
  m.push_back({"campaign.worker_peak_rss_mb", max_rss_mb(RUSAGE_CHILDREN),
               "MB"});

  // Self time per layer: span durations minus their children, summed by
  // the layer prefix of the span name ("fault.group" -> "fault").
  const char* layers[] = {"bench",   "plasma", "core",     "sim",
                          "netlist", "fault",  "campaign", "telemetry"};
  std::vector<double> self(std::size(layers), 0.0);
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const std::string& name = tr.spans()[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    for (std::size_t l = 0; l < std::size(layers); ++l) {
      if (layer == layers[l]) self[l] += tr.self_ms(i);
    }
  }
  for (std::size_t l = 0; l < std::size(layers); ++l) {
    m.push_back({std::string("self_ms.") + layers[l], self[l], "ms"});
  }
  m.push_back({"trace.overhead_s", traced.wall_s - plain.wall_s, "s"});

  char run_id[64];
  std::snprintf(run_id, sizeof(run_id), "%s-%llu-%ld", w.name,
                static_cast<unsigned long long>(a.seed),
                static_cast<long>(::getpid()));
  const std::string trace_path = paths.path(std::string("trace-") + run_id +
                                            ".json");
  tr.write(trace_path, run_id, w.name, a.seed);
  std::fprintf(stderr, "%s: %zu spans written to %s\n", w.name,
               tr.spans().size(), trace_path.c_str());
  print_result(failed == 0, attempted, failed, m);
  return 0;
}

// --- bless: (re)write the reference digest ---------------------------------------

int bless(const Args& a) {
  Tracer off(false);
  const std::unique_ptr<Setup> s = run_setup(off);
  campaign::CampaignOptions opt;
  opt.sim.sample = 0;
  opt.sim.max_cycles = kMaxCycles;
  const campaign::CampaignResult cr = campaign::run_campaign(
      s->cpu.netlist, s->faults, plasma::make_cpu_env_factory(s->cpu, s->program),
      s->fingerprint, opt);
  if (cr.interrupted || cr.faults_timed_out != 0 ||
      !cr.quarantined_groups.empty()) {
    throw std::runtime_error("reference campaign did not finish cleanly");
  }
  const fault::GroupPlan plan(s->faults, opt.sim);
  Oracle o;
  o.faults_collapsed = s->faults.size();
  o.faults_uncollapsed = s->faults.total_uncollapsed;
  for (std::size_t i = 0; i < s->faults.size(); ++i) {
    if (cr.result.detected[i]) o.detected_uncollapsed += s->faults.class_size[i];
  }
  for (std::size_t g = 0; g < plan.num_groups(); ++g) {
    o.groups.push_back(result_group_digest(s->faults, plan, g, cr.result));
  }
  o.digest = campaign_digest(o);

  std::ostringstream out;
  out << "# Verdict oracle: Plasma Phase A+B graded against the full collapsed\n"
         "# stuck-at fault list (sample 0, max_cycles 10000000). Written by\n"
         "# `python3 perfbench/run.py --bless`; see perfbench/README.md for\n"
         "# the digest definition.\n";
  out << "faults_collapsed " << o.faults_collapsed << "\n";
  out << "faults_uncollapsed " << o.faults_uncollapsed << "\n";
  out << "detected_uncollapsed " << o.detected_uncollapsed << "\n";
  out << "digest " << std::hex << o.digest << std::dec << "\n";
  for (std::size_t g = 0; g < o.groups.size(); ++g) {
    out << "group " << g << " " << std::hex << o.groups[g] << std::dec << "\n";
  }
  std::ofstream f(a.bless, std::ios::binary | std::ios::trunc);
  f << out.str();
  if (!f) throw std::runtime_error("cannot write " + a.bless);
  std::fprintf(stderr, "wrote %s: %llu of %llu uncollapsed faults detected\n",
               a.bless.c_str(),
               static_cast<unsigned long long>(o.detected_uncollapsed),
               static_cast<unsigned long long>(o.faults_uncollapsed));
  return 0;
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void print_build_info() {
  std::string out = "{\"compiler\": ";
  telemetry::append_json_string(out, "g++ " __VERSION__);
  out += ", \"build_type\": ";
  telemetry::append_json_string(out, PERFBENCH_BUILD_TYPE);
  out += ", \"cxx_flags\": ";
  telemetry::append_json_string(out, PERFBENCH_CXX_FLAGS);
  out += ", \"optimized\": ";
  out += optimized_build() ? "true" : "false";
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + "}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args a;
    util::ArgParser(argc - 1, argv + 1)
        .value("--workload", &a.workload)
        .value_u64("--seed", &a.seed)
        .value_u64("--seconds", &a.seconds)
        .value_unsigned("--trace", &a.trace)
        .value("--scratch", &a.scratch)
        .value("--oracle", &a.oracle)
        .value("--bless", &a.bless)
        .flag("--smoke", &a.smoke)
        .flag("--build-info", &a.build_info)
        .parse(0, 0);
    if (a.build_info) {
      print_build_info();
      return 0;
    }
    if (!optimized_build()) {
      std::fprintf(stderr, "refusing to time an unoptimised build\n");
      return 3;
    }
    if (a.scratch.empty()) throw util::ArgError("--scratch is required");
    std::filesystem::create_directories(a.scratch);
    if (!a.bless.empty()) return bless(a);
    if (a.oracle.empty()) throw util::ArgError("--oracle is required");
    if (a.trace > 1) throw util::ArgError("--trace wants 0 or 1");
    const Workload& w = find_workload(a.workload);
    const Oracle o = load_oracle(a.oracle);
    return a.trace ? run_traced(a, w, o) : run_untraced(a, w, o);
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "grade_bench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grade_bench: %s\n", e.what());
    return 1;
  }
}
