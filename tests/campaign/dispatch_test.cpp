// Supervision contract of the shard dispatcher: leases are the liveness
// signal (held = fresh mtime + live pid, released = file gone), runner
// death re-dispatches the shard under bounded backoff, retries exhaust
// into an explicit failure, a foreign live lease blocks dispatch
// instead of racing the journal, and a drain request turns running
// shards into resumable ones. Fake /bin/sh runners keep every scenario
// deterministic.
//
// Suite names (Lease, Dispatch) deliberately avoid the sanitizer ctest
// regexes: these tests fork, which TSan does not tolerate.
#include "campaign/dispatch.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace sbst::campaign {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// Fresh per-scenario directory. TempDir() is stable across test runs,
// so leftovers from a previous run (marker files the fail-once runner
// scripts key on) must be swept or the scenarios silently degenerate.
std::string make_dir(const char* name) {
  const std::string dir = temp_path(name);
  ::mkdir(dir.c_str(), 0755);
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      if (!std::strcmp(e->d_name, ".") || !std::strcmp(e->d_name, "..")) {
        continue;
      }
      ::unlink((dir + "/" + e->d_name).c_str());
    }
    ::closedir(d);
  }
  return dir;
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// True while `pid` names a process that has not exited. A zombie has
/// exited (it only awaits reaping by whoever inherited it), so it does
/// not count as running.
bool running(pid_t pid) {
  if (::kill(pid, 0) != 0) return false;
  // /proc/PID/stat is "pid (comm) state ...", and comm may hold spaces.
  const std::string stat = slurp("/proc/" + std::to_string(pid) + "/stat");
  const std::size_t close = stat.rfind(')');
  return close == std::string::npos || close + 2 >= stat.size() ||
         stat[close + 2] != 'Z';
}

/// Waits up to 5 s for `pid` to stop running; true when it did.
bool stops_running(pid_t pid) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (running(pid)) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

/// True while any process of process group `pgid` is running (zombies
/// excluded, as in running()).
bool group_running(pid_t pgid) {
  bool any = false;
  if (DIR* d = ::opendir("/proc")) {
    while (struct dirent* e = ::readdir(d)) {
      const pid_t pid = static_cast<pid_t>(std::atol(e->d_name));
      if (pid > 0 && ::getpgid(pid) == pgid && running(pid)) any = true;
    }
    ::closedir(d);
  }
  return any;
}

/// Waits up to 5 s for process group `pgid` to stop running.
bool group_stops_running(pid_t pgid) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (group_running(pgid)) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

/// Pid a fake runner's child wrote to `path`.
pid_t read_pidfile(const std::string& path) {
  return static_cast<pid_t>(std::atol(slurp(path).c_str()));
}

/// Writes a fake runner and returns DispatchOptions invoking it as
/// `/bin/sh script <shard> <journal> <lease> <status>`.
DispatchOptions sh_runner_options(const std::string& dir,
                                  const char* script_name,
                                  const std::string& script_body,
                                  unsigned shards) {
  const std::string script = dir + "/" + script_name;
  spit(script, script_body);
  DispatchOptions opt;
  opt.shards = shards;
  opt.journal_dir = dir;
  opt.poll_period_s = 0.02;
  opt.backoff_initial_s = 0.05;
  opt.heartbeat_period_s = 0.05;
  opt.make_runner_argv = [script](unsigned shard, const std::string& journal,
                                  const std::string& lease,
                                  const std::string& status) {
    return std::vector<std::string>{"/bin/sh",  script,
                                    std::to_string(shard), journal,
                                    lease,      status};
  };
  static std::FILE* devnull = std::fopen("/dev/null", "w");
  opt.log = devnull;
  return opt;
}

TEST(Lease, EncodeDecodeRoundTrip) {
  const LeaseInfo in{3, 8, 12345, 0xdeadbeefcafe1234ull};
  LeaseInfo out;
  ASSERT_TRUE(decode_lease(encode_lease(in), &out));
  EXPECT_EQ(out.shard, in.shard);
  EXPECT_EQ(out.shard_count, in.shard_count);
  EXPECT_EQ(out.pid, in.pid);
  EXPECT_EQ(out.fingerprint, in.fingerprint);
}

TEST(Lease, DecodeRejectsGarbage) {
  LeaseInfo out;
  EXPECT_FALSE(decode_lease("", &out));
  EXPECT_FALSE(decode_lease("not a lease at all", &out));
  EXPECT_FALSE(decode_lease("WRONGMAGIC\nshard 0/2\npid 1\nfingerprint 0\n",
                            &out));
  // Truncated mid-fields.
  EXPECT_FALSE(decode_lease("SBSTLEASE1\nshard 0/2\n", &out));
  // Shard index out of range / zero shard count.
  EXPECT_FALSE(decode_lease(encode_lease({5, 4, 1, 0}), &out));
  EXPECT_FALSE(decode_lease(encode_lease({0, 0, 1, 0}), &out));
}

TEST(Lease, PathsAreCanonicalPerShard) {
  EXPECT_EQ(shard_journal_path("d", 2, 4), "d/shard-2-of-4.sbstj");
  EXPECT_EQ(shard_lease_path("d", 2, 4), "d/shard-2-of-4.lease");
  EXPECT_EQ(shard_status_path("d", 2, 4), "d/shard-2-of-4.status.json");
}

TEST(Lease, HolderWritesRefreshesAndRemoves) {
  const std::string dir = make_dir("lease_holder");
  const std::string path = dir + "/holder.lease";
  const LeaseInfo info{1, 2, ::getpid(), 0x1111222233334444ull};
  {
    LeaseHolder holder(path, info, 0.05);
    // The first heartbeat lands in the constructor.
    LeaseInfo got;
    ASSERT_TRUE(decode_lease(slurp(path), &got));
    EXPECT_EQ(got.pid, info.pid);
    EXPECT_EQ(got.fingerprint, info.fingerprint);
    // The background thread re-creates the file if it disappears — the
    // observable form of "the heartbeat keeps writing".
    std::remove(path.c_str());
    for (int i = 0; i < 100 && !file_exists(path); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(file_exists(path));
  }
  // Destruction releases: the lease is gone, not stale.
  EXPECT_FALSE(file_exists(path));
}

TEST(Dispatch, RejectsUnusableOptions) {
  DispatchOptions opt;
  opt.shards = 0;
  EXPECT_THROW(run_dispatch(opt), std::runtime_error);
  opt.shards = 1;
  EXPECT_THROW(run_dispatch(opt), std::runtime_error);  // no argv factory
  opt.make_runner_argv = [](unsigned, const std::string&, const std::string&,
                            const std::string&) {
    return std::vector<std::string>{"/bin/true"};
  };
  opt.journal_dir = temp_path("dispatch_missing_dir");
  EXPECT_THROW(run_dispatch(opt), std::runtime_error);
}

TEST(Dispatch, AllShardsCompleteFirstTry) {
  const std::string dir = make_dir("dispatch_clean");
  DispatchOptions opt =
      sh_runner_options(dir, "runner.sh", "touch \"$2\"\nexit 0\n", 3);
  const DispatchResult res = run_dispatch(opt);
  EXPECT_TRUE(res.all_completed());
  EXPECT_FALSE(res.interrupted);
  ASSERT_EQ(res.shards.size(), 3u);
  for (const ShardOutcome& s : res.shards) {
    EXPECT_TRUE(s.completed);
    EXPECT_FALSE(s.failed);
    EXPECT_EQ(s.attempts, 1u);
    EXPECT_EQ(s.redispatches, 0u);
    EXPECT_TRUE(file_exists(s.journal)) << "runner saw the journal path";
  }
}

TEST(Dispatch, AbnormalExitRedispatchesUntilSuccess) {
  const std::string dir = make_dir("dispatch_crash");
  // First attempt dies abnormally; the re-dispatched attempt succeeds.
  DispatchOptions opt = sh_runner_options(
      dir, "runner.sh",
      "if [ -f \"$2.marker\" ]; then exit 0; fi\n"
      "touch \"$2.marker\"\nexit 1\n",
      2);
  const DispatchResult res = run_dispatch(opt);
  EXPECT_TRUE(res.all_completed());
  for (const ShardOutcome& s : res.shards) {
    EXPECT_EQ(s.attempts, 2u);
    EXPECT_EQ(s.redispatches, 1u);
  }
}

TEST(Dispatch, RetriesExhaustedFailsTheShard) {
  const std::string dir = make_dir("dispatch_exhaust");
  DispatchOptions opt = sh_runner_options(dir, "runner.sh", "exit 1\n", 1);
  opt.max_shard_retries = 1;
  const DispatchResult res = run_dispatch(opt);
  EXPECT_FALSE(res.all_completed());
  ASSERT_EQ(res.shards.size(), 1u);
  EXPECT_TRUE(res.shards[0].failed);
  EXPECT_EQ(res.shards[0].attempts, 2u);  // initial + one retry
  EXPECT_NE(res.shards[0].error.find("retries exhausted"), std::string::npos)
      << res.shards[0].error;
}

TEST(Dispatch, StaleLeaseRevokedAndRedispatched) {
  const std::string dir = make_dir("dispatch_stale");
  // First attempt hangs without ever heartbeating; the dispatcher must
  // declare it dead on the spawn-time fallback clock, SIGKILL it and
  // re-dispatch. The second attempt completes immediately.
  DispatchOptions opt = sh_runner_options(
      dir, "runner.sh",
      "if [ -f \"$2.marker\" ]; then exit 0; fi\n"
      "touch \"$2.marker\"\nsleep 30\n",
      1);
  opt.stale_after_s = 0.5;  // 1s wall-clock granularity rounds this to ~1s
  const DispatchResult res = run_dispatch(opt);
  EXPECT_TRUE(res.all_completed());
  ASSERT_EQ(res.shards.size(), 1u);
  EXPECT_GE(res.shards[0].stale_leases, 1u);
  EXPECT_GE(res.shards[0].redispatches, 1u);
}

TEST(Dispatch, ForeignLiveLeaseBlocksTheShard) {
  const std::string dir = make_dir("dispatch_foreign");
  DispatchOptions opt =
      sh_runner_options(dir, "runner.sh", "exit 0\n", 1);
  opt.fingerprint = 0xaaaabbbbccccddddull;
  // A fresh lease held by a live pid (this test) that is not a child of
  // the dispatcher: the shard must not be double-dispatched.
  spit(shard_lease_path(dir, 0, 1),
       encode_lease({0, 1, ::getpid(), opt.fingerprint}));
  const DispatchResult res = run_dispatch(opt);
  ASSERT_EQ(res.shards.size(), 1u);
  EXPECT_TRUE(res.shards[0].failed);
  EXPECT_EQ(res.shards[0].attempts, 0u);
  EXPECT_NE(res.shards[0].error.find("lease already held"), std::string::npos)
      << res.shards[0].error;

  // Same liveness but a different campaign fingerprint: the error names
  // the journal-directory collision.
  spit(shard_lease_path(dir, 0, 1),
       encode_lease({0, 1, ::getpid(), opt.fingerprint ^ 1}));
  const DispatchResult res2 = run_dispatch(opt);
  EXPECT_TRUE(res2.shards[0].failed);
  EXPECT_NE(res2.shards[0].error.find("different campaign"),
            std::string::npos)
      << res2.shards[0].error;
}

TEST(Dispatch, GarbageOrStaleLeaseIsReclaimed) {
  const std::string dir = make_dir("dispatch_garbage");
  DispatchOptions opt =
      sh_runner_options(dir, "runner.sh", "exit 0\n", 1);
  spit(shard_lease_path(dir, 0, 1), "this is not a lease\n");
  const DispatchResult res = run_dispatch(opt);
  EXPECT_TRUE(res.all_completed());
  EXPECT_EQ(res.shards[0].attempts, 1u);
}

TEST(Dispatch, DrainMarksShardsResumable) {
  const std::string dir = make_dir("dispatch_drain");
  // Runners convert SIGTERM into the resumable exit code 3, the way a
  // draining `sbst grade --shard` does.
  DispatchOptions opt = sh_runner_options(
      dir, "runner.sh",
      "trap 'exit 3' TERM\nsleep 30 &\nwait $!\nexit 0\n", 2);
  std::atomic<bool> cancel{false};
  opt.cancel = &cancel;
  std::thread trigger([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    cancel.store(true);
  });
  const DispatchResult res = run_dispatch(opt);
  trigger.join();
  EXPECT_TRUE(res.interrupted);
  EXPECT_FALSE(res.all_completed());
  for (const ShardOutcome& s : res.shards) {
    EXPECT_TRUE(s.resumable) << "shard " << s.shard;
    EXPECT_FALSE(s.failed) << "shard " << s.shard;
  }
}

TEST(Dispatch, NoRunnerDescendantSurvivesDrainOrRevocation) {
  // Runners sit in their own process groups; drain and stale-lease
  // revocation must signal the whole group, not just the runner, so a
  // child the runner spawned cannot outlive it.
  {
    const std::string dir = make_dir("dispatch_drain_tree");
    DispatchOptions opt = sh_runner_options(
        dir, "runner.sh",
        "trap 'exit 3' TERM\nsleep 30 &\necho $! > \"$2.child\"\n"
        "wait $!\nexit 0\n",
        1);
    std::atomic<bool> cancel{false};
    opt.cancel = &cancel;
    const std::string pidfile = shard_journal_path(dir, 0, 1) + ".child";
    std::thread trigger([&cancel, &pidfile] {
      while (!file_exists(pidfile)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      cancel.store(true);
    });
    const DispatchResult res = run_dispatch(opt);
    trigger.join();
    EXPECT_TRUE(res.interrupted);
    ASSERT_EQ(res.shards.size(), 1u);
    EXPECT_TRUE(res.shards[0].resumable);
    const pid_t child = read_pidfile(pidfile);
    ASSERT_GT(child, 0);
    EXPECT_TRUE(stops_running(child)) << "runner child survived the drain";
  }
  {
    const std::string dir = make_dir("dispatch_revoke_tree");
    DispatchOptions opt = sh_runner_options(
        dir, "runner.sh",
        "if [ -f \"$2.child\" ]; then exit 0; fi\n"
        "sleep 30 &\necho $! > \"$2.child\"\nwait $!\n",
        1);
    opt.stale_after_s = 0.5;
    const DispatchResult res = run_dispatch(opt);
    EXPECT_TRUE(res.all_completed());
    ASSERT_EQ(res.shards.size(), 1u);
    EXPECT_GE(res.shards[0].stale_leases, 1u);
    const pid_t child =
        read_pidfile(shard_journal_path(dir, 0, 1) + ".child");
    ASSERT_GT(child, 0);
    EXPECT_TRUE(stops_running(child))
        << "runner child survived the lease revocation";
  }
}

TEST(Dispatch, DrainRevokesARunnerThatStopsHeartbeating) {
  // The runner heartbeats until the drain's SIGTERM, then ignores TERM
  // and wedges without heartbeating. The dispatcher must not wait for
  // it: the stale lease gets its group SIGKILLed and reaped, and the
  // shard is left resumable rather than re-dispatched.
  const std::string dir = make_dir("dispatch_drain_stale");
  DispatchOptions opt = sh_runner_options(
      dir, "runner.sh",
      "echo $$ > \"$2.pid\"\n"
      "trap 'trap \"\" TERM; sleep 8; exit 0' TERM\n"
      "while :; do touch \"$3\"; sleep 0.1; done\n",
      1);
  opt.stale_after_s = 0.5;
  std::atomic<bool> cancel{false};
  opt.cancel = &cancel;
  std::thread trigger([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    cancel.store(true);
  });
  const auto t0 = std::chrono::steady_clock::now();
  const DispatchResult res = run_dispatch(opt);
  const double took = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  trigger.join();
  EXPECT_LT(took, 4.0) << "dispatcher waited out the wedged runner";
  EXPECT_TRUE(res.interrupted);
  ASSERT_EQ(res.shards.size(), 1u);
  EXPECT_TRUE(res.shards[0].resumable);
  EXPECT_FALSE(res.shards[0].completed);
  EXPECT_EQ(res.shards[0].attempts, 1u) << "a draining shard re-dispatched";
  EXPECT_EQ(res.shards[0].stale_leases, 1u);
  const pid_t runner = read_pidfile(shard_journal_path(dir, 0, 1) + ".pid");
  ASSERT_GT(runner, 0);
  EXPECT_TRUE(group_stops_running(runner))
      << "the wedged runner's process group survived the dispatcher";
}

TEST(Dispatch, StatusRollupFoldsRunnerProgress) {
  const std::string dir = make_dir("dispatch_status");
  DispatchOptions opt = sh_runner_options(
      dir, "runner.sh",
      "printf '{\"groups_done\":3,\"groups_total\":5}' > \"$4\"\nexit 0\n",
      2);
  opt.status_path = dir + "/rollup.json";
  const DispatchResult res = run_dispatch(opt);
  EXPECT_TRUE(res.all_completed());
  const std::string status = slurp(opt.status_path);
  EXPECT_NE(status.find("\"schema\":\"sbst-dispatch-status-v1\""),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"groups_done\":3"), std::string::npos) << status;
  EXPECT_NE(status.find("\"groups_total\":5"), std::string::npos) << status;
}

}  // namespace
}  // namespace sbst::campaign
