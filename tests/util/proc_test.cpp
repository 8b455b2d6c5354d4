// The child-process primitive: reap decodes exit codes, killing signals
// and CPU time, a non-blocking reap leaves a running child alone, and
// new_group makes the child lead its own process group.
//
// The suite name (Proc) deliberately avoids the sanitizer ctest regexes:
// these tests fork, which TSan does not tolerate.
#include "util/proc.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <ctime>

namespace sbst::util {
namespace {

TEST(Proc, ReapReportsExitCode) {
  const pid_t pid = spawn([] { _exit(3); }, false);
  ASSERT_GT(pid, 0);
  const auto e = reap(pid);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->term_signal, 0);
  EXPECT_EQ(e->exit_code, 3);
  EXPECT_TRUE(e->exited(3));
  EXPECT_EQ(e->describe(), "exit 3");
  EXPECT_FALSE(reap(pid).has_value()) << "a reaped child reaps only once";
}

TEST(Proc, ReapReportsKillingSignal) {
  const pid_t pid = spawn([] { ::pause(); }, false);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  const auto e = reap(pid);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->term_signal, SIGKILL);
  EXPECT_FALSE(e->exited(0));
  EXPECT_EQ(e->describe(), "signal " + std::to_string(SIGKILL));
}

TEST(Proc, ReapReportsCpuTimeOfABusyChild) {
  const pid_t pid = spawn(
      [] {
        // Spin until the child has burnt 50 ms of its own CPU time.
        timespec ts{};
        do {
          ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        } while (ts.tv_sec == 0 && ts.tv_nsec < 50'000'000);
        _exit(0);
      },
      false);
  ASSERT_GT(pid, 0);
  const auto e = reap(pid);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->exited(0));
  EXPECT_GT(e->cpu_ms, 0u);
  EXPECT_GT(e->max_rss_kb, 0u);
}

TEST(Proc, NonBlockingReapWaitsForARunningChild) {
  int gate[2];
  ASSERT_EQ(::pipe(gate), 0);
  const pid_t pid = spawn(
      [&gate] {
        char c;
        ::close(gate[1]);
        // Blocks until the parent closes its write end.
        while (::read(gate[0], &c, 1) > 0) {
        }
        _exit(0);
      },
      false);
  ASSERT_GT(pid, 0);
  ::close(gate[0]);
  EXPECT_FALSE(reap(pid, /*block=*/false).has_value());
  ::close(gate[1]);
  const auto e = reap(pid);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->exited(0));
}

TEST(Proc, NewGroupLeadsItsOwnProcessGroup) {
  const pid_t grouped = spawn([] { ::pause(); }, true);
  const pid_t plain = spawn([] { ::pause(); }, false);
  ASSERT_GT(grouped, 0);
  ASSERT_GT(plain, 0);
  EXPECT_EQ(::getpgid(grouped), grouped);
  EXPECT_EQ(::getpgid(plain), ::getpgrp());
  ASSERT_EQ(::kill(-grouped, SIGKILL), 0);
  ASSERT_EQ(::kill(plain, SIGKILL), 0);
  EXPECT_TRUE(reap(grouped).has_value());
  EXPECT_TRUE(reap(plain).has_value());
}

TEST(Proc, SpawnProgramExecsOrExits127) {
  const pid_t ok = spawn_program({"/bin/sh", "-c", "exit 5"}, true);
  ASSERT_GT(ok, 0);
  const auto e = reap(ok);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->exited(5));

  const pid_t missing = spawn_program({"/nonexistent/program"}, false);
  ASSERT_GT(missing, 0);
  const auto m = reap(missing);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->exited(127));
  EXPECT_EQ(spawn_program({}, false), -1);
}

}  // namespace
}  // namespace sbst::util
