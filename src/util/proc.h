// Child processes for the --isolate supervisor and the shard dispatcher:
// the only code that creates processes or waits for them.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace sbst::util {

/// How a reaped child ended, with the resources it used.
struct ChildExit {
  int term_signal = 0;  // killing signal; 0 when the child exited
  int exit_code = 0;    // exit status; meaningful when term_signal == 0
  std::uint64_t max_rss_kb = 0;  // peak resident set
  std::uint64_t cpu_ms = 0;      // user + system CPU time

  bool exited(int code) const { return term_signal == 0 && exit_code == code; }
  std::string describe() const;  // "exit N" or "signal N"
};

/// Forks a child that runs `child_fn`, which must end in _exit or exec
/// (returning exits 127). With `new_group` the child leads a new process
/// group, set on both sides so it exists before spawn returns, and
/// kill(-pid, sig) reaches everything the child spawns. Returns the
/// child's pid, or -1 when forking fails.
pid_t spawn(const std::function<void()>& child_fn, bool new_group);

/// spawn() of an external program, argv[0] being its path. argv is
/// converted before forking, so the child only execs (exit 127 when
/// that fails).
pid_t spawn_program(const std::vector<std::string>& argv, bool new_group);

/// Reaps `pid`, retrying on EINTR. nullopt while a non-blocking reap
/// finds the child running, or when `pid` is no unreaped child of ours.
std::optional<ChildExit> reap(pid_t pid, bool block = true);

}  // namespace sbst::util
