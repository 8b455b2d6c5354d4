#include "util/proc.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace sbst::util {

std::string ChildExit::describe() const {
  return term_signal != 0 ? "signal " + std::to_string(term_signal)
                          : "exit " + std::to_string(exit_code);
}

pid_t spawn(const std::function<void()>& child_fn, bool new_group) {
  const pid_t pid = ::fork();
  if (pid != 0) {
    if (pid > 0 && new_group) ::setpgid(pid, pid);
    return pid;
  }
  if (new_group) ::setpgid(0, 0);
  child_fn();
  _exit(127);
}

pid_t spawn_program(const std::vector<std::string>& argv, bool new_group) {
  if (argv.empty()) return -1;
  std::vector<char*> cargv;
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  return spawn(
      [&cargv] {
        ::execv(cargv[0], cargv.data());
        std::fprintf(stderr, "exec %s failed: %s\n", cargv[0],
                     std::strerror(errno));
      },
      new_group);
}

std::optional<ChildExit> reap(pid_t pid, bool block) {
  int status = 0;
  rusage ru{};
  pid_t r;
  while ((r = ::wait4(pid, &status, block ? 0 : WNOHANG, &ru)) < 0 &&
         errno == EINTR) {
  }
  if (r != pid) return std::nullopt;
  ChildExit e;
  if (WIFSIGNALED(status)) e.term_signal = WTERMSIG(status);
  if (WIFEXITED(status)) e.exit_code = WEXITSTATUS(status);
  e.max_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
  e.cpu_ms =
      static_cast<std::uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
          1000 +
      static_cast<std::uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
          1000;
  return e;
}

}  // namespace sbst::util
