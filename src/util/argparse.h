// Strict command-line flag parsing for the sbst CLI.
//
// The ad-hoc loops it replaces had three silent failure modes: a trailing
// flag with no value was skipped entirely (`sbst asm f.s -o` wrote
// nothing and said nothing), atoi turned non-numeric values into 0
// (`--sample all` silently became a full run request of 0), and unknown
// or misspelled flags were ignored. This parser makes all three hard
// errors.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sbst::util {

/// Thrown on any malformed command line; the CLI turns it into a usage
/// message and exit code 2.
class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Declare-then-parse flag parser. Flags may appear anywhere among the
/// positional arguments; every `--name value` flag requires its value,
/// numeric values must parse completely, and anything starting with '-'
/// that was not declared is rejected.
class ArgParser {
 public:
  /// `args` are the arguments after the subcommand (argv[2..]).
  ArgParser(int argc, const char* const* argv);

  /// Boolean flag (`--gate`): presence sets *out to true.
  ArgParser& flag(std::string_view name, bool* out);
  /// String-valued flag (`-o FILE`).
  ArgParser& value(std::string_view name, std::string* out);
  /// Numeric flags; the value must be a complete non-negative decimal.
  ArgParser& value_u64(std::string_view name, std::uint64_t* out);
  ArgParser& value_size(std::string_view name, std::size_t* out);
  ArgParser& value_int(std::string_view name, int* out);
  ArgParser& value_unsigned(std::string_view name, unsigned* out);
  /// Repeatable string-valued flag (`--journal a.sbstj --journal
  /// b.sbstj`): each occurrence appends its value to *out in command-
  /// line order.
  ArgParser& value_multi(std::string_view name,
                         std::vector<std::string>* out);
  /// Bounded count (`--threads N`, `--shards N`, `--max-group-retries K`):
  /// the value must lie in [1, 4096]. 0 is rejected loudly rather than
  /// silently meaning "auto" or "never retry", and absurd counts (a typo
  /// like `--threads 40960`) fail instead of spawning a fork bomb.
  ArgParser& value_count(std::string_view name, unsigned* out);

  /// Consumes the argument list. Returns the positional arguments and
  /// throws ArgError unless their count lies in [min_positional,
  /// max_positional].
  std::vector<std::string> parse(std::size_t min_positional,
                                 std::size_t max_positional);

 private:
  enum class Kind {
    kBool, kString, kMulti, kU64, kSize, kInt, kUnsigned, kCount
  };
  struct Spec {
    std::string name;
    Kind kind;
    void* out;
  };

  const Spec* find(std::string_view name) const;

  std::vector<std::string> args_;
  std::vector<Spec> specs_;
};

/// Parses a complete non-negative decimal; throws ArgError naming
/// `context` otherwise. (Exposed for direct use and tests.)
std::uint64_t parse_u64(std::string_view context, std::string_view text);

}  // namespace sbst::util
