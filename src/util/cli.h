// Minimal command-line parsing for benches, examples and tools: `--key
// value` options, `--flag` booleans, with typed getters and defaults.
// Unknown options and malformed values are hard errors, so typos in an
// experiment sweep fail loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace leakydsp::util {

/// Parsed command line. Construct once from argc/argv, then query.
class Cli {
 public:
  /// `spec` lists accepted option names (without the leading "--"); a name
  /// ending in '!' marks a boolean flag that takes no value.
  ///
  /// This is a program's own command line: `--help` prints the valid
  /// options to stdout and exits 0, and an unknown option or a malformed
  /// value (here or in a typed getter) prints the error and the valid
  /// options to stderr and exits 2.
  Cli(int argc, const char* const* argv, const std::vector<std::string>& spec);

  /// As above, accepting `spec` plus an `extra` spec list — the way
  /// drivers append a shared option block (e.g. obs::cli_options()) to
  /// their own options without concatenating by hand.
  Cli(int argc, const char* const* argv, const std::vector<std::string>& spec,
      const std::vector<std::string>& extra);

  /// The same rules for callers that must survive bad input: every error
  /// throws PreconditionError (its message lists the valid options), and
  /// `--help` is an unknown option like any other.
  static Cli throwing(int argc, const char* const* argv,
                      const std::vector<std::string>& spec);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::uint64_t get_seed(const std::string& name,
                         std::uint64_t fallback) const;
  bool get_flag(const std::string& name) const;

  /// A count option: `--name N`, defaulting to `fallback`. N must be an
  /// integer >= `min`; a negative or smaller value is a usage error, never
  /// a wrapped std::size_t.
  std::size_t get_count(const std::string& name, std::size_t fallback,
                        std::size_t min) const;

  /// Worker-thread count for parallel stages: `--threads N`, defaulting to
  /// the hardware concurrency. N must be >= 1.
  std::size_t get_threads(const std::string& name = "threads") const;

  const std::string& program() const { return program_; }

 private:
  Cli(int argc, const char* const* argv, const std::vector<std::string>& spec,
      bool exit_on_error);

  std::optional<std::string> raw(const std::string& name) const;
  /// "usage: <program> [options]" plus one line per option in spec order.
  std::string usage() const;
  /// Reports a command-line error: throws, or prints and exits 2.
  [[noreturn]] void fail(const std::string& message) const;

  std::string program_;
  std::vector<std::string> spec_;
  bool exit_on_error_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> flags_;
};

}  // namespace leakydsp::util
