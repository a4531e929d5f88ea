#include "util/cli.h"

#include <cstdlib>
#include <iostream>
#include <set>

#include "util/contracts.h"
#include "util/thread_pool.h"

namespace leakydsp::util {

Cli::Cli(int argc, const char* const* argv,
         const std::vector<std::string>& spec)
    : Cli(argc, argv, spec, /*exit_on_error=*/true) {}

Cli::Cli(int argc, const char* const* argv,
         const std::vector<std::string>& spec, bool exit_on_error)
    : spec_(spec), exit_on_error_(exit_on_error) {
  LD_REQUIRE(argc >= 1, "argc must be >= 1");
  program_ = argv[0];

  std::set<std::string> value_opts;
  std::set<std::string> flag_opts;
  for (const auto& s : spec) {
    LD_REQUIRE(!s.empty(), "empty option name in spec");
    if (s.back() == '!') {
      flag_opts.insert(s.substr(0, s.size() - 1));
    } else {
      value_opts.insert(s);
    }
  }

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (exit_on_error_ && arg == "--help") {
      std::cout << usage();
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      fail("unexpected positional argument '" + arg + "'");
    }
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    // Repeating an option is always a mistake (a sweep script overriding
    // itself); last-wins would hide it, so reject it outright.
    if (values_.contains(name) || flags_.contains(name)) {
      fail("duplicate option --" + name);
    }
    if (flag_opts.contains(name)) {
      if (has_inline) fail("flag --" + name + " takes no value");
      flags_[name] = true;
    } else if (value_opts.contains(name)) {
      if (has_inline) {
        values_[name] = inline_value;
      } else {
        if (i + 1 >= argc) fail("option --" + name + " needs a value");
        values_[name] = argv[++i];
      }
    } else {
      fail("unknown option --" + name);
    }
  }
}

std::string Cli::usage() const {
  std::string out = "usage: " + program_ + " [options]\nvalid options:\n";
  for (const auto& s : spec_) {
    if (s.back() == '!') {
      out += "  --" + s.substr(0, s.size() - 1) + "\n";
    } else {
      out += "  --" + s + " <value>\n";
    }
  }
  if (exit_on_error_) out += "  --help\n";
  return out;
}

void Cli::fail(const std::string& message) const {
  if (!exit_on_error_) throw PreconditionError(message + "\n" + usage());
  std::cerr << program_ << ": " << message << "\n" << usage();
  std::exit(2);
}

namespace {

std::vector<std::string> concat_specs(const std::vector<std::string>& spec,
                                      const std::vector<std::string>& extra) {
  std::vector<std::string> merged = spec;
  merged.insert(merged.end(), extra.begin(), extra.end());
  return merged;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv,
         const std::vector<std::string>& spec,
         const std::vector<std::string>& extra)
    : Cli(argc, argv, concat_specs(spec, extra), /*exit_on_error=*/true) {}

Cli Cli::throwing(int argc, const char* const* argv,
                  const std::vector<std::string>& spec) {
  return Cli(argc, argv, spec, /*exit_on_error=*/false);
}

bool Cli::has(const std::string& name) const {
  return values_.contains(name) || flags_.contains(name);
}

std::optional<std::string> Cli::raw(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    fail("option --" + name + " expects an integer, got '" + *v + "'");
  }
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    fail("option --" + name + " expects a number, got '" + *v + "'");
  }
}

std::uint64_t Cli::get_seed(const std::string& name,
                            std::uint64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  try {
    return std::stoull(*v, nullptr, 0);
  } catch (const std::exception&) {
    fail("option --" + name + " expects a seed, got '" + *v + "'");
  }
}

std::size_t Cli::get_count(const std::string& name, std::size_t fallback,
                           std::size_t min) const {
  const auto n = get_int(name, static_cast<std::int64_t>(fallback));
  if (n < 0 || static_cast<std::uint64_t>(n) < min) {
    fail("option --" + name + " must be >= " + std::to_string(min) +
         ", got " + std::to_string(n));
  }
  return static_cast<std::size_t>(n);
}

std::size_t Cli::get_threads(const std::string& name) const {
  return get_count(name, ThreadPool::hardware_threads(), 1);
}

bool Cli::get_flag(const std::string& name) const {
  const auto it = flags_.find(name);
  return it != flags_.end() && it->second;
}

}  // namespace leakydsp::util
