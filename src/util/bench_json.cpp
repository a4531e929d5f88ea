#include "util/bench_json.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include "util/contracts.h"
#include "util/json.h"

namespace leakydsp::util {

HostInfo HostInfo::current() {
  HostInfo info;
  info.hardware_threads = std::thread::hardware_concurrency();
#if defined(__clang_version__)
  info.compiler = std::string("clang ") + __clang_version__;
#elif defined(__VERSION__)
  info.compiler = std::string("gcc ") + __VERSION__;
#else
  info.compiler = "unknown";
#endif
#ifdef LEAKYDSP_CXX_FLAGS
  info.cxx_flags = LEAKYDSP_CXX_FLAGS;
#endif
#ifdef LEAKYDSP_BUILD_TYPE
  info.build_type = LEAKYDSP_BUILD_TYPE;
#endif
  return info;
}

BenchJsonRow& BenchJsonRow::set(std::string key, std::string value) {
  fields_.emplace_back(std::move(key), Value(std::move(value)));
  return *this;
}

BenchJsonRow& BenchJsonRow::set(std::string key, const char* value) {
  return set(std::move(key), std::string(value));
}

BenchJsonRow& BenchJsonRow::set(std::string key, double value) {
  fields_.emplace_back(std::move(key), Value(value));
  return *this;
}

BenchJsonRow& BenchJsonRow::set(std::string key, std::int64_t value) {
  fields_.emplace_back(std::move(key), Value(value));
  return *this;
}

BenchJsonRow& BenchJsonRow::set(std::string key, std::uint64_t value) {
  fields_.emplace_back(std::move(key), Value(value));
  return *this;
}

BenchJsonRow& BenchJsonRow::set(std::string key, bool value) {
  fields_.emplace_back(std::move(key), Value(value));
  return *this;
}

BenchJson::BenchJson(std::string bench) : bench_(std::move(bench)) {}

BenchJsonRow& BenchJson::row() {
  rows_.emplace_back();
  return rows_.back();
}

BenchJsonRow& BenchJson::metrics() {
  if (metrics_.empty()) metrics_.emplace_back();
  return metrics_.back();
}

namespace {

void append_fields(
    std::ostringstream& os,
    const std::vector<std::pair<std::string, BenchJsonRow::Value>>& fields) {
  for (std::size_t f = 0; f < fields.size(); ++f) {
    if (f != 0) os << ", ";
    os << '"' << json_escape(fields[f].first) << "\": ";
    const auto& value = fields[f].second;
    if (const auto* s = std::get_if<std::string>(&value)) {
      os << '"' << json_escape(*s) << '"';
    } else if (const auto* d = std::get_if<double>(&value)) {
      // JSON has no NaN/Inf literal; emitting them produces a file no
      // parser accepts. Degrade those to null so a diverged bench run
      // still yields a loadable report.
      if (std::isfinite(*d)) {
        os << std::setprecision(17) << *d;
      } else {
        os << "null";
      }
    } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
      os << *i;
    } else if (const auto* u = std::get_if<std::uint64_t>(&value)) {
      os << *u;
    } else {
      os << (std::get<bool>(value) ? "true" : "false");
    }
  }
}

}  // namespace

std::string BenchJson::to_string() const {
  std::ostringstream os;
  os << "{\n  \"bench\": \"" << json_escape(bench_) << "\",\n  \"host\": {"
     << "\"hardware_threads\": " << host_.hardware_threads
     << ", \"compiler\": \"" << json_escape(host_.compiler)
     << "\", \"cxx_flags\": \"" << json_escape(host_.cxx_flags)
     << "\", \"build_type\": \"" << json_escape(host_.build_type) << "\"},";
  if (!metrics_.empty()) {
    os << "\n  \"metrics\": {";
    append_fields(os, metrics_.front().fields_);
    os << "},";
  }
  os << "\n  \"results\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << (r == 0 ? "\n" : ",\n") << "    {";
    append_fields(os, rows_[r].fields_);
    os << '}';
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::uint64_t peak_rss_kb() {
  // VmHWM is the high-water mark of the resident set; /proc/self/status
  // reports it in kB on every Linux kernel this project targets.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::uint64_t kb = 0;
    fields >> kb;
    return kb;
  }
  return 0;
}

void BenchJson::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  LD_ENSURE(out.good(), "cannot open " << path << " for writing");
  out << to_string();
  out.flush();
  LD_ENSURE(out.good(), "write to " << path << " failed");
}

}  // namespace leakydsp::util
