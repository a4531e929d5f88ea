#include "obs/log.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <sstream>

#include "util/contracts.h"
#include "util/json.h"

namespace leakydsp::obs {

namespace {

/// RFC 3339 UTC timestamp with millisecond resolution.
std::string timestamp_utc() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(millis));
  return buf;
}

}  // namespace

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

LogLevel parse_log_level(const std::string& name) {
  for (const LogLevel level :
       {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
        LogLevel::kError, LogLevel::kOff}) {
    if (name == log_level_name(level)) return level;
  }
  LD_REQUIRE(false, "unknown log level '"
                        << name
                        << "' (expected trace|debug|info|warn|error|off)");
  return LogLevel::kOff;  // unreachable
}

Field f(std::string key, std::string value) {
  return Field{std::move(key), std::move(value), /*quoted=*/true};
}

Field f(std::string key, const char* value) {
  return Field{std::move(key), value, /*quoted=*/true};
}

Field f(std::string key, double value) {
  std::ostringstream os;
  os << value;
  return Field{std::move(key), os.str(), /*quoted=*/false};
}

Field f(std::string key, bool value) {
  return Field{std::move(key), value ? "true" : "false", /*quoted=*/false};
}

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

void Logger::set_json(bool json) {
  std::lock_guard<std::mutex> lock(mutex_);
  json_ = json;
}

void Logger::set_file(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_.is_open()) file_.close();
  if (!path.empty()) {
    file_.open(path, std::ios::trunc);
    LD_ENSURE(file_.is_open(), "cannot open log file '" << path << "'");
  }
}

void Logger::log(LogLevel level, const char* component,
                 std::string_view message,
                 std::initializer_list<Field> fields) {
  if (!enabled(level)) return;
  // Format outside the lock; only the sink write serializes.
  std::ostringstream os;
  if (json_) {
    os << "{\"ts\":\"" << timestamp_utc() << "\",\"level\":\""
       << log_level_name(level) << "\",\"component\":\""
       << util::json_escape(component) << "\",\"msg\":\"" << util::json_escape(message)
       << '"';
    for (const Field& field : fields) {
      os << ",\"" << util::json_escape(field.key) << "\":";
      if (field.quoted) {
        os << '"' << util::json_escape(field.value) << '"';
      } else {
        os << field.value;
      }
    }
    os << "}\n";
  } else {
    os << timestamp_utc() << ' ' << log_level_name(level) << ' ' << component
       << ": " << message;
    for (const Field& field : fields) {
      os << ' ' << field.key << '=';
      if (field.quoted) {
        os << '"' << field.value << '"';
      } else {
        os << field.value;
      }
    }
    os << '\n';
  }
  const std::string line = os.str();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_.is_open()) {
      file_ << line;
      file_.flush();
    } else {
      std::cerr << line;
    }
  }
  lines_.fetch_add(1, std::memory_order_relaxed);
}

void Logger::reset() {
  set_level(LogLevel::kOff);
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_.is_open()) file_.close();
  json_ = false;
}

}  // namespace leakydsp::obs
