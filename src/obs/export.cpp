#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "util/bench_json.h"
#include "util/json.h"

namespace leakydsp::obs {

namespace {

/// Shortest stable rendering of a double for exposition lines and JSON:
/// %.10g covers every magnitude observed here without trailing noise, and
/// is identical across the platforms CI builds on (glibc printf).
std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

bool valid_name_char(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':')
    return true;
  return !first && c >= '0' && c <= '9';
}

/// Splits a registry name into its metric base and any `{...}` label
/// suffix ("" when unlabeled).
std::pair<std::string_view, std::string_view> split_label(
    std::string_view name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos) return {name, {}};
  return {name.substr(0, brace), name.substr(brace)};
}

/// Re-renders a registry label suffix (`{id="value"}`) with the label
/// value escaped per the exposition format. Suffixes that are not in the
/// registry's single-label shape pass through verbatim.
std::string escape_label_suffix(std::string_view suffix) {
  constexpr std::string_view kPrefix = "{id=\"";
  constexpr std::string_view kSuffix = "\"}";
  if (suffix.size() < kPrefix.size() + kSuffix.size() ||
      suffix.substr(0, kPrefix.size()) != kPrefix ||
      suffix.substr(suffix.size() - kSuffix.size()) != kSuffix) {
    return std::string(suffix);
  }
  const std::string_view value = suffix.substr(
      kPrefix.size(), suffix.size() - kPrefix.size() - kSuffix.size());
  std::string out{kPrefix};
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  out += kSuffix;
  return out;
}

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
  const auto [base, suffix] = split_label(name);
  std::string out;
  out.reserve(base.size() + suffix.size() + 1);
  for (std::size_t i = 0; i < base.size(); ++i) {
    const char c = base[i];
    if (i == 0 && c >= '0' && c <= '9') out.push_back('_');
    out.push_back(valid_name_char(c, out.empty()) ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  out.append(suffix);
  return out;
}

double estimate_quantile(const Registry::HistogramSnapshot& histogram,
                         double q) {
  if (histogram.total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(histogram.total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
    const std::uint64_t count = histogram.counts[i];
    if (count == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += count;
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= histogram.upper_edges.size()) {
      // Overflow bucket: no finite upper edge to interpolate toward.
      // Report the last finite edge — a deliberate lower bound.
      return histogram.upper_edges.empty() ? 0.0
                                           : histogram.upper_edges.back();
    }
    const double hi = histogram.upper_edges[i];
    const double lo =
        i == 0 ? std::min(0.0, histogram.upper_edges[0])
               : histogram.upper_edges[i - 1];
    const double fraction =
        std::clamp((rank - before) / static_cast<double>(count), 0.0, 1.0);
    return lo + (hi - lo) * fraction;
  }
  return histogram.upper_edges.empty() ? 0.0 : histogram.upper_edges.back();
}

std::string render_prometheus(const Registry::Snapshot& snapshot) {
  std::string out;
  out.reserve(4096);

  std::string prev_family;
  for (const auto& [name, value] : snapshot.counters) {
    const auto [base, suffix] = split_label(name);
    const std::string family = sanitize_metric_name(base);
    if (family != prev_family) {
      out += "# TYPE " + family + " counter\n";
      prev_family = family;
    }
    out += family + escape_label_suffix(suffix) + " " +
           std::to_string(value) + "\n";
  }

  for (const auto& [name, value] : snapshot.gauges) {
    const std::string family = sanitize_metric_name(name);
    out += "# TYPE " + family + " gauge\n";
    out += family + " " + std::to_string(value) + "\n";
  }

  for (const auto& [name, histogram] : snapshot.histograms) {
    const std::string family = sanitize_metric_name(name);
    out += "# TYPE " + family + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram.upper_edges.size(); ++i) {
      cumulative += i < histogram.counts.size() ? histogram.counts[i] : 0;
      out += family + "_bucket{le=\"" +
             format_double(histogram.upper_edges[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += family + "_bucket{le=\"+Inf\"} " + std::to_string(histogram.total) +
           "\n";
    out += family + "_sum " + format_double(histogram.sum) + "\n";
    out += family + "_count " + std::to_string(histogram.total) + "\n";
  }

  // Estimated quantiles as plain gauges (a Prometheus histogram family has
  // no native quantile series); only for histograms that saw data, so an
  // idle process exports no misleading zeros.
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (histogram.total == 0) continue;
    const std::string family = sanitize_metric_name(name);
    for (const auto& [suffix, q] :
         {std::pair<const char*, double>{"_p50", 0.50},
          {"_p95", 0.95},
          {"_p99", 0.99}}) {
      const std::string qname = family + suffix;
      out += "# TYPE " + qname + " gauge\n";
      out += qname + " " + format_double(estimate_quantile(histogram, q)) +
             "\n";
    }
  }
  return out;
}

std::string render_statusz(const util::HostInfo& host,
                           const Registry::Snapshot& snapshot,
                           const std::string& service_json) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"build\": {\n";
  out << "    \"compiler\": \"" << util::json_escape(host.compiler) << "\",\n";
  out << "    \"cxx_flags\": \"" << util::json_escape(host.cxx_flags)
      << "\",\n";
  out << "    \"build_type\": \"" << util::json_escape(host.build_type)
      << "\",\n";
#if defined(LEAKYDSP_OBS)
  out << "    \"obs_enabled\": true\n";
#else
  out << "    \"obs_enabled\": false\n";
#endif
  out << "  },\n";
  out << "  \"host\": {\"hardware_threads\": " << host.hardware_threads
      << "},\n";

  out << "  \"metrics\": {\n";
  out << "    \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n      \""
        << util::json_escape(sanitize_metric_name(snapshot.counters[i].first))
        << "\": " << snapshot.counters[i].second;
  }
  out << (snapshot.counters.empty() ? "},\n" : "\n    },\n");
  out << "    \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n      \""
        << util::json_escape(sanitize_metric_name(snapshot.gauges[i].first))
        << "\": " << snapshot.gauges[i].second;
  }
  out << (snapshot.gauges.empty() ? "},\n" : "\n    },\n");
  out << "    \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& [name, histogram] = snapshot.histograms[i];
    if (i > 0) out << ",";
    out << "\n      \"" << util::json_escape(sanitize_metric_name(name))
        << "\": {\"count\": " << histogram.total
        << ", \"sum\": " << format_double(histogram.sum)
        << ", \"p50\": " << format_double(estimate_quantile(histogram, 0.50))
        << ", \"p95\": " << format_double(estimate_quantile(histogram, 0.95))
        << ", \"p99\": " << format_double(estimate_quantile(histogram, 0.99))
        << "}";
  }
  out << (snapshot.histograms.empty() ? "}\n" : "\n    }\n");
  out << "  },\n";

  out << "  \"service\": "
      << (service_json.empty() ? std::string("null") : service_json) << "\n";
  out << "}\n";
  return out.str();
}

namespace {

/// One parsed sample line of the exposition text.
struct PromSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
};

bool parse_sample_line(const std::string& line, PromSample* sample,
                       std::string* error) {
  std::size_t pos = 0;
  while (pos < line.size() && valid_name_char(line[pos], pos == 0)) ++pos;
  if (pos == 0) {
    *error = "sample line does not start with a metric name: " + line;
    return false;
  }
  sample->name = line.substr(0, pos);
  if (pos < line.size() && line[pos] == '{') {
    const std::size_t close = line.find('}', pos);
    if (close == std::string::npos) {
      *error = "unterminated label set: " + line;
      return false;
    }
    std::size_t p = pos + 1;
    while (p < close) {
      const std::size_t eq = line.find('=', p);
      if (eq == std::string::npos || eq >= close || line[eq + 1] != '"') {
        *error = "malformed label in: " + line;
        return false;
      }
      std::string value;
      std::size_t v = eq + 2;
      while (v < close && line[v] != '"') {
        if (line[v] == '\\' && v + 1 < close) {
          const char esc = line[v + 1];
          value.push_back(esc == 'n' ? '\n' : esc);
          v += 2;
        } else {
          value.push_back(line[v++]);
        }
      }
      if (v >= close) {
        *error = "unterminated label value in: " + line;
        return false;
      }
      sample->labels.emplace_back(line.substr(p, eq - p), std::move(value));
      p = v + 1;
      if (p < close && line[p] == ',') ++p;
    }
    pos = close + 1;
  }
  if (pos >= line.size() || line[pos] != ' ') {
    *error = "missing value separator in: " + line;
    return false;
  }
  const std::string value_text = line.substr(pos + 1);
  char* end = nullptr;
  sample->value = std::strtod(value_text.c_str(), &end);
  if (end == value_text.c_str() || *end != '\0') {
    *error = "unparseable sample value in: " + line;
    return false;
  }
  return true;
}

}  // namespace

bool check_prometheus_text(const std::string& text, std::string* error) {
  std::string local_error;
  std::string& err = error != nullptr ? *error : local_error;

  struct BucketSeries {
    std::vector<std::pair<double, double>> buckets;  ///< (le, cumulative)
    bool has_count = false;
    double count = 0.0;
  };
  std::vector<std::pair<std::string, BucketSeries>> families;
  auto family = [&](const std::string& base) -> BucketSeries& {
    for (auto& [name, series] : families) {
      if (name == base) return series;
    }
    families.emplace_back(base, BucketSeries{});
    return families.back().second;
  };

  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;

    PromSample sample;
    if (!parse_sample_line(line, &sample, &err)) return false;

    constexpr std::string_view kBucket = "_bucket";
    constexpr std::string_view kCount = "_count";
    if (sample.name.size() > kBucket.size() &&
        sample.name.compare(sample.name.size() - kBucket.size(),
                            kBucket.size(), kBucket) == 0) {
      const std::string base =
          sample.name.substr(0, sample.name.size() - kBucket.size());
      const auto le =
          std::find_if(sample.labels.begin(), sample.labels.end(),
                       [](const auto& kv) { return kv.first == "le"; });
      if (le == sample.labels.end()) {
        err = "bucket sample without le label: " + line;
        return false;
      }
      const double edge = le->second == "+Inf"
                              ? std::numeric_limits<double>::infinity()
                              : std::strtod(le->second.c_str(), nullptr);
      family(base).buckets.emplace_back(edge, sample.value);
    } else if (sample.name.size() > kCount.size() &&
               sample.name.compare(sample.name.size() - kCount.size(),
                                   kCount.size(), kCount) == 0) {
      auto& series =
          family(sample.name.substr(0, sample.name.size() - kCount.size()));
      series.has_count = true;
      series.count = sample.value;
    }
  }

  for (const auto& [base, series] : families) {
    if (series.buckets.empty()) continue;  // a *_count without buckets is
                                           // just a counter named that way
    for (std::size_t i = 1; i < series.buckets.size(); ++i) {
      if (!(series.buckets[i].first > series.buckets[i - 1].first)) {
        err = "histogram " + base + " has non-ascending le edges";
        return false;
      }
      if (series.buckets[i].second < series.buckets[i - 1].second) {
        err = "histogram " + base + " has decreasing cumulative counts";
        return false;
      }
    }
    if (!std::isinf(series.buckets.back().first)) {
      err = "histogram " + base + " is missing the le=\"+Inf\" bucket";
      return false;
    }
    if (series.has_count && series.buckets.back().second != series.count) {
      err = "histogram " + base + " +Inf bucket does not equal _count";
      return false;
    }
  }
  return true;
}

ExpositionServer::ExpositionServer(ExpositionConfig config, Registry* registry)
    : config_(std::move(config)), registry_(registry) {
  server_ = std::make_unique<HttpServer>(
      config_.bind_address, config_.port,
      [this](const HttpRequest& request) { return handle(request); });
}

ExpositionServer::~ExpositionServer() { stop(); }

void ExpositionServer::set_status_provider(StatusProvider provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  status_provider_ = std::move(provider);
}

void ExpositionServer::set_health_provider(HealthProvider provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  health_provider_ = std::move(provider);
}

std::uint16_t ExpositionServer::port() const { return server_->port(); }

std::uint64_t ExpositionServer::requests_served() const {
  return server_->requests_served();
}

void ExpositionServer::stop() { server_->stop(); }

HttpResponse ExpositionServer::handle(const HttpRequest& request) {
  HttpResponse response;
  if (request.path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = render_prometheus(registry_->snapshot());
    return response;
  }
  if (request.path == "/statusz") {
    StatusProvider provider;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      provider = status_provider_;
    }
    response.content_type = "application/json";
    response.body =
        render_statusz(util::HostInfo::current(), registry_->snapshot(),
                       provider ? provider() : std::string());
    return response;
  }
  if (request.path == "/healthz") {
    HealthProvider provider;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      provider = health_provider_;
    }
    const HealthProbe probe = provider ? provider() : HealthProbe{};
    const std::uint64_t deadline_ns =
        static_cast<std::uint64_t>(config_.stall_deadline.count()) * 1000000ull;
    const bool stalled =
        probe.jobs_remaining > 0 && probe.ns_since_progress > deadline_ns;
    response.status = stalled ? 503 : 200;
    response.content_type = "application/json";
    std::ostringstream body;
    body << "{\"healthy\": " << (stalled ? "false" : "true")
         << ", \"jobs_remaining\": " << probe.jobs_remaining
         << ", \"ms_since_progress\": " << probe.ns_since_progress / 1000000ull
         << ", \"stall_deadline_ms\": " << config_.stall_deadline.count()
         << "}\n";
    response.body = body.str();
    return response;
  }
  response.status = 404;
  response.body = "no such endpoint; try /metrics, /statusz, /healthz\n";
  return response;
}

}  // namespace leakydsp::obs
