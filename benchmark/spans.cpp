#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace leakydsp::bench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, tracer_->open_, tracer_->now_ns(), 0});
  tracer_->open_ = index_;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Record& record = tracer_->spans_[static_cast<std::size_t>(index_)];
  record.end_ns = tracer_->now_ns();
  tracer_->open_ = record.parent;
}

double Tracer::covered_ns() const {
  double covered = 0.0;
  for (const Record& r : spans_) {
    if (r.parent < 0) covered += static_cast<double>(r.end_ns - r.start_ns);
  }
  return covered;
}

std::vector<LayerStats> Tracer::aggregate() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns);
    }
  }
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, LayerStats> stats;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const double d = static_cast<double>(r.end_ns - r.start_ns);
    LayerStats& s = stats[r.name];
    s.name = r.name;
    ++s.count;
    s.total_ns += d;
    s.self_ns += d - child_ns[i];
    durations[r.name].push_back(d);
  }
  std::vector<LayerStats> out;
  for (auto& [name, s] : stats) {
    std::vector<double>& d = durations[name];
    std::sort(d.begin(), d.end());
    const auto at = [&](double q) {
      return d[static_cast<std::size_t>(q * static_cast<double>(d.size() - 1))];
    };
    s.p50_ns = at(0.5);
    if (d.size() >= 1000) {
      s.tail_ns = at(0.99);
      s.tail_label = "p99";
    } else if (d.size() >= 100) {
      s.tail_ns = at(0.90);
      s.tail_label = "p90";
    } else {
      s.tail_ns = s.p50_ns;
      s.tail_label = "p50";
    }
    out.push_back(s);
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "[\n";
  const std::size_t n =
      std::min<std::size_t>(spans_.size(), static_cast<std::size_t>(
                                               std::max(export_cutoff_, 0)));
  char buf[256];
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f}\n",
                  i == 0 ? "" : ",", r.name,
                  static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    os << buf;
  }
  os << "]\n";
  if (!os) throw std::runtime_error("write failure on " + path);
}

}  // namespace leakydsp::bench
