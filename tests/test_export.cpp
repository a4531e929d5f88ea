// Telemetry exposition: Prometheus/statusz rendering pinned against
// goldens from a synthetic registry, quantile-estimation bounds, histogram
// exposition edge cases (NaN drop, fixed-point sums, +Inf bucket), the
// exposition text checker, the HTTP endpoint server end-to-end, the
// bench-regression differ, and the contract everything hangs on: scraping
// a draining campaign service never changes its results (DESIGN.md,
// "Observability").
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "serve/campaign_service.h"
#include "serve/standard_jobs.h"
#include "util/bench_diff.h"
#include "util/bench_json.h"
#include "util/json.h"

namespace la = leakydsp::attack;
namespace lo = leakydsp::obs;
namespace ls = leakydsp::serve;
namespace lu = leakydsp::util;

namespace {

/// Restores the global registry on scope exit.
struct RegistryGuard {
  ~RegistryGuard() { lo::Registry::global().reset(); }
};

/// Minimal blocking HTTP GET against 127.0.0.1:port; returns the full
/// response (status line + headers + body) or "" on connect failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[2048];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

int response_status(const std::string& response) {
  if (response.size() < 12) return -1;
  return std::stoi(response.substr(9, 3));
}

std::string response_body(const std::string& response) {
  const std::size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? std::string() : response.substr(sep + 4);
}

/// A synthetic registry with one of everything the renderer handles.
void fill_synthetic(lo::Registry& reg) {
  reg.add(reg.counter("serve.blocks"), 42);
  reg.add(reg.labeled_counter("serve.campaign.steps", "job-0"), 7);
  reg.set(reg.gauge("serve.resident"), 3);
  const auto h = reg.histogram("campaign.block.ms", {1.0, 2.0, 4.0});
  reg.observe(h, 0.5);
  reg.observe(h, 1.5);
  reg.observe(h, 3.0);
  reg.observe(h, 100.0);
}

ls::StandardCampaignSpec scrape_spec(const std::string& id,
                                     std::uint64_t seed) {
  ls::StandardCampaignSpec spec;
  spec.id = id;
  spec.seed = seed;
  spec.max_traces = 128;
  spec.block_traces = 16;
  spec.break_check_stride = 32;
  spec.rank_stride = 64;
  return spec;
}

bool identical_results(const la::CampaignResult& a,
                       const la::CampaignResult& b) {
  return a.traces_to_break == b.traces_to_break && a.broken == b.broken &&
         a.traces_run == b.traces_run &&
         a.mean_poi_readout == b.mean_poi_readout;
}

}  // namespace

// --------------------------------------------------------------- sanitize

TEST(ExportSanitize, MapsRegistryNamesToPrometheusNames) {
  EXPECT_EQ(lo::sanitize_metric_name("serve.blocks"), "serve_blocks");
  EXPECT_EQ(lo::sanitize_metric_name("already_fine"), "already_fine");
  EXPECT_EQ(lo::sanitize_metric_name("with-dash and space"),
            "with_dash_and_space");
  EXPECT_EQ(lo::sanitize_metric_name("9starts.with.digit"),
            "_9starts_with_digit");
  EXPECT_EQ(lo::sanitize_metric_name(""), "_");
  // Labeled-counter names keep their label suffix verbatim.
  EXPECT_EQ(lo::sanitize_metric_name("serve.campaign.steps{id=\"job-0\"}"),
            "serve_campaign_steps{id=\"job-0\"}");
}

// -------------------------------------------------------------- quantiles

TEST(ExportQuantile, InterpolatesWithinBucketsMonotonically) {
  lo::Registry::HistogramSnapshot h;
  h.upper_edges = {1.0, 2.0, 4.0};
  h.counts = {1, 1, 1, 1};  // + overflow
  h.total = 4;

  const double p50 = lo::estimate_quantile(h, 0.50);
  const double p95 = lo::estimate_quantile(h, 0.95);
  const double p99 = lo::estimate_quantile(h, 0.99);
  EXPECT_DOUBLE_EQ(p50, 2.0);  // rank 2 lands exactly on bucket 2's edge
  // Ranks inside the overflow bucket report the last finite edge (a lower
  // bound) rather than inventing an upper edge.
  EXPECT_DOUBLE_EQ(p95, 4.0);
  EXPECT_DOUBLE_EQ(p99, 4.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);

  // Every estimate stays within the representable range.
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0}) {
    const double est = lo::estimate_quantile(h, q);
    EXPECT_GE(est, 0.0) << "q=" << q;
    EXPECT_LE(est, h.upper_edges.back()) << "q=" << q;
  }

  lo::Registry::HistogramSnapshot empty;
  empty.upper_edges = {1.0, 2.0};
  empty.counts = {0, 0, 0};
  EXPECT_DOUBLE_EQ(lo::estimate_quantile(empty, 0.5), 0.0);
}

// ------------------------------------------------- histogram edge cases

TEST(ExportHistogram, NanObservationsAreDroppedAndCounted) {
  lo::Registry reg;
  const auto h = reg.histogram("h", {1.0, 10.0});
  reg.observe(h, 0.5);
  reg.observe(h, std::numeric_limits<double>::quiet_NaN());
  reg.observe(h, std::numeric_limits<double>::quiet_NaN());
  reg.observe(h, 5.0);

  const auto snapshot = reg.snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const auto& hs = snapshot.histograms[0].second;
  EXPECT_EQ(hs.total, 2u) << "NaN must not land in any bucket";
  EXPECT_EQ(hs.counts.back(), 0u) << "NaN must not hit the overflow bucket";
  EXPECT_DOUBLE_EQ(hs.sum, 5.5);
  EXPECT_EQ(reg.counter_value("obs.histogram.nan_dropped"), 2u);
}

TEST(ExportHistogram, FixedPointSumHandlesNegativesAndResolution) {
  lo::Registry reg;
  const auto h = reg.histogram("h", {0.0, 1.0});
  reg.observe(h, -2.5);
  reg.observe(h, 0.000001);  // one micro-unit: the resolution floor
  reg.observe(h, 3.25);

  const auto snapshot = reg.snapshot();
  EXPECT_NEAR(snapshot.histograms[0].second.sum, 0.750001, 1e-9);
}

// ------------------------------------------------------------- prometheus

TEST(ExportPrometheus, GoldenRenderFromSyntheticRegistry) {
  lo::Registry reg;
  fill_synthetic(reg);

  const std::string expected =
      "# TYPE serve_blocks counter\n"
      "serve_blocks 42\n"
      "# TYPE serve_campaign_steps counter\n"
      "serve_campaign_steps{id=\"job-0\"} 7\n"
      "# TYPE serve_resident gauge\n"
      "serve_resident 3\n"
      "# TYPE campaign_block_ms histogram\n"
      "campaign_block_ms_bucket{le=\"1\"} 1\n"
      "campaign_block_ms_bucket{le=\"2\"} 2\n"
      "campaign_block_ms_bucket{le=\"4\"} 3\n"
      "campaign_block_ms_bucket{le=\"+Inf\"} 4\n"
      "campaign_block_ms_sum 105\n"
      "campaign_block_ms_count 4\n"
      "# TYPE campaign_block_ms_p50 gauge\n"
      "campaign_block_ms_p50 2\n"
      "# TYPE campaign_block_ms_p95 gauge\n"
      "campaign_block_ms_p95 4\n"
      "# TYPE campaign_block_ms_p99 gauge\n"
      "campaign_block_ms_p99 4\n";
  EXPECT_EQ(lo::render_prometheus(reg.snapshot()), expected);

  std::string error;
  EXPECT_TRUE(lo::check_prometheus_text(expected, &error)) << error;
}

TEST(ExportPrometheus, CheckerRejectsMalformedText) {
  std::string error;
  EXPECT_FALSE(lo::check_prometheus_text("9bad{ 1\n", &error));
  EXPECT_FALSE(lo::check_prometheus_text("name_without_value\n", &error));
  EXPECT_FALSE(lo::check_prometheus_text("metric not_a_number\n", &error));
  // Histogram without the +Inf terminator.
  EXPECT_FALSE(lo::check_prometheus_text(
      "h_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 2\nh_count 2\n", &error));
  EXPECT_NE(error.find("+Inf"), std::string::npos) << error;
  // Decreasing cumulative counts.
  EXPECT_FALSE(lo::check_prometheus_text(
      "h_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n", &error));
  // +Inf bucket disagreeing with _count.
  EXPECT_FALSE(lo::check_prometheus_text(
      "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n", &error));
  // A well-formed document passes.
  EXPECT_TRUE(lo::check_prometheus_text(
      "# a comment\nok 1\nh_bucket{le=\"1\"} 1\n"
      "h_bucket{le=\"+Inf\"} 2\nh_sum 1.5\nh_count 2\n",
      &error))
      << error;
}

// ---------------------------------------------------------------- statusz

TEST(ExportStatusz, GoldenRenderWithInjectedHost) {
  lo::Registry reg;
  fill_synthetic(reg);
  lu::HostInfo host;
  host.hardware_threads = 8;
  host.compiler = "testcc 1.0";
  host.cxx_flags = "-O2";
  host.build_type = "Release";

  const std::string text =
      lo::render_statusz(host, reg.snapshot(), "{\"jobs_total\": 2}");
  const lu::JsonValue doc = lu::parse_json(text);

  EXPECT_EQ(doc.find("build")->find("compiler")->as_string(), "testcc 1.0");
  EXPECT_EQ(doc.find("host")->find("hardware_threads")->as_number(), 8.0);
  const lu::JsonValue* metrics = doc.find("metrics");
  EXPECT_EQ(metrics->find("counters")->find("serve_blocks")->as_number(),
            42.0);
  // Labeled counters keep their suffix under the sanitized base — the same
  // name mapping as /metrics.
  EXPECT_NE(metrics->find("counters")->find(
                "serve_campaign_steps{id=\"job-0\"}"),
            nullptr);
  const lu::JsonValue* histogram =
      metrics->find("histograms")->find("campaign_block_ms");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->find("count")->as_number(), 4.0);
  EXPECT_EQ(histogram->find("sum")->as_number(), 105.0);
  EXPECT_EQ(histogram->find("p50")->as_number(), 2.0);
  EXPECT_EQ(doc.find("service")->find("jobs_total")->as_number(), 2.0);

  // Without a service fragment the service field is null.
  const lu::JsonValue bare =
      lu::parse_json(lo::render_statusz(host, reg.snapshot(), ""));
  EXPECT_TRUE(bare.find("service")->is_null());
}

// ------------------------------------------------------------ http server

TEST(ExportServer, ServesMetricsStatuszHealthzAndRejectsUnknown) {
  RegistryGuard guard;
  lo::Registry::global().add(lo::Registry::global().counter("test.counter"),
                             5);

  lo::ExpositionConfig config;
  config.stall_deadline = std::chrono::milliseconds(50);
  lo::ExpositionServer server(config);
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_EQ(response_status(metrics), 200);
  EXPECT_NE(response_body(metrics).find("test_counter 5"), std::string::npos);
  std::string error;
  EXPECT_TRUE(lo::check_prometheus_text(response_body(metrics), &error))
      << error;

  const std::string statusz = http_get(server.port(), "/statusz");
  EXPECT_EQ(response_status(statusz), 200);
  const lu::JsonValue doc = lu::parse_json(response_body(statusz));
  EXPECT_TRUE(doc.find("service")->is_null());

  // Healthy without a provider, healthy with jobs but fresh progress,
  // 503 once jobs remain past the stall deadline.
  EXPECT_EQ(response_status(http_get(server.port(), "/healthz")), 200);
  std::atomic<std::uint64_t> ns_since{0};
  server.set_health_provider([&ns_since] {
    return lo::HealthProbe{2, ns_since.load()};
  });
  EXPECT_EQ(response_status(http_get(server.port(), "/healthz")), 200);
  ns_since.store(60ull * 1000 * 1000);  // 60ms > the 50ms deadline
  const std::string stalled = http_get(server.port(), "/healthz");
  EXPECT_EQ(response_status(stalled), 503);
  EXPECT_NE(response_body(stalled).find("\"healthy\": false"),
            std::string::npos);

  EXPECT_EQ(response_status(http_get(server.port(), "/nope")), 404);
  EXPECT_GE(server.requests_served(), 6u);
  server.stop();
  server.stop();  // idempotent
}

TEST(ExportServer, StoppingOneServerNeverWaitsOnAnother) {
  using namespace std::chrono_literals;
  const auto ok = [](const lo::HttpRequest&) { return lo::HttpResponse{}; };
  lo::HttpServer a("127.0.0.1", 0, ok);
  lo::HttpServer b("127.0.0.1", 0, ok);

  // An idle client that never sends a request: A's only thread accepts it
  // and waits for it until the 2 s request deadline.
  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(a.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(idle, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  std::this_thread::sleep_for(300ms);  // A accepts within one 100 ms poll

  // A's stop() blocks joining its thread; B's must not queue behind it.
  std::thread stop_a([&a] { a.stop(); });
  std::this_thread::sleep_for(100ms);
  const auto start = std::chrono::steady_clock::now();
  b.stop();
  const auto b_stop = std::chrono::steady_clock::now() - start;
  ::close(idle);  // releases A's recv()
  stop_a.join();
  EXPECT_LT(b_stop, 500ms);
}

TEST(ExportServer, DripFeedingClientCannotStarveHealthz) {
  using namespace std::chrono_literals;
  lo::ExpositionServer server(lo::ExpositionConfig{});
  const std::uint16_t port = server.port();

  // A client that sends one byte every 250 ms and never finishes its
  // request. Each byte arrives well inside any per-recv() timeout, so only
  // a whole-request deadline frees the server's one thread.
  std::thread dripper([port] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      const auto start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - start < 6s) {
        // Fails once the server has hung up on us.
        if (::send(fd, "a", 1, MSG_NOSIGNAL) != 1) break;
        std::this_thread::sleep_for(250ms);
      }
    }
    ::close(fd);
  });

  std::this_thread::sleep_for(1s);
  const auto start = std::chrono::steady_clock::now();
  const std::string health = http_get(port, "/healthz");
  const auto latency = std::chrono::steady_clock::now() - start;
  dripper.join();
  EXPECT_EQ(response_status(health), 200);
  EXPECT_LT(latency, 4s);
}

// ----------------------------------------------- scrape-while-drain oracle

TEST(ExportServer, ScrapingADrainingServiceNeverPerturbsResults) {
  RegistryGuard guard;

  std::vector<ls::StandardCampaignSpec> specs;
  for (std::uint64_t seed : {501u, 502u, 503u, 504u}) {
    specs.push_back(scrape_spec("scrape" + std::to_string(seed), seed));
  }

  ls::ServiceConfig config;
  config.threads = 3;
  config.max_resident = specs.size();  // uncontended: no checkpoint needed
  ls::CampaignService service(config);
  for (const auto& spec : specs) {
    service.enqueue(ls::make_standard_job(spec));
  }

  lo::ExpositionServer server(lo::ExpositionConfig{});
  server.set_status_provider([&service] { return service.statusz_json(); });
  server.set_health_provider([&service] {
    const ls::HealthSnapshot health = service.health();
    return lo::HealthProbe{health.jobs_remaining, health.ns_since_progress};
  });

  // Hammer every endpoint for the whole drain.
  std::atomic<bool> done{false};
  std::size_t scrapes = 0;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::string metrics = http_get(server.port(), "/metrics");
      std::string error;
      EXPECT_TRUE(
          lo::check_prometheus_text(response_body(metrics), &error))
          << error;
      const std::string statusz = response_body(
          http_get(server.port(), "/statusz"));
      EXPECT_NO_THROW(lu::parse_json(statusz)) << statusz;
      (void)http_get(server.port(), "/healthz");
      ++scrapes;
    }
  });

  const auto outcomes = service.drain();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(scrapes, 0u);

  ASSERT_EQ(outcomes.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto standalone = ls::run_standard_campaign(specs[i], 2);
    EXPECT_TRUE(identical_results(outcomes[i].result, standalone))
        << "scraped result diverged from standalone for " << specs[i].id;
  }

  // The drained service introspects as finished.
  const ls::ServiceIntrospection view = service.introspect();
  EXPECT_EQ(view.jobs_done, specs.size());
  for (const auto& status : view.campaigns) {
    EXPECT_EQ(status.state, ls::CampaignState::kFinished);
    EXPECT_EQ(status.traces_done, 128u);
    EXPECT_EQ(status.traces_total, 128u);
  }
  const ls::HealthSnapshot health = service.health();
  EXPECT_EQ(health.jobs_remaining, 0u);
}

// -------------------------------------------------------------- benchdiff

TEST(BenchDiff, PassesIdenticalAndFlagsRegressions) {
  const std::string baseline = R"({
    "bench": "demo", "host": {"hardware_threads": 64},
    "metrics": {"peak_rss_kb": 1000, "solve.calls": 10},
    "results": [
      {"section": "a", "variant": "x", "iterations": 100, "wall_ms": 5.0,
       "converged": true},
      {"section": "a", "variant": "y", "iterations": 50, "wall_ms": 2.0,
       "converged": true}
    ]})";
  const lu::JsonValue base = lu::parse_json(baseline);

  lu::BenchDiffOptions options;
  options.rel_tol = 0.10;

  // Identical reports pass; the host block is never compared.
  const auto same = lu::diff_bench_reports(base, base, options);
  EXPECT_TRUE(same.pass) << same.to_json();
  EXPECT_EQ(same.rows_compared, 3u);  // metrics + 2 result rows

  // An out-of-tolerance numeric field fails with a usable verdict.
  const lu::JsonValue worse = lu::parse_json(R"({
    "bench": "demo", "host": {"hardware_threads": 1},
    "metrics": {"peak_rss_kb": 1000, "solve.calls": 10},
    "results": [
      {"section": "a", "variant": "x", "iterations": 150, "wall_ms": 9.0,
       "converged": true},
      {"section": "a", "variant": "y", "iterations": 50, "wall_ms": 2.0,
       "converged": true}
    ]})");
  const auto fail = lu::diff_bench_reports(base, worse, options);
  EXPECT_FALSE(fail.pass);
  const lu::JsonValue verdict = lu::parse_json(fail.to_json());
  EXPECT_FALSE(verdict.find("pass")->as_bool());
  EXPECT_GE(verdict.find("regressions")->as_array().size(), 2u);

  // Ignoring the noisy fields and relaxing iterations lets it pass again.
  options.ignore_fields = {"wall_ms"};
  options.field_tols = {{"iterations", 0.60}};
  EXPECT_TRUE(lu::diff_bench_reports(base, worse, options).pass);

  // A flipped bool is always a regression, whatever the tolerance.
  const lu::JsonValue diverged = lu::parse_json(R"({
    "bench": "demo", "host": {},
    "metrics": {"peak_rss_kb": 1000, "solve.calls": 10},
    "results": [
      {"section": "a", "variant": "x", "iterations": 100, "wall_ms": 5.0,
       "converged": false},
      {"section": "a", "variant": "y", "iterations": 50, "wall_ms": 2.0,
       "converged": true}
    ]})");
  EXPECT_FALSE(lu::diff_bench_reports(base, diverged, options).pass);
}

TEST(BenchDiff, MissingRowsAndFieldsAreStructuralErrors) {
  const lu::JsonValue base = lu::parse_json(R"({
    "bench": "demo", "results": [
      {"section": "a", "variant": "x", "iterations": 100},
      {"section": "a", "variant": "y", "iterations": 50}
    ]})");
  const lu::JsonValue shrunk = lu::parse_json(R"({
    "bench": "demo", "results": [
      {"section": "a", "variant": "x", "iterations": 100}
    ]})");

  lu::BenchDiffOptions options;
  const auto missing = lu::diff_bench_reports(base, shrunk, options);
  EXPECT_FALSE(missing.pass);
  ASSERT_EQ(missing.errors.size(), 1u);
  EXPECT_NE(missing.errors[0].find("variant=y"), std::string::npos);

  options.allow_missing_rows = true;
  EXPECT_TRUE(lu::diff_bench_reports(base, shrunk, options).pass);

  // Candidate-only rows and fields never fail the gate.
  const lu::JsonValue grown = lu::parse_json(R"({
    "bench": "demo", "results": [
      {"section": "a", "variant": "x", "iterations": 100, "extra": 1.0},
      {"section": "a", "variant": "y", "iterations": 50},
      {"section": "b", "variant": "z", "iterations": 7}
    ]})");
  options.allow_missing_rows = false;
  EXPECT_TRUE(lu::diff_bench_reports(base, grown, options).pass);

  // Mismatched bench names refuse to compare at all.
  const lu::JsonValue other =
      lu::parse_json(R"({"bench": "other", "results": []})");
  const auto wrong = lu::diff_bench_reports(base, other, options);
  EXPECT_FALSE(wrong.pass);
  ASSERT_FALSE(wrong.errors.empty());
  EXPECT_NE(wrong.errors[0].find("bench mismatch"), std::string::npos);
}
