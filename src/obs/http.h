// Minimal, dependency-free blocking HTTP/1.1 server for the exposition
// endpoints (obs/export.h). Deliberately tiny: one listener thread accepts
// connections and handles them one at a time — an exposition endpoint is
// scraped every few seconds by one collector, not load-balanced — with
// bounded request size, a per-request read deadline, and a graceful
// stop() that unblocks the accept loop and joins the thread. GET only;
// every response closes the connection.
//
// The server never touches simulation state: handlers read registry
// snapshots and service introspection, both of which are lock-protected
// reads, so scraping a running server cannot perturb campaign results
// (pinned by tests/test_export.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace leakydsp::obs {

/// One parsed request. Only the pieces an exposition endpoint routes on.
struct HttpRequest {
  std::string method;  ///< "GET", "HEAD", ...
  std::string target;  ///< raw request target, e.g. "/metrics?x=1"
  std::string path;    ///< target with any query string stripped
};

/// One response; the server adds the status line, Content-Length and
/// Connection: close framing.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// The server. Construction binds, listens and starts the listener thread;
/// destruction (or stop()) shuts it down and joins.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Binds `bind_address:port` (port 0 picks an ephemeral port — read the
  /// bound one back via port()). Throws util::PreconditionError when the
  /// socket cannot be created or bound.
  HttpServer(const std::string& bind_address, std::uint16_t port,
             Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The actually bound port.
  std::uint16_t port() const { return port_; }

  /// Requests answered so far (any status).
  std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

  /// Stops accepting, drains the in-flight connection, joins the listener
  /// thread. Idempotent; also run by the destructor.
  void stop();

 private:
  void serve_loop();
  void handle_connection(int fd);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  Handler handler_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> served_{0};
  std::mutex join_mutex_;  ///< serializes concurrent stop() calls
  std::thread thread_;
};

}  // namespace leakydsp::obs
