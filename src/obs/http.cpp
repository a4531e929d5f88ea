#include "obs/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>

#include "util/contracts.h"

namespace leakydsp::obs {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;
constexpr int kAcceptPollMs = 100;  ///< stop() latency bound
/// Deadline for reading one whole request. It bounds the request, not each
/// recv(): a client dripping a byte at a time cannot hold the server's
/// only thread (and with it /healthz) for longer than this.
constexpr std::chrono::milliseconds kRequestTimeout{2000};
constexpr int kSendTimeoutSec = 2;

const char* status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

/// Writes all of `data`, retrying short writes; false on error.
bool write_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

HttpServer::HttpServer(const std::string& bind_address, std::uint16_t port,
                       Handler handler)
    : handler_(std::move(handler)) {
  LD_REQUIRE(handler_ != nullptr, "HttpServer needs a handler");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  LD_REQUIRE(listen_fd_ >= 0,
             "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    LD_REQUIRE(false, "bad bind address '" << bind_address << "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    LD_REQUIRE(false, "cannot listen on " << bind_address << ":" << port
                                          << ": " << std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  thread_ = std::thread([this] { serve_loop(); });
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  stopping_.store(true, std::memory_order_release);
  // One caller wins the join; stop() from the destructor after an explicit
  // stop() finds the thread already joined and the fd closed. The mutex is
  // per instance, so stopping one server never waits on another's join.
  std::lock_guard<std::mutex> lock(join_mutex_);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::serve_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) continue;  // timeout (re-check stopping_) or EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    timeval tv{kSendTimeoutSec, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    handle_connection(fd);
    ::close(fd);
  }
}

void HttpServer::handle_connection(int fd) {
  // Read until the end of the header block (the endpoints take no bodies),
  // polling on the time left before every recv().
  const auto deadline = std::chrono::steady_clock::now() + kRequestTimeout;
  std::string request;
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;  // deadline passed (or poll failed)
    char buf[1024];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed or read error
    request.append(buf, static_cast<std::size_t>(n));
  }
  if (request.empty()) return;  // no request before close or deadline

  HttpResponse response;
  const std::size_t line_end = request.find("\r\n");
  const std::size_t sp1 = request.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : request.find(' ', sp1 + 1);
  if (line_end == std::string::npos || sp1 == std::string::npos ||
      sp2 == std::string::npos || sp2 > line_end) {
    response.status = 400;
    response.body = "malformed request line\n";
  } else {
    HttpRequest req;
    req.method = request.substr(0, sp1);
    req.target = request.substr(sp1 + 1, sp2 - sp1 - 1);
    req.path = req.target.substr(0, req.target.find('?'));
    if (req.method != "GET" && req.method != "HEAD") {
      response.status = 405;
      response.body = "only GET is served here\n";
    } else {
      try {
        response = handler_(req);
      } catch (const std::exception& e) {
        response.status = 500;
        response.content_type = "text/plain; charset=utf-8";
        response.body = std::string("handler error: ") + e.what() + "\n";
      }
      if (req.method == "HEAD") response.body.clear();
    }
  }

  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    status_text(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  (void)write_all(fd, out.data(), out.size());
  served_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace leakydsp::obs
