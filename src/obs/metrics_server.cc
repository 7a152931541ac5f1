#include "obs/metrics_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ses::obs {

namespace {

/// Process epoch for /healthz uptime (static-init time of the obs library).
const std::chrono::steady_clock::time_point g_process_epoch =
    std::chrono::steady_clock::now();

/// Longest a single recv or send on a client socket may block. The serve
/// thread handles one connection at a time, so without it a client that
/// connects and sends nothing (or stops reading) would wedge every later
/// scrape and Stop() with them.
constexpr timeval kClientIoTimeout{2, 0};

/// Writes all of `data`, retrying on partial writes and EINTR. A multi-MB
/// /metrics body (thousands of labeled series) does not fit one send() on a
/// default socket buffer, and a signal (profiling timers, crash-handler
/// tests) can interrupt a blocked send mid-body — neither may truncate a
/// scrape. MSG_NOSIGNAL keeps a disconnecting scraper from killing the
/// process with SIGPIPE.
bool SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // peer closed or hard error: give up
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool MetricsServer::RenderEndpoint(const std::string& path, std::string* body,
                                   std::string* content_type) {
  if (path == "/metrics") {
    std::ostringstream out;
    WriteMetricsExposition(out);
    *body = out.str();
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return true;
  }
  if (path == "/healthz") {
    const double uptime =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - g_process_epoch)
            .count();
    // Copy-then-serialize: every component's JSON is deep-copied out of the
    // health registry (providers run under the registry lock) BEFORE any of
    // it is written to the response. A component that unregisters while this
    // scrape serializes therefore cannot invalidate anything we still hold —
    // the snapshot owns its strings.
    const auto components = CollectHealthComponents();
    std::ostringstream out;
    out << "{\"status\":\"ok\",\"uptime_seconds\":" << uptime
        << ",\"requests_started\":" << RequestsStarted()
        << ",\"components\":{";
    bool first = true;
    for (const auto& [name, json] : components) {
      if (!first) out << ",";
      first = false;
      // Component JSON comes pre-rendered from the provider; only the name
      // needs escaping.
      out << util::JsonQuote(name) << ":" << json;
    }
    out << "}}\n";
    *body = out.str();
    *content_type = "application/json";
    return true;
  }
  if (path == "/debug/slowest") {
    *body = FlightRecorder::Get().SnapshotJson();
    *body += '\n';
    *content_type = "application/json";
    return true;
  }
  return false;
}

bool MetricsServer::Start(uint16_t port) {
  if (running_.load(std::memory_order_relaxed)) {
    SES_LOG_ERROR << "metrics server already running on port " << port_;
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    SES_LOG_ERROR << "metrics server: socket() failed: "
                  << std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    SES_LOG_ERROR << "metrics server: cannot bind port " << port << ": "
                  << std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  start_time_ = std::chrono::steady_clock::now();
  served_.store(0, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { Serve(); });
  return true;
}

void MetricsServer::Stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  // Unblocks accept(): shutdown makes the blocked call return with an error.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void MetricsServer::Serve() {
  while (running_.load(std::memory_order_relaxed)) {
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd < 0) {
      if (!running_.load(std::memory_order_relaxed)) break;
      continue;  // transient accept failure (e.g. ECONNABORTED)
    }
    ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &kClientIoTimeout,
                 sizeof(kClientIoTimeout));
    ::setsockopt(client_fd, SOL_SOCKET, SO_SNDTIMEO, &kClientIoTimeout,
                 sizeof(kClientIoTimeout));
    HandleConnection(client_fd);
    ::close(client_fd);
  }
}

void MetricsServer::HandleConnection(int client_fd) {
  // Only the request line matters; read one chunk and parse "GET <path> ...".
  char buf[2048];
  ssize_t n;
  do {
    n = ::recv(client_fd, buf, sizeof(buf) - 1, 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return;
  buf[n] = '\0';
  std::string method, path;
  {
    std::istringstream line(buf);
    line >> method >> path;
  }
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  std::string body, content_type, status = "200 OK";
  if (method != "GET") {
    status = "405 Method Not Allowed";
    body = "method not allowed\n";
    content_type = "text/plain";
  } else if (!RenderEndpoint(path, &body, &content_type)) {
    status = "404 Not Found";
    body = "not found; try /metrics, /healthz or /debug/slowest\n";
    content_type = "text/plain";
  }

  std::ostringstream response;
  response << "HTTP/1.0 " << status << "\r\nContent-Type: " << content_type
           << "\r\nContent-Length: " << body.size()
           << "\r\nConnection: close\r\n\r\n"
           << body;
  const std::string out = response.str();
  SendAll(client_fd, out.data(), out.size());
  served_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace ses::obs
