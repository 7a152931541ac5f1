#ifndef SES_OBS_METRICS_SERVER_H_
#define SES_OBS_METRICS_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

namespace ses::obs {

/// Minimal embedded HTTP/1.0 server exposing the process's observability
/// surface for live scraping — no external dependencies, one blocking accept
/// thread, one request per connection (`Connection: close`). Endpoints:
///
///   GET /metrics        Prometheus text exposition of the MetricsRegistry,
///                       span aggregates included (WriteMetricsExposition)
///   GET /healthz        JSON: status, uptime, requests started, health
///                       components (copy-then-serialize: the
///                       component snapshot is fully materialized before any
///                       byte is rendered, so unregistering mid-scrape is
///                       safe)
///   GET /debug/slowest  JSON: the flight recorder's top-K slowest requests
///                       with their six critical-path stage timestamps
///
/// anything else answers 404, and a method other than GET 405. Intended for a
/// scrape every few seconds, not for high request rates; each response
/// snapshots the registry under its shared lock, so scrapes never block
/// metric updates. Every recv and send on a client socket times out after
/// 2 s, so an idle or stalled client delays later scrapes and Stop() by at
/// most that long.
class MetricsServer {
 public:
  MetricsServer() = default;
  ~MetricsServer() { Stop(); }
  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  /// Binds 0.0.0.0:`port` (0 picks an ephemeral port) and starts the serve
  /// thread. Returns false and logs on bind/listen failure.
  bool Start(uint16_t port);

  /// Unblocks the accept loop and joins the serve thread (after at most the
  /// 2 s client timeout if a connection is in progress). Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  /// Actual bound port (resolves port 0); 0 when not running.
  uint16_t port() const { return port_; }

  /// Requests served since Start (test support).
  int64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

  /// Builds the response body for `path` ("/metrics", "/healthz",
  /// "/debug/slowest"). Returns false for unknown paths. Exposed so tests can
  /// validate payloads without a socket round-trip.
  static bool RenderEndpoint(const std::string& path, std::string* body,
                             std::string* content_type);

 private:
  void Serve();
  void HandleConnection(int client_fd);

  std::atomic<bool> running_{false};
  std::atomic<int64_t> served_{0};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace ses::obs

#endif  // SES_OBS_METRICS_SERVER_H_
