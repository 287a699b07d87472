// Socket front end of the resident daemon: one poll(2) loop, many clients.
//
// The server owns the listening socket (Unix domain or TCP on loopback) and
// multiplexes any number of clients over a single thread; every request is
// executed against the TickEngine inline, so engine state needs no locking
// and replies are ordered per connection. Long solves block other clients
// for at most the per-tick budget — that is the deal a 50 ms-budget control
// loop makes anyway.
//
// Shutdown paths all drain the engine (journal end_run, shared basis save,
// final RunReport) before run() returns:
//   * a client sends {"op": "shutdown"},
//   * request_stop() is called (another thread),
//   * the stop_check hook returns true (arrowctl's SIGTERM flag — polled
//     every poll timeout, so a signal interrupts an idle daemon within
//     ~100 ms).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "serve/engine.h"

namespace arrow::serve {

// Longest request line a client may send. The largest line a built-in
// network produces is FBsynth's `topology` request: 71,397 bytes with the
// .topo text JSON-escaped (its `tick` lines are ~31 KB). 1 MiB leaves ~14x
// headroom. A longer line, complete or still unterminated, gets one error
// reply, bumps arrow_serve_rejected_lines_total and closes the connection;
// without the cap a client that never sends '\n' grows its input buffer
// until the daemon runs out of memory.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

struct ServerConfig {
  // Exactly one of these should be set: a filesystem path for a Unix
  // socket, or a TCP port (0 picks an ephemeral port; 127.0.0.1 only —
  // the protocol has no authentication).
  std::string unix_path;
  int tcp_port = -1;
  // Polled between poll(2) wakeups (signal-handler flags go here).
  std::function<bool()> stop_check;
};

class Server {
 public:
  Server(TickEngine& engine, ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and listens. False on failure (see error()).
  bool start();
  const std::string& error() const { return error_; }
  // The bound TCP port (after start(); meaningful with tcp_port >= 0).
  int port() const { return port_; }

  // Serves until a stop is requested, then drains the engine and returns.
  void run();

  // Thread-safe stop request; run() notices within one poll timeout.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  // Executes one already-parsed request line against the engine and returns
  // the reply (NDJSON line, or a full HTTP response for GET lines). Sets
  // `close_conn` for HTTP replies and `stop_server` for shutdown. Exposed
  // so protocol handling is testable without sockets.
  std::string handle_line(const std::string& line, bool* close_conn,
                          bool* stop_server);

 private:
  struct Client {
    int fd = -1;
    std::string in;   // bytes received, not yet framed into lines
    std::size_t scanned = 0;  // prefix of `in` already searched for '\n'
    std::string out;  // bytes to send
    bool close_after_flush = false;
  };

  bool stopping() const;
  void process_client(Client& c);
  bool flush_client(Client& c);

  TickEngine& engine_;
  ServerConfig config_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::string error_;
  std::atomic<bool> stop_{false};
  std::vector<Client> clients_;
};

}  // namespace arrow::serve
