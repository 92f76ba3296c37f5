// The Puddled socket front end: accepts connections on a UNIX domain socket
// and dispatches requests against a Daemon, authenticating each connection
// via SO_PEERCRED (§4.6).
//
// One thread per connection (docs/daemon.md): a blocking accept loop hands
// each connection to its own thread, which reads a request, dispatches it and
// writes the response before it reads the next. Responses therefore come back
// in request order, and a client that never reads is throttled by its own
// socket buffers: the server reads nothing more while its send blocks.
//
// Lifecycle rules: the accept loop survives transient errors
// (EMFILE/ECONNABORTED) with backoff instead of exiting, Stop() only shuts
// down descriptors of still-live connections (fd numbers recycle), and
// finished connection threads are reaped as they complete rather than
// accumulating until Stop().
#ifndef SRC_DAEMON_SERVER_H_
#define SRC_DAEMON_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "src/daemon/daemon.h"
#include "src/ipc/unix_socket.h"

namespace puddled {

// Monotonic lifecycle counters (Server::stats()). `active` must return to
// zero once every client has disconnected — the regression surface for the
// fd-reuse and registry-leak bugs this server replaced.
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t closed = 0;
  uint64_t accept_retries = 0;  // Transient accept failures survived.
  uint64_t active = 0;          // accepted - closed.
};

class Server {
 public:
  // Binds `socket_path` and serves `daemon` until Stop(). The daemon must
  // outlive the server.
  static puddles::Result<std::unique_ptr<Server>> Start(Daemon* daemon,
                                                        const std::string& socket_path);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& socket_path() const { return socket_path_; }
  void Stop();

  ServerStats stats() const;

 private:
  // Connection registry entry. `finished_` ids are reaped (joined and erased)
  // by the accept loop; Stop() only shuts down fds whose serving thread has
  // not yet marked itself finished — a finished thread may have already
  // closed the fd, and the number may have been recycled.
  struct Conn {
    int fd = -1;
    std::thread thread;
  };

  Server(Daemon* daemon, std::string socket_path)
      : daemon_(daemon), socket_path_(std::move(socket_path)) {}

  void AcceptLoop();
  void ReapFinished();
  void ServeConnection(uint64_t id, puddles::UnixSocket socket);

  Daemon* daemon_;
  std::string socket_path_;
  puddles::UnixSocketServer listener_;
  std::atomic<bool> stopping_{false};

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> accept_retries_{0};

  std::mutex mu_;
  std::unordered_map<uint64_t, Conn> conns_;  // Guarded by mu_.
  std::unordered_set<uint64_t> finished_;     // Guarded by mu_.
  uint64_t next_id_ = 1;                      // Guarded by mu_.

  std::thread accept_thread_;
};

}  // namespace puddled

#endif  // SRC_DAEMON_SERVER_H_
