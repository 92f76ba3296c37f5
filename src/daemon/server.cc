#include "src/daemon/server.h"

#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <vector>

#include "src/common/log.h"
#include "src/daemon/protocol.h"
#include "src/stats/stats.h"

namespace puddled {
namespace {

Credentials ConnCredentials(const puddles::UnixSocket& socket) {
  Credentials creds = Credentials::Self();
  auto peer = socket.Credentials();
  if (peer.ok()) {
    creds.uid = peer->uid;
    creds.gid = peer->gid;
  }
  return creds;
}

}  // namespace

puddles::Result<std::unique_ptr<Server>> Server::Start(Daemon* daemon,
                                                       const std::string& socket_path) {
  std::unique_ptr<Server> server(new Server(daemon, socket_path));
  ASSIGN_OR_RETURN(server->listener_, puddles::UnixSocketServer::Bind(socket_path));
  server->accept_thread_ = std::thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

Server::~Server() { Stop(); }

ServerStats Server::stats() const {
  ServerStats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.closed = closed_.load(std::memory_order_relaxed);
  out.accept_retries = accept_retries_.load(std::memory_order_relaxed);
  out.active = out.accepted - out.closed;
  return out;
}

void Server::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  // Shutdown unblocks the accept loop but keeps the fd alive until the thread
  // is joined — closing first would race Accept() against fd reuse.
  listener_.Shutdown();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  listener_.Close();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, entry] : conns_) {
      // Unblock threads parked in recvmsg — but only on still-live fds. A
      // finished thread may already have closed its descriptor, and the
      // number may belong to an unrelated file by now (the fd-reuse bug the
      // finished set exists to prevent).
      if (finished_.find(id) == finished_.end()) {
        ::shutdown(entry.fd, SHUT_RDWR);
      }
      threads.push_back(std::move(entry.thread));
    }
    conns_.clear();
    finished_.clear();
  }
  for (std::thread& thread : threads) {
    if (thread.joinable()) {
      thread.join();
    }
  }
}

void Server::AcceptLoop() {
  int backoff_ms = 1;
  while (!stopping_.load(std::memory_order_acquire)) {
    ReapFinished();
    int err = 0;
    puddles::UnixSocket socket = listener_.TryAccept(&err);
    if (!socket.valid()) {
      if (stopping_.load(std::memory_order_acquire)) {
        break;
      }
      accept_retries_.fetch_add(1, std::memory_order_relaxed);
      PUDDLES_COUNT(kDaemonAcceptRetry);
      if (err == ECONNABORTED) {
        continue;  // Peer gave up mid-handshake; nothing to back off for.
      }
      // Descriptor/memory pressure (EMFILE, ENFILE, ENOBUFS, ...) or
      // anything unexpected: log, back off, retry. Returning here is the bug
      // this loop replaced — one transient failure and the daemon would
      // never accept again.
      PUD_LOG_WARN("accept failed (errno=%d): retrying in %d ms", err, backoff_ms);
      timespec delay{backoff_ms / 1000, (backoff_ms % 1000) * 1000000L};
      ::nanosleep(&delay, nullptr);
      backoff_ms = std::min(backoff_ms * 2, 100);
      continue;
    }
    backoff_ms = 1;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    PUDDLES_COUNT(kDaemonConnAccepted);
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = next_id_++;
    Conn entry;
    entry.fd = socket.fd();
    entry.thread = std::thread([this, id, socket = std::move(socket)]() mutable {
      ServeConnection(id, std::move(socket));
    });
    conns_.emplace(id, std::move(entry));
  }
}

void Server::ReapFinished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t id : finished_) {
      auto it = conns_.find(id);
      if (it == conns_.end()) {
        continue;
      }
      done.push_back(std::move(it->second.thread));
      conns_.erase(it);
    }
    finished_.clear();
  }
  // Joins happen outside mu_: a finishing thread takes the lock to mark
  // itself finished just before exiting.
  for (std::thread& thread : done) {
    if (thread.joinable()) {
      thread.join();
    }
  }
}

void Server::ServeConnection(uint64_t id, puddles::UnixSocket socket) {
  Credentials creds = ConnCredentials(socket);
  while (!stopping_.load(std::memory_order_acquire)) {
    // Recv rejects frames above 64 MiB: such a length is a corrupt or
    // hostile stream, and the connection is dropped without a response.
    auto message = socket.Recv();
    if (!message.ok()) {
      break;  // Peer closed (or error): end this connection.
    }
    // Requests carry no fds; close any unexpected ones.
    for (int fd : message->fds) {
      ::close(fd);
    }
    DispatchResult result = DispatchRequest(*daemon_, creds, message->bytes);
    std::vector<int> fds;
    if (result.fd >= 0) {
      fds.push_back(result.fd);
    }
    puddles::Status sent = socket.Send(result.response, fds);
    if (result.fd >= 0) {
      ::close(result.fd);  // The kernel duplicated it into the peer.
    }
    if (!sent.ok()) {
      break;
    }
  }
  // Mark finished BEFORE `socket` closes (on return): the reaper joins us
  // and Stop() treats unfinished entries' fds as live to shutdown() — doing
  // either after close could hit a recycled descriptor number.
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished_.insert(id);
  }
  closed_.fetch_add(1, std::memory_order_relaxed);
  PUDDLES_COUNT(kDaemonConnClosed);
}

}  // namespace puddled
