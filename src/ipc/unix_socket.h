// UNIX-domain stream sockets with SCM_RIGHTS descriptor passing.
//
// Paper §4.3/§4.6: applications talk to Puddled over a UNIX domain socket;
// approved puddle requests are answered with a file descriptor sent via
// sendmsg(2), which "serves as a capability, letting the application access
// the underlying puddle without any direct access to the underlying file."
// Caller identity for access control comes from SO_PEERCRED.
//
// Message framing: 4-byte little-endian length, then the payload. Any file
// descriptors ride in the ancillary data of the first fragment.
#ifndef SRC_IPC_UNIX_SOCKET_H_
#define SRC_IPC_UNIX_SOCKET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace puddles {

struct PeerCredentials {
  uint32_t pid = 0;
  uint32_t uid = 0;
  uint32_t gid = 0;
};

struct IpcMessage {
  std::vector<uint8_t> bytes;
  std::vector<int> fds;  // Ownership transfers to the receiver.
};

class UnixSocket {
 public:
  UnixSocket() = default;
  explicit UnixSocket(int fd) : fd_(fd) {}
  ~UnixSocket();

  UnixSocket(UnixSocket&& other) noexcept;
  UnixSocket& operator=(UnixSocket&& other) noexcept;
  UnixSocket(const UnixSocket&) = delete;
  UnixSocket& operator=(const UnixSocket&) = delete;

  static puddles::Result<UnixSocket> Connect(const std::string& path);

  // Connected socket pair (for in-process tests of the wire protocol).
  static puddles::Result<std::pair<UnixSocket, UnixSocket>> Pair();

  puddles::Status Send(const std::vector<uint8_t>& bytes, const std::vector<int>& fds = {});
  // Fails with kDataLoss on a length header above 64 MiB: such a frame is a
  // corrupt or hostile stream, not a real message.
  puddles::Result<IpcMessage> Recv();

  puddles::Result<PeerCredentials> Credentials() const;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

 private:
  int fd_ = -1;
};

class UnixSocketServer {
 public:
  UnixSocketServer() = default;
  ~UnixSocketServer();

  UnixSocketServer(UnixSocketServer&& other) noexcept;
  UnixSocketServer& operator=(UnixSocketServer&& other) noexcept;
  UnixSocketServer(const UnixSocketServer&) = delete;
  UnixSocketServer& operator=(const UnixSocketServer&) = delete;

  // Binds and listens; removes a stale socket file first.
  static puddles::Result<UnixSocketServer> Bind(const std::string& path);

  puddles::Result<UnixSocket> Accept();

  // Accept variant that reports the failing errno so callers can classify
  // transient failures (EMFILE, ECONNABORTED, descriptor pressure) from
  // fatal ones instead of giving up on the listening socket. EINTR is
  // retried internally. On success *err is 0; on failure the returned socket
  // is invalid and *err holds the errno.
  UnixSocket TryAccept(int* err);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const std::string& path() const { return path_; }

  // Unblocks a concurrent Accept() without invalidating the fd: safe to call
  // while another thread is inside Accept(). Close() is not — it recycles the
  // fd number, so it must only run after the accepting thread has exited
  // (Shutdown first, join, then Close).
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace puddles

#endif  // SRC_IPC_UNIX_SOCKET_H_
