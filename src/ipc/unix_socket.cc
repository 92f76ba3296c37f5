#include "src/ipc/unix_socket.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace puddles {
namespace {

constexpr size_t kMaxFdsPerMessage = 16;

puddles::Status FillAddr(const std::string& path, sockaddr_un* addr) {
  if (path.size() + 1 > sizeof(addr->sun_path)) {
    return InvalidArgumentError("socket path too long");
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return OkStatus();
}

// Reads exactly `size` bytes (no fds expected on continuation reads).
puddles::Status ReadExact(int fd, uint8_t* out, size_t size, std::vector<int>* fds) {
  size_t done = 0;
  while (done < size) {
    msghdr msg{};
    iovec iov{out + done, size - done};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int) * kMaxFdsPerMessage)];
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);

    ssize_t n = ::recvmsg(fd, &msg, MSG_CMSG_CLOEXEC);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoError("recvmsg", errno);
    }
    if (n == 0) {
      return UnavailableError("peer closed connection");
    }
    if (fds != nullptr) {
      for (cmsghdr* cmsg = CMSG_FIRSTHDR(&msg); cmsg != nullptr;
           cmsg = CMSG_NXTHDR(&msg, cmsg)) {
        if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SCM_RIGHTS) {
          size_t count = (cmsg->cmsg_len - CMSG_LEN(0)) / sizeof(int);
          const int* received = reinterpret_cast<const int*>(CMSG_DATA(cmsg));
          for (size_t i = 0; i < count; ++i) {
            fds->push_back(received[i]);
          }
        }
      }
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

}  // namespace

UnixSocket::~UnixSocket() { Close(); }

UnixSocket::UnixSocket(UnixSocket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

UnixSocket& UnixSocket::operator=(UnixSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void UnixSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

puddles::Result<UnixSocket> UnixSocket::Connect(const std::string& path) {
  sockaddr_un addr;
  RETURN_IF_ERROR(FillAddr(path, &addr));
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return ErrnoError("socket", errno);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int saved = errno;
    ::close(fd);
    return ErrnoError("connect " + path, saved);
  }
  return UnixSocket(fd);
}

puddles::Result<std::pair<UnixSocket, UnixSocket>> UnixSocket::Pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return ErrnoError("socketpair", errno);
  }
  return std::make_pair(UnixSocket(fds[0]), UnixSocket(fds[1]));
}

puddles::Status UnixSocket::Send(const std::vector<uint8_t>& bytes,
                                 const std::vector<int>& fds) {
  if (!valid()) {
    return FailedPreconditionError("socket closed");
  }
  if (fds.size() > kMaxFdsPerMessage) {
    return InvalidArgumentError("too many fds in one message");
  }
  uint32_t length = static_cast<uint32_t>(bytes.size());
  uint8_t header[4];
  std::memcpy(header, &length, 4);

  msghdr msg{};
  iovec iov[2] = {{header, 4},
                  {const_cast<uint8_t*>(bytes.data()), bytes.size()}};
  msg.msg_iov = iov;
  msg.msg_iovlen = bytes.empty() ? 1 : 2;

  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int) * kMaxFdsPerMessage)];
  if (!fds.empty()) {
    std::memset(control, 0, sizeof(control));
    msg.msg_control = control;
    msg.msg_controllen = CMSG_SPACE(sizeof(int) * fds.size());
    cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
    cmsg->cmsg_level = SOL_SOCKET;
    cmsg->cmsg_type = SCM_RIGHTS;
    cmsg->cmsg_len = CMSG_LEN(sizeof(int) * fds.size());
    std::memcpy(CMSG_DATA(cmsg), fds.data(), sizeof(int) * fds.size());
  }

  size_t total = 4 + bytes.size();
  size_t sent = 0;
  while (sent < total) {
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoError("sendmsg", errno);
    }
    sent += static_cast<size_t>(n);
    if (sent >= total) {
      break;
    }
    // Advance the iov past what was consumed; fds were attached to the first
    // fragment only.
    msg.msg_control = nullptr;
    msg.msg_controllen = 0;
    size_t remaining = sent;
    int iov_index = 0;
    iovec new_iov[2];
    size_t new_count = 0;
    size_t offsets[2] = {4, bytes.size()};
    const uint8_t* bases[2] = {header, bytes.data()};
    for (; iov_index < 2; ++iov_index) {
      if (remaining >= offsets[iov_index]) {
        remaining -= offsets[iov_index];
        continue;
      }
      new_iov[new_count].iov_base =
          const_cast<uint8_t*>(bases[iov_index]) + remaining;
      new_iov[new_count].iov_len = offsets[iov_index] - remaining;
      remaining = 0;
      ++new_count;
    }
    msg.msg_iov = new_iov;
    msg.msg_iovlen = new_count;
  }
  return OkStatus();
}

puddles::Result<IpcMessage> UnixSocket::Recv() {
  if (!valid()) {
    return FailedPreconditionError("socket closed");
  }
  IpcMessage message;
  uint8_t header[4];
  RETURN_IF_ERROR(ReadExact(fd_, header, 4, &message.fds));
  uint32_t length;
  std::memcpy(&length, header, 4);
  if (length > (64u << 20)) {
    return DataLossError("implausible message length");
  }
  message.bytes.resize(length);
  if (length > 0) {
    RETURN_IF_ERROR(ReadExact(fd_, message.bytes.data(), length, &message.fds));
  }
  return message;
}

puddles::Result<PeerCredentials> UnixSocket::Credentials() const {
  ucred cred{};
  socklen_t len = sizeof(cred);
  if (::getsockopt(fd_, SOL_SOCKET, SO_PEERCRED, &cred, &len) != 0) {
    return ErrnoError("getsockopt(SO_PEERCRED)", errno);
  }
  PeerCredentials out;
  out.pid = static_cast<uint32_t>(cred.pid);
  out.uid = cred.uid;
  out.gid = cred.gid;
  return out;
}

UnixSocketServer::~UnixSocketServer() { Close(); }

UnixSocketServer::UnixSocketServer(UnixSocketServer&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

UnixSocketServer& UnixSocketServer::operator=(UnixSocketServer&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

void UnixSocketServer::Shutdown() {
  if (fd_ >= 0) {
    // shutdown() unblocks a concurrent accept() (plain close() does not) and
    // leaves fd_ untouched, so a racing Accept() can never run on a recycled
    // fd number.
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void UnixSocketServer::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    ::unlink(path_.c_str());
    fd_ = -1;
  }
}

puddles::Result<UnixSocketServer> UnixSocketServer::Bind(const std::string& path) {
  sockaddr_un addr;
  RETURN_IF_ERROR(FillAddr(path, &addr));
  ::unlink(path.c_str());
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return ErrnoError("socket", errno);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int saved = errno;
    ::close(fd);
    return ErrnoError("bind " + path, saved);
  }
  if (::listen(fd, 64) != 0) {
    int saved = errno;
    ::close(fd);
    return ErrnoError("listen " + path, saved);
  }
  UnixSocketServer server;
  server.fd_ = fd;
  server.path_ = path;
  return server;
}

puddles::Result<UnixSocket> UnixSocketServer::Accept() {
  int err = 0;
  UnixSocket socket = TryAccept(&err);
  if (!socket.valid()) {
    return ErrnoError("accept", err);
  }
  return socket;
}

UnixSocket UnixSocketServer::TryAccept(int* err) {
  *err = 0;
  while (true) {
    int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      return UnixSocket(fd);
    }
    if (errno == EINTR) {
      continue;
    }
    *err = errno;
    return UnixSocket();
  }
}

}  // namespace puddles
