// The production transport: Puddled behind a UNIX domain socket, clients
// authenticated via SO_PEERCRED, puddle fds delivered via SCM_RIGHTS.
//
// Also the lifecycle regression suite for the server (docs/daemon.md):
// request pipelining, backpressure on a client that never reads, the frame
// length cap, many-client concurrency with dirty disconnects, shutdown under
// load, accept-loop survival of fd exhaustion, and registry reaping.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fcntl.h>

#include <chrono>
#include <filesystem>

#include "src/daemon/protocol.h"
#include "src/daemon/server.h"
#include "src/ipc/wire.h"
#include "src/libpuddles/libpuddles.h"

namespace puddles {
namespace {

namespace fs = std::filesystem;

class SocketDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("socket_daemon_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    socket_path_ = "/tmp/puddled_test_" + std::to_string(::getpid()) + "_" +
                   ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".sock";

    auto daemon = puddled::Daemon::Start({.root_dir = root_.string()});
    ASSERT_TRUE(daemon.ok());
    daemon_ = std::move(*daemon);
    RestartServer();
  }

  // Replaces the running server.
  void RestartServer() {
    server_.reset();
    auto server = puddled::Server::Start(daemon_.get(), socket_path_);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  // Spins until `predicate` holds or ~5 s pass (lifecycle counters are
  // updated by server threads, so assertions on them must tolerate a lag).
  template <typename Predicate>
  bool WaitFor(Predicate&& predicate) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!predicate()) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  void TearDown() override {
    server_.reset();
    daemon_.reset();
    fs::remove_all(root_);
  }

  fs::path root_;
  std::string socket_path_;
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<puddled::Server> server_;
};

// One framed request: 4-byte little-endian length + payload.
std::vector<uint8_t> Frame(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame(4 + payload.size());
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::memcpy(frame.data(), &length, 4);
  std::memcpy(frame.data() + 4, payload.data(), payload.size());
  return frame;
}

std::vector<uint8_t> StatPuddleRequest(const Uuid& uuid) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(puddled::Op::kStatPuddle));
  writer.PutUuid(uuid);
  return writer.Take();
}

bool WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

TEST_F(SocketDaemonTest, PingRoundTrip) {
  auto client = puddled::SocketDaemonClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST_F(SocketDaemonTest, CreatePuddleDeliversFdOverSocket) {
  auto client = puddled::SocketDaemonClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  auto created = (*client)->CreatePuddle(PuddleKind::kData, 1 << 20, Uuid::Nil(), 0600);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto [info, fd] = *created;
  EXPECT_GE(fd, 0);

  // The fd is a live capability on the puddle file.
  auto file = pmem::PmemFile::FromFd(fd);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->size(), info.file_size);
  auto mapped = file->Map();
  ASSERT_TRUE(mapped.ok());
  auto puddle = Puddle::Attach(*mapped, file->size());
  ASSERT_TRUE(puddle.ok());
  EXPECT_EQ(puddle->uuid(), info.uuid);
}

TEST_F(SocketDaemonTest, ErrorsPropagateOverWire) {
  auto client = puddled::SocketDaemonClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  auto missing = (*client)->GetPuddle(Uuid::Generate(), false);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto pool = (*client)->OpenPool("missing-pool");
  EXPECT_EQ(pool.status().code(), StatusCode::kNotFound);
}

TEST_F(SocketDaemonTest, FullRuntimeOverSocketTransport) {
  // The complete Libpuddles stack working over the socket, exactly as a real
  // deployment would: pool, transactions, reopen.
  auto client = puddled::SocketDaemonClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  auto runtime = Runtime::Create(std::move(*client));
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();

  auto pool = (*runtime)->CreatePool("over-socket");
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();

  struct Counter {
    uint64_t value;
  };
  Counter* counter = nullptr;
  ASSERT_TRUE((*pool)->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(void* raw, tx.AllocBytes(sizeof(Counter), kRawBytesTypeId));
    counter = static_cast<Counter*>(raw);
    counter->value = 0;
    return (*pool)->SetRootBytes(counter);
  }).ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*pool)->Run([&](Tx& tx) -> puddles::Status {
      RETURN_IF_ERROR(tx.LogField(counter, &Counter::value));
      counter->value++;
      return OkStatus();
    }).ok());
  }
  EXPECT_EQ(counter->value, 10u);

  // A second client sees the same data.
  auto client2 = puddled::SocketDaemonClient::Connect(socket_path_);
  ASSERT_TRUE(client2.ok());
  auto info = (*client2)->OpenPool("over-socket");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->pool_uuid, (*pool)->info().pool_uuid);
}

TEST_F(SocketDaemonTest, ConcurrentClients) {
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      auto client = puddled::SocketDaemonClient::Connect(socket_path_);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 20; ++i) {
        if (!(*client)->Ping().ok()) {
          ++failures;
        }
        auto created = (*client)->CreatePuddle(PuddleKind::kData, 1 << 20, Uuid::Nil(), 0600);
        if (!created.ok()) {
          ++failures;
        } else {
          ::close(created->second);
        }
      }
      (void)c;
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(daemon_->puddle_count(), kClients * 20u);
}

TEST_F(SocketDaemonTest, PipelinedRequestsComeBackInOrder) {
  // Pipelining contract (docs/daemon.md): any number of requests may be in
  // flight on one connection; responses arrive in request order.
  constexpr uint64_t kCount = 32;
  auto setup = puddled::SocketDaemonClient::Connect(socket_path_);
  ASSERT_TRUE(setup.ok());
  std::vector<Uuid> uuids;
  for (uint64_t i = 0; i < kCount; ++i) {
    auto created = (*setup)->CreatePuddle(PuddleKind::kData, 4096, Uuid::Nil(), 0600);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ::close(created->second);
    uuids.push_back(created->first.uuid);
  }

  auto raw = UnixSocket::Connect(socket_path_);
  ASSERT_TRUE(raw.ok());
  // All requests in one write: the server must parse frame boundaries out of
  // a single buffered read.
  std::vector<uint8_t> burst;
  for (uint64_t i = 0; i < kCount; ++i) {
    const auto frame = Frame(StatPuddleRequest(uuids[kCount - 1 - i]));  // Reverse order.
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(WriteAll(raw->fd(), burst));
  for (uint64_t i = 0; i < kCount; ++i) {
    auto response = raw->Recv();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    WireReader reader(response->bytes);
    Status status = OkStatus();
    ASSERT_TRUE(reader.GetStatus(&status).ok());
    ASSERT_TRUE(status.ok()) << status.ToString();
    puddled::PuddleInfo info;
    ASSERT_TRUE(puddled::DecodePuddleInfo(&reader, &info).ok());
    EXPECT_EQ(info.uuid, uuids[kCount - 1 - i]);  // Request order, not creation order.
  }
}

TEST_F(SocketDaemonTest, FramesSplitAcrossArbitraryWriteBoundaries) {
  // The parser must reassemble frames from any packetization: drip the same
  // pipelined burst 7 bytes at a time.
  auto setup = puddled::SocketDaemonClient::Connect(socket_path_);
  ASSERT_TRUE(setup.ok());
  auto created = (*setup)->CreatePuddle(PuddleKind::kData, 4096, Uuid::Nil(), 0600);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ::close(created->second);

  auto raw = UnixSocket::Connect(socket_path_);
  ASSERT_TRUE(raw.ok());
  std::vector<uint8_t> burst;
  constexpr int kCount = 8;
  for (int i = 0; i < kCount; ++i) {
    const auto frame = Frame(StatPuddleRequest(created->first.uuid));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  for (size_t off = 0; off < burst.size(); off += 7) {
    const size_t len = std::min<size_t>(7, burst.size() - off);
    ASSERT_TRUE(WriteAll(raw->fd(),
                         std::vector<uint8_t>(burst.begin() + off, burst.begin() + off + len)));
  }
  for (int i = 0; i < kCount; ++i) {
    auto response = raw->Recv();
    ASSERT_TRUE(response.ok());
    WireReader reader(response->bytes);
    Status status = OkStatus();
    ASSERT_TRUE(reader.GetStatus(&status).ok());
    EXPECT_TRUE(status.ok());
  }
}

TEST_F(SocketDaemonTest, ClientThatNeverReadsIsThrottled) {
  // Backpressure contract (docs/daemon.md): while a response is blocked in
  // send, the server reads no further requests from that connection, so a
  // client that pipelines without reading stalls in its own send() long
  // before the daemon has buffered megabytes for it.
  constexpr size_t kLimit = 8u << 20;
  auto raw = UnixSocket::Connect(socket_path_);
  ASSERT_TRUE(raw.ok());
  WireWriter ping;
  ping.PutU32(static_cast<uint32_t>(puddled::Op::kPing));
  const auto frame = Frame(ping.Take());
  std::vector<uint8_t> chunk;
  while (chunk.size() + frame.size() <= 64 * 1024) {
    chunk.insert(chunk.end(), frame.begin(), frame.end());
  }

  // The stream is `chunk` repeated, so resuming at written % chunk.size()
  // after a partial send keeps frame boundaries intact.
  std::atomic<size_t> written{0};
  std::thread writer([&] {
    size_t total = 0;
    while (total < kLimit) {
      const size_t off = total % chunk.size();
      const ssize_t n = ::send(raw->fd(), chunk.data() + off, chunk.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return;  // Released by shutdown(2).
      }
      total += static_cast<size_t>(n);
      written.store(total);
    }
  });

  bool stalled = false;
  size_t last = written.load();
  auto last_change = std::chrono::steady_clock::now();
  const auto deadline = last_change + std::chrono::seconds(30);
  while (written.load() < kLimit && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const size_t now = written.load();
    if (now != last) {
      last = now;
      last_change = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_change >= std::chrono::milliseconds(500)) {
      stalled = true;
      break;
    }
  }
  const size_t at_stall = written.load();
  ::shutdown(raw->fd(), SHUT_RDWR);
  writer.join();
  EXPECT_TRUE(stalled) << "the daemon accepted " << at_stall
                       << " bytes from a client that never reads";
  EXPECT_LT(at_stall, kLimit);
}

TEST_F(SocketDaemonTest, OversizedFrameHeaderClosesConnection) {
  // Framing contract (docs/daemon.md): a length header above 64 MiB is a
  // corrupt or hostile stream. The daemon drops that connection without a
  // response and keeps serving everyone else.
  auto raw = UnixSocket::Connect(socket_path_);
  ASSERT_TRUE(raw.ok());
  std::vector<uint8_t> header(4);
  const uint32_t length = (64u << 20) + 1;
  std::memcpy(header.data(), &length, 4);
  ASSERT_TRUE(WriteAll(raw->fd(), header));
  EXPECT_FALSE(raw->Recv().ok());

  auto client = puddled::SocketDaemonClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
  EXPECT_TRUE(WaitFor([this] { return server_->stats().closed == 1; }))
      << "closed=" << server_->stats().closed;
}

TEST_F(SocketDaemonTest, ManyClientsWithDirtyDisconnects) {
  // 16 concurrent clients: evens run clean request/response traffic, odds
  // pipeline a burst, abandon half their responses, and hang up mid-request
  // (a truncated frame on the wire). The dirty halves must not perturb the
  // clean halves, and every connection must be accounted closed afterwards.
  constexpr int kThreads = 16;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      if (t % 2 == 0) {
        auto client = puddled::SocketDaemonClient::Connect(socket_path_);
        if (!client.ok()) {
          ++failures;
          return;
        }
        auto created = (*client)->CreatePuddle(PuddleKind::kData, 4096, Uuid::Nil(), 0600);
        if (!created.ok()) {
          ++failures;
          return;
        }
        ::close(created->second);
        const Uuid uuid = created->first.uuid;
        for (int i = 0; i < 25; ++i) {
          if (!(*client)->Ping().ok() || !(*client)->CompleteRewrite(uuid).ok() ||
              !(*client)->StatPuddle(uuid).ok()) {
            ++failures;
          }
        }
      } else {
        auto raw = UnixSocket::Connect(socket_path_);
        if (!raw.ok()) {
          ++failures;
          return;
        }
        std::vector<uint8_t> burst;
        for (int i = 0; i < 8; ++i) {
          const auto frame = Frame(StatPuddleRequest(Uuid::Generate()));
          burst.insert(burst.end(), frame.begin(), frame.end());
        }
        if (!WriteAll(raw->fd(), burst)) {
          ++failures;
          return;
        }
        for (int i = 0; i < 3; ++i) {
          if (!raw->Recv().ok()) {
            ++failures;
          }
        }
        // Truncated trailing request: header promises 64 bytes, send 8.
        std::vector<uint8_t> partial(12, 0);
        const uint32_t lie = 64;
        std::memcpy(partial.data(), &lie, 4);
        (void)WriteAll(raw->fd(), partial);
        // Destructor closes with 5 responses undelivered and a frame cut off.
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(WaitFor([this] { return server_->stats().active == 0; }))
      << "accepted=" << server_->stats().accepted << " closed=" << server_->stats().closed;
  EXPECT_EQ(server_->stats().accepted, server_->stats().closed);
}

TEST_F(SocketDaemonTest, ShutdownUnderLoad) {
  // Stop() while clients are mid-flight: every server thread must unwind
  // without deadlock or crash, and the daemon must remain serviceable.
  std::atomic<bool> go{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([this, &go] {
      while (go.load()) {
        auto client = puddled::SocketDaemonClient::Connect(socket_path_);
        if (!client.ok()) {
          break;  // Listener gone: shutdown won the race.
        }
        for (int i = 0; i < 50 && go.load(); ++i) {
          if (!(*client)->Ping().ok()) {
            break;  // Connection torn down mid-request — expected.
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->Stop();
  go.store(false);
  for (auto& thread : threads) {
    thread.join();
  }
  const puddled::ServerStats stats = server_->stats();
  EXPECT_EQ(stats.active, 0u) << "accepted=" << stats.accepted << " closed=" << stats.closed;

  // The daemon itself survived: a fresh server on the same socket serves.
  RestartServer();
  auto client = puddled::SocketDaemonClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
}

// Regression for the accept-loop lifecycle bug: one transient Accept()
// failure (EMFILE here) used to end the loop permanently — the daemon ran
// but never admitted another client. The loop must log, back off, retry,
// and serve the queued connection once descriptors free up.
TEST_F(SocketDaemonTest, AcceptSurvivesFdExhaustion) {
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  size_t used = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    ++used;
  }
  rlimit tight = old_limit;
  tight.rlim_cur = used + 16;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  // Hog every remaining descriptor, then free exactly one: the client's
  // socket() consumes it, so the server-side accept4() hits EMFILE.
  std::vector<int> hogs;
  while (true) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) {
      break;
    }
    hogs.push_back(fd);
  }
  ASSERT_FALSE(hogs.empty());
  ::close(hogs.back());
  hogs.pop_back();

  auto client = puddled::SocketDaemonClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->stats().accept_retries == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(server_->stats().accept_retries, 0u);

  for (const int fd : hogs) {
    ::close(fd);
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);
  // The queued connection gets accepted on a retry tick and served.
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST_F(SocketDaemonTest, RegistryReapsFinishedConnections) {
  // Regression for the two connection-registry leaks: connection threads
  // used to accumulate until Stop(), and Stop() used to shutdown() every fd
  // ever accepted — including numbers long since closed and recycled. The
  // finished-set protocol reaps threads as they complete and only touches
  // live descriptors.
  uint64_t total = 0;
  for (int wave = 0; wave < 3; ++wave) {
    for (int c = 0; c < 8; ++c) {
      auto client = puddled::SocketDaemonClient::Connect(socket_path_);
      ASSERT_TRUE(client.ok());
      EXPECT_TRUE((*client)->Ping().ok());
      ++total;
    }  // All 8 disconnect here.
    EXPECT_TRUE(WaitFor([this, total] { return server_->stats().closed == total; }))
        << "wave " << wave << ": closed=" << server_->stats().closed;
    EXPECT_EQ(server_->stats().active, 0u);
  }

  // Stop with a mix of live and long-finished connections: the live one gets
  // shut down, the finished ones' recycled fd numbers are left alone.
  auto live = puddled::SocketDaemonClient::Connect(socket_path_);
  ASSERT_TRUE(live.ok());
  EXPECT_TRUE((*live)->Ping().ok());
  server_->Stop();
  const puddled::ServerStats stats = server_->stats();
  EXPECT_EQ(stats.accepted, total + 1);
  EXPECT_EQ(stats.active, 0u);
}

}  // namespace
}  // namespace puddles
