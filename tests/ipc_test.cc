#include "src/ipc/unix_socket.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <thread>

#include "src/ipc/wire.h"

namespace puddles {
namespace {

TEST(WireTest, RoundTripAllTypes) {
  WireWriter writer;
  writer.PutU8(7);
  writer.PutU16(1000);
  writer.PutU32(70000);
  writer.PutU64(1ULL << 40);
  Uuid id = Uuid::Generate();
  writer.PutUuid(id);
  writer.PutString("hello puddles");
  uint8_t blob[5] = {1, 2, 3, 4, 5};
  writer.PutBytes(blob, sizeof(blob));
  writer.PutStatus(NotFoundError("gone"));

  WireReader reader(writer.bytes());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  Uuid uuid;
  std::string str;
  std::vector<uint8_t> bytes;
  Status status;
  ASSERT_TRUE(reader.GetU8(&u8).ok());
  ASSERT_TRUE(reader.GetU16(&u16).ok());
  ASSERT_TRUE(reader.GetU32(&u32).ok());
  ASSERT_TRUE(reader.GetU64(&u64).ok());
  ASSERT_TRUE(reader.GetUuid(&uuid).ok());
  ASSERT_TRUE(reader.GetString(&str).ok());
  ASSERT_TRUE(reader.GetBytes(&bytes).ok());
  ASSERT_TRUE(reader.GetStatus(&status).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 1000);
  EXPECT_EQ(u32, 70000u);
  EXPECT_EQ(u64, 1ULL << 40);
  EXPECT_EQ(uuid, id);
  EXPECT_EQ(str, "hello puddles");
  EXPECT_EQ(bytes, std::vector<uint8_t>({1, 2, 3, 4, 5}));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(reader.done());
}

TEST(WireTest, TruncationDetected) {
  WireWriter writer;
  writer.PutU64(42);
  std::vector<uint8_t> short_buf(writer.bytes().begin(), writer.bytes().begin() + 4);
  WireReader reader(short_buf);
  uint64_t v;
  EXPECT_FALSE(reader.GetU64(&v).ok());
}

TEST(WireTest, MaliciousLengthRejected) {
  WireWriter writer;
  writer.PutU32(0xffffffff);  // Claims a 4 GiB string.
  WireReader reader(writer.bytes());
  std::string s;
  EXPECT_FALSE(reader.GetString(&s).ok());
}

TEST(UnixSocketTest, PairSendRecv) {
  auto pair = UnixSocket::Pair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = *pair;

  std::vector<uint8_t> message = {10, 20, 30};
  ASSERT_TRUE(a.Send(message).ok());
  auto received = b.Recv();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received->bytes, message);
  EXPECT_TRUE(received->fds.empty());
}

TEST(UnixSocketTest, EmptyMessage) {
  auto pair = UnixSocket::Pair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(pair->first.Send({}).ok());
  auto received = pair->second.Recv();
  ASSERT_TRUE(received.ok());
  EXPECT_TRUE(received->bytes.empty());
}

TEST(UnixSocketTest, LargeMessageFragments) {
  auto pair = UnixSocket::Pair();
  ASSERT_TRUE(pair.ok());
  std::vector<uint8_t> big(3 << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 31);
  }
  // Send from a thread: a 3 MiB message exceeds socket buffers, so send and
  // receive must interleave.
  std::thread sender([&] { ASSERT_TRUE(pair->first.Send(big).ok()); });
  auto received = pair->second.Recv();
  sender.join();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received->bytes, big);
}

TEST(UnixSocketTest, FdPassingTransfersCapability) {
  auto pair = UnixSocket::Pair();
  ASSERT_TRUE(pair.ok());

  // Create a pipe and pass its read end across the socket.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  ASSERT_TRUE(pair->first.Send({1}, {pipe_fds[0]}).ok());
  ::close(pipe_fds[0]);

  auto received = pair->second.Recv();
  ASSERT_TRUE(received.ok());
  ASSERT_EQ(received->fds.size(), 1u);

  // Prove the received fd is live: write into the pipe, read via received fd.
  ASSERT_EQ(::write(pipe_fds[1], "xy", 2), 2);
  char buf[2];
  EXPECT_EQ(::read(received->fds[0], buf, 2), 2);
  EXPECT_EQ(buf[0], 'x');
  ::close(received->fds[0]);
  ::close(pipe_fds[1]);
}

TEST(UnixSocketTest, PeerClosedReported) {
  auto pair = UnixSocket::Pair();
  ASSERT_TRUE(pair.ok());
  pair->first.Close();
  auto received = pair->second.Recv();
  EXPECT_EQ(received.status().code(), StatusCode::kUnavailable);
}

TEST(UnixSocketTest, ServerAcceptAndCredentials) {
  std::string path = "/tmp/puddles_ipc_test_" + std::to_string(::getpid()) + ".sock";
  auto server = UnixSocketServer::Bind(path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::thread client_thread([&path] {
    auto client = UnixSocket::Connect(path);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Send({42}).ok());
    auto reply = client->Recv();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->bytes, std::vector<uint8_t>{43});
  });

  auto connection = server->Accept();
  ASSERT_TRUE(connection.ok());
  auto creds = connection->Credentials();
  ASSERT_TRUE(creds.ok());
  EXPECT_EQ(creds->uid, ::geteuid());
  EXPECT_EQ(creds->gid, ::getegid());
  EXPECT_EQ(creds->pid, static_cast<uint32_t>(::getpid()));

  auto request = connection->Recv();
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->bytes, std::vector<uint8_t>{42});
  ASSERT_TRUE(connection->Send({43}).ok());
  client_thread.join();
}

TEST(UnixSocketTest, ConnectToMissingPathFails) {
  EXPECT_FALSE(UnixSocket::Connect("/tmp/no_such_puddles_socket_12345").ok());
}

}  // namespace
}  // namespace puddles
