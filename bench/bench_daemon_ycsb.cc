// Socket-level YCSB against one live Puddled: N separate client PROCESSES
// (fork+exec of this binary with --client) hammer a single daemon over its
// UNIX domain socket with a read / update mix of the per-puddle requests the
// runtime sends, optionally pipelined. A read is a writable GetPuddle, the
// fetch of a member's record and file descriptor when a pool opens; an update
// is CompleteRewrite, the record write after a member's pointer rewrite. The
// matrix runs the thread-per-connection server (src/daemon/server.cc) at
// depth 1, the wire pattern of SocketDaemonClient, and at depth 16, and emits
// BENCH_daemon.json (repo root) with throughput + p50/p99 per configuration
// under "rows" and the standard provenance block — same conventions as
// BENCH_epoch.json and BENCH_alloc.json.
//
// The mix, workload "S", is the one bench/e2e's ship-list workload sends:
// counted per opcode over its traced window, each copy sends 2 GetPuddle and
// 1.875 CompleteRewrite, so 52% of these requests are reads. (Each copy also
// sends one ImportPool and one OpenPool, pool-level requests that bench/e2e
// times itself; its KV windows send none.) Keys are chosen uniformly, as in
// YCSB, over a preloaded keyspace of data puddles. Latency is measured per
// request at the client (send→matching response, so pipelined configs report
// queue+service time) into mergeable log-bucket histograms that children ship
// back over a pipe for exact cross-process percentiles.
//
// Usage: bench_daemon_ycsb [--out=BENCH_daemon.json] [--ops=N] [--keys=K]
//        (--client + flags is the internal child-process mode; the parent
//        hands children the keyspace as a file of puddle uuids)
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_provenance.h"
#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/daemon/protocol.h"
#include "src/daemon/server.h"
#include "src/ipc/wire.h"
#include "src/stats/histogram.h"
#include "src/stats/stats.h"

extern char** environ;

namespace {

using puddles::stats::BucketScale;
using puddles::stats::Histogram;

constexpr uint64_t kResultMagic = 0x7075646479637362ULL;  // "puddycsb"

// Fixed-size binary result a child ships back over its pipe: op totals, wall
// time, and the full latency histogram state for exact bucket-wise merging.
struct ChildResult {
  uint64_t magic = kResultMagic;
  uint64_t ops_done = 0;
  uint64_t failures = 0;
  uint64_t wall_ns = 0;
  uint64_t hist_sum = 0;
  uint64_t hist_max = 0;
  uint64_t buckets[BucketScale::kNumBuckets] = {};
};

bool ReadFull(int fd, void* buf, size_t len) {
  auto* p = static_cast<uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool WriteFull(int fd, const void* buf, size_t len) {
  const auto* p = static_cast<const uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

// The keyspace: one preloaded data puddle per key, named by its uuid.
std::vector<puddles::Uuid> ReadKeyspace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<puddles::Uuid> keys;
  puddles::Uuid key;
  while (in.read(reinterpret_cast<char*>(&key), sizeof(key))) {
    keys.push_back(key);
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Child-process mode: one connection, a read/update stream, results by pipe.
// ---------------------------------------------------------------------------

struct ClientConfig {
  std::string socket_path;
  std::string keyspace_path;
  uint64_t ops = 0;
  uint64_t depth = 1;      // Pipelining window (1 = synchronous RTTs).
  uint64_t read_pct = 52;  // % of ops that are reads.
  uint64_t seed = 1;
  int ready_fd = -1;
  int go_fd = -1;
  int result_fd = -1;
};

int RunClient(const ClientConfig& config) {
  const std::vector<puddles::Uuid> keys = ReadKeyspace(config.keyspace_path);
  if (keys.empty()) {
    std::fprintf(stderr, "client: empty keyspace %s\n", config.keyspace_path.c_str());
    return 1;
  }
  auto socket = puddles::UnixSocket::Connect(config.socket_path);
  if (!socket.ok()) {
    std::fprintf(stderr, "client: connect failed: %s\n", socket.status().ToString().c_str());
    return 1;
  }
  puddles::Xoshiro256 rng(config.seed);
  ChildResult result;
  Histogram latency;
  std::deque<uint64_t> send_ticks;  // In-order responses: FIFO matches.
  uint64_t sent = 0, received = 0;

  // Requests for the current window are framed into one buffer and written
  // with one syscall — what a real pipelining client library would do (and
  // the whole point of depth > 1; at depth 1 the batch is a single frame,
  // i.e. the synchronous wire pattern).
  std::vector<uint8_t> batch;
  auto stage_one = [&] {
    puddles::WireWriter writer;
    const puddles::Uuid& key = keys[rng.Below(keys.size())];
    if (rng.Below(100) < config.read_pct) {
      writer.PutU32(static_cast<uint32_t>(puddled::Op::kGetPuddle));
      writer.PutUuid(key);
      writer.PutU8(1);  // Writable, as a writable pool's open asks.
    } else {
      writer.PutU32(static_cast<uint32_t>(puddled::Op::kCompleteRewrite));
      writer.PutUuid(key);
    }
    const uint32_t length = static_cast<uint32_t>(writer.bytes().size());
    const auto* header = reinterpret_cast<const uint8_t*>(&length);
    batch.insert(batch.end(), header, header + 4);
    batch.insert(batch.end(), writer.bytes().begin(), writer.bytes().end());
    send_ticks.push_back(puddles::stats::NowTicks());
    ++sent;
  };
  auto flush_batch = [&]() -> bool {
    if (batch.empty()) {
      return true;
    }
    if (!WriteFull(socket->fd(), batch.data(), batch.size())) {
      return false;
    }
    batch.clear();
    return true;
  };

  // Barrier: tell the parent we are connected, then block until every client
  // is, so the timed window measures steady concurrent load.
  uint8_t byte = 'R';
  if (!WriteFull(config.ready_fd, &byte, 1) || !ReadFull(config.go_fd, &byte, 1)) {
    std::fprintf(stderr, "client: start barrier failed\n");
    return 1;
  }

  bench::Timer timer;
  while (sent < config.ops && sent < config.depth) {
    stage_one();
  }
  if (!flush_batch()) {
    ++result.failures;
  }
  std::vector<uint8_t> inbuf;
  size_t inbuf_off = 0;
  uint8_t chunk[64 * 1024];
  while (received < sent && result.failures == 0) {
    const ssize_t n = ::read(socket->fd(), chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      ++result.failures;
      break;
    }
    inbuf.insert(inbuf.end(), chunk, chunk + n);
    uint64_t completed = 0;
    while (inbuf.size() - inbuf_off >= 4) {
      uint32_t length = 0;
      std::memcpy(&length, inbuf.data() + inbuf_off, 4);
      if (inbuf.size() - inbuf_off - 4 < length) {
        break;
      }
      latency.Record(
          puddles::stats::TicksToNanos(puddles::stats::NowTicks() - send_ticks.front()));
      send_ticks.pop_front();
      puddles::WireReader reader(inbuf.data() + inbuf_off + 4, length);
      puddles::Status status = puddles::OkStatus();
      if (!reader.GetStatus(&status).ok() || !status.ok()) {
        ++result.failures;
      } else {
        ++result.ops_done;
      }
      inbuf_off += 4 + static_cast<size_t>(length);
      ++received;
      ++completed;
    }
    if (inbuf_off > 0) {
      inbuf.erase(inbuf.begin(), inbuf.begin() + static_cast<ptrdiff_t>(inbuf_off));
      inbuf_off = 0;
    }
    // Refill the window by as many requests as just completed.
    while (completed-- > 0 && sent < config.ops) {
      stage_one();
    }
    if (!flush_batch()) {
      ++result.failures;
    }
  }
  result.wall_ns = static_cast<uint64_t>(timer.Nanos());
  result.hist_sum = latency.sum();
  result.hist_max = latency.max();
  for (size_t i = 0; i < BucketScale::kNumBuckets; ++i) {
    result.buckets[i] = latency.bucket(i);
  }
  if (!WriteFull(config.result_fd, &result, sizeof(result))) {
    return 1;
  }
  return result.failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Parent mode: spawn the matrix, merge, gate, emit JSON.
// ---------------------------------------------------------------------------

struct Row {
  std::string workload;
  uint64_t clients = 0;
  uint64_t depth = 0;
  uint64_t read_pct = 0;
  uint64_t total_ops = 0;
  double wall_s = 0;
  double ops_per_sec = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
};

struct RunSpec {
  const char* workload;
  uint64_t clients;
  uint64_t depth;
  uint64_t read_pct;
};

std::string Flag(const char* name, uint64_t value) {
  return std::string(name) + "=" + std::to_string(value);
}

Row RunOne(puddled::Daemon* daemon, const std::string& socket_path, const std::string& exe,
           const RunSpec& spec, uint64_t ops_per_client, const std::string& keyspace_path) {
  auto server = puddled::Server::Start(daemon, socket_path);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", server.status().ToString().c_str());
    std::abort();
  }

  int ready_pipe[2], go_pipe[2];
  if (::pipe(ready_pipe) != 0 || ::pipe(go_pipe) != 0) {
    std::perror("pipe");
    std::abort();
  }
  std::vector<pid_t> pids;
  std::vector<int> result_fds;
  for (uint64_t c = 0; c < spec.clients; ++c) {
    int result_pipe[2];
    if (::pipe(result_pipe) != 0) {
      std::perror("pipe");
      std::abort();
    }
    std::vector<std::string> args = {
        exe,
        "--client",
        "--socket=" + socket_path,
        "--keyspace=" + keyspace_path,
        Flag("--ops", ops_per_client),
        Flag("--depth", spec.depth),
        Flag("--read-pct", spec.read_pct),
        Flag("--seed", 0x5eed0000 + c),
        Flag("--ready-fd", ready_pipe[1]),
        Flag("--go-fd", go_pipe[0]),
        Flag("--result-fd", result_pipe[1]),
    };
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(), environ);
    if (rc != 0) {
      std::fprintf(stderr, "posix_spawn failed: %s\n", std::strerror(rc));
      std::abort();
    }
    ::close(result_pipe[1]);  // Child's copy stays open in the child.
    pids.push_back(pid);
    result_fds.push_back(result_pipe[0]);
  }

  // Start barrier: one ready byte per connected child, then one go byte each.
  for (uint64_t c = 0; c < spec.clients; ++c) {
    uint8_t byte;
    if (!ReadFull(ready_pipe[0], &byte, 1)) {
      std::fprintf(stderr, "a client died before the barrier\n");
      std::abort();
    }
  }
  bench::Timer wall;
  std::vector<uint8_t> go(spec.clients, 'G');
  if (!WriteFull(go_pipe[1], go.data(), go.size())) {
    std::perror("go write");
    std::abort();
  }

  Histogram latency;
  uint64_t total_ops = 0, failures = 0, slowest_ns = 0;
  for (int fd : result_fds) {
    ChildResult result;
    if (!ReadFull(fd, &result, sizeof(result)) || result.magic != kResultMagic) {
      std::fprintf(stderr, "a client died mid-run\n");
      std::abort();
    }
    ::close(fd);
    total_ops += result.ops_done;
    failures += result.failures;
    slowest_ns = std::max(slowest_ns, result.wall_ns);
    for (size_t i = 0; i < BucketScale::kNumBuckets; ++i) {
      if (result.buckets[i] != 0) {
        latency.AddBucket(i, result.buckets[i]);
      }
    }
    latency.AddSumMax(result.hist_sum, result.hist_max);
  }
  const double wall_s = wall.Seconds();
  for (pid_t pid : pids) {
    int status = 0;
    (void)::waitpid(pid, &status, 0);
  }
  ::close(ready_pipe[0]);
  ::close(ready_pipe[1]);
  ::close(go_pipe[0]);
  ::close(go_pipe[1]);
  (*server)->Stop();
  if (failures != 0 || total_ops != spec.clients * ops_per_client) {
    std::fprintf(stderr, "run failed: %" PRIu64 " failures, %" PRIu64 "/%" PRIu64 " ops\n",
                 failures, total_ops, spec.clients * ops_per_client);
    std::abort();
  }

  Row row;
  row.workload = spec.workload;
  row.clients = spec.clients;
  row.depth = spec.depth;
  row.read_pct = spec.read_pct;
  row.total_ops = total_ops;
  // Throughput over the slowest client's window (all clients start together),
  // which excludes the parent's result-collection time.
  row.wall_s = static_cast<double>(slowest_ns) / 1e9;
  (void)wall_s;
  row.ops_per_sec = static_cast<double>(total_ops) / row.wall_s;
  row.p50_ns = latency.p50();
  row.p99_ns = latency.p99();
  std::printf("  %-3s %3" PRIu64 " clients  depth %2" PRIu64 "   %10.0f ops/s   p50 %8" PRIu64
              " ns   p99 %8" PRIu64 " ns\n",
              row.workload.c_str(), row.clients, row.depth, row.ops_per_sec, row.p50_ns,
              row.p99_ns);
  return row;
}

bool WriteJson(const std::vector<Row>& rows, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"daemon socket YCSB (multi-process clients)\",\n");
  std::fprintf(out, "  \"generated_by\": \"bench/bench_daemon_ycsb.cc\",\n");
  std::fprintf(out, "  \"protocol\": \"docs/daemon.md (one thread per connection)\",\n");
  std::fputs(bench::ProvenanceJsonLine().c_str(), out);
  std::fprintf(out, "  \"scale\": %.2f,\n", bench::ScaleFactor());
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"clients\": %" PRIu64
                 ", \"depth\": %" PRIu64 ", \"read_pct\": %" PRIu64 ", \"ops\": %" PRIu64
                 ", \"wall_s\": %.4f, \"ops_per_sec\": %.0f, \"p50_ns\": %" PRIu64
                 ", \"p99_ns\": %" PRIu64 "}%s\n",
                 r.workload.c_str(), r.clients, r.depth, r.read_pct,
                 r.total_ops, r.wall_s, r.ops_per_sec, r.p50_ns, r.p99_ns,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  return bench::CloseJson(out, path);
}

uint64_t FlagValue(const std::string& arg) {
  return std::strtoull(arg.c_str() + arg.find('=') + 1, nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  // Child mode first: spawned copies of this binary re-enter here.
  if (argc > 1 && std::string(argv[1]) == "--client") {
    ClientConfig config;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--socket=", 0) == 0) {
        config.socket_path = arg.substr(9);
      } else if (arg.rfind("--keyspace=", 0) == 0) {
        config.keyspace_path = arg.substr(11);
      } else if (arg.rfind("--ops=", 0) == 0) {
        config.ops = FlagValue(arg);
      } else if (arg.rfind("--depth=", 0) == 0) {
        config.depth = FlagValue(arg);
      } else if (arg.rfind("--read-pct=", 0) == 0) {
        config.read_pct = FlagValue(arg);
      } else if (arg.rfind("--seed=", 0) == 0) {
        config.seed = FlagValue(arg);
      } else if (arg.rfind("--ready-fd=", 0) == 0) {
        config.ready_fd = static_cast<int>(FlagValue(arg));
      } else if (arg.rfind("--go-fd=", 0) == 0) {
        config.go_fd = static_cast<int>(FlagValue(arg));
      } else if (arg.rfind("--result-fd=", 0) == 0) {
        config.result_fd = static_cast<int>(FlagValue(arg));
      }
    }
    return RunClient(config);
  }

  std::string out_path = "BENCH_daemon.json";
  uint64_t ops_per_client = bench::Scaled(1000);
  uint64_t keys = 1024;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--ops=", 0) == 0) {
      ops_per_client = FlagValue(arg);
    } else if (arg.rfind("--keys=", 0) == 0) {
      keys = FlagValue(arg);
    } else {
      std::fprintf(stderr, "usage: bench_daemon_ycsb [--out=FILE] [--ops=N] [--keys=K]\n");
      return 2;
    }
  }

  bench::PrintHeader("Daemon socket YCSB (thread-per-connection server)",
                     "multi-client daemon; every configuration completes with sane latencies");
  auto dir = bench::ScratchDir("daemonycsb");
  puddled::Daemon::Options daemon_options;
  daemon_options.root_dir = (dir / "root").string();
  auto daemon = puddled::Daemon::Start(daemon_options);
  if (!daemon.ok()) {
    std::fprintf(stderr, "daemon start failed: %s\n", daemon.status().ToString().c_str());
    return 1;
  }
  const std::string socket_path = (dir / "puddled.sock").string();
  const std::string exe = "/proc/self/exe";

  // Preload the keyspace, one smallest data puddle per key, so every read
  // finds a puddle and every update a record. (A read's descriptor reaches
  // the client as ancillary data, which its plain read() discards, closing
  // it.)
  const std::string keyspace_path = (dir / "keyspace.bin").string();
  {
    std::ofstream keyspace(keyspace_path, std::ios::binary);
    for (uint64_t k = 0; k < keys; ++k) {
      auto created = (*daemon)->CreatePuddle(puddles::PuddleKind::kData, puddles::kPageSize,
                                             puddled::Credentials::Self());
      if (!created.ok()) {
        std::fprintf(stderr, "keyspace preload failed: %s\n",
                     created.status().ToString().c_str());
        return 1;
      }
      ::close(created->second);
      keyspace.write(reinterpret_cast<const char*>(&created->first.uuid),
                     sizeof(puddles::Uuid));
    }
  }

  const std::vector<RunSpec> matrix = {
      // Depth 1: SocketDaemonClient holds one request in flight per
      // connection, so this is the wire pattern of every real client.
      {"S", 1, 1, 52},
      {"S", 16, 1, 52},
      {"S", 64, 1, 52},
      // Depth 16: pipelined raw clients (the server answers in order).
      {"S", 16, 16, 52},
      {"S", 64, 16, 52},
  };
  std::vector<Row> rows;
  rows.reserve(matrix.size());
  for (const RunSpec& spec : matrix) {
    rows.push_back(RunOne(daemon->get(), socket_path, exe, spec, ops_per_client, keyspace_path));
  }

  const bool wrote = WriteJson(rows, out_path);
  daemon->reset();
  std::filesystem::remove_all(dir);
  return wrote ? 0 : 1;
}
