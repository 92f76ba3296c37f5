// The deployed shape of the system, stood up in one process: an in-process
// Puddled behind a default-options socket server, and a Libpuddles runtime
// that reaches it only through SocketDaemonClient. Plus the small process
// helpers every workload uses.
#ifndef BENCH_E2E_STACK_H_
#define BENCH_E2E_STACK_H_

#include <malloc.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/daemon/client.h"
#include "src/daemon/daemon.h"
#include "src/daemon/server.h"
#include "src/libpuddles/libpuddles.h"

namespace e2e {

namespace fs = std::filesystem;

// Setup and oracle failures end the run at once: no metric of a run whose
// stack could not be built means anything. _Exit skips static destructors,
// which could otherwise race threads still inside the library.
[[noreturn]] inline void Fail(const std::string& what) {
  std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
  std::fflush(stderr);
  std::fflush(stdout);
  std::_Exit(1);
}

inline void Check(const puddles::Status& status, const std::string& what) {
  if (!status.ok()) {
    Fail(what + ": " + status.ToString());
  }
}

template <typename T>
T Take(puddles::Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).value();
}

class Stack {
 public:
  // Starts a daemon rooted at `dir`/puddled, its socket server, and a runtime
  // connected over the socket. Paths stay relative to the working directory
  // so the socket path fits sun_path wherever the benchmark runs.
  Stack(const fs::path& dir, bool run_recovery) {
    fs::create_directories(dir);
    puddled::Daemon::Options options;
    options.root_dir = (dir / "puddled").string();
    options.run_recovery = run_recovery;
    daemon_ = Take(puddled::Daemon::Start(options), "daemon start in " + dir.string());
    server_ = Take(puddled::Server::Start(daemon_.get(), (dir / "sock").string()),
                   "server start");
    std::shared_ptr<puddled::DaemonClient> client =
        Take(puddled::SocketDaemonClient::Connect(server_->socket_path()), "socket connect");
    runtime_ = Take(puddles::Runtime::Create(std::move(client)), "runtime create");
  }

  ~Stack() {
    runtime_.reset();
    server_->Stop();
    server_.reset();
    daemon_.reset();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  puddles::Runtime& runtime() { return *runtime_; }

  // Σ file_size over every puddle the runtime has registered: the PM this
  // process holds, data, metadata and logs alike.
  uint64_t PmBytes() {
    uint64_t bytes = 0;
    for (const puddles::Runtime::Entry* entry : runtime_->Entries()) {
      bytes += entry->info.file_size;
    }
    return bytes;
  }

 private:
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<puddled::Server> server_;
  std::unique_ptr<puddles::Runtime> runtime_;
};

// The DRAM the process holds, in MiB: the bytes its heap has handed out and
// not taken back, mmapped chunks included. Puddles are file mappings, not
// heap, so PM never counts. Resident anonymous memory would also count what
// malloc keeps cached and fragmented in its per-thread arenas; on ship-list
// that varies by 15% from run to run for the same work, while the bytes in
// use repeat to 0.2%.
inline double HeapInUseMiB() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// A fixed set of threads that run one phase at a time. The same threads
// load, warm up and run every window, so each keeps the transaction log it
// created while loading and no window pays for log creation.
class Workers {
 public:
  explicit Workers(int n) {
    for (int t = 0; t < n; ++t) {
      threads_.emplace_back([this, t] { Loop(t); });
    }
  }

  ~Workers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& thread : threads_) {
      thread.join();
    }
  }

  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  // Runs fn(t) on every thread t and returns once all have finished.
  void Run(const std::function<void(int)>& fn) {
    std::unique_lock<std::mutex> lock(mu_);
    fn_ = &fn;
    running_ = static_cast<int>(threads_.size());
    ++generation_;
    start_cv_.notify_all();
    done_cv_.wait(lock, [this] { return running_ == 0; });
    fn_ = nullptr;
  }

 private:
  void Loop(int t) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) {
          return;
        }
        seen = generation_;
        fn = fn_;
      }
      (*fn)(t);
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ == 0) {
        done_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* fn_ = nullptr;  // Guarded by mu_.
  uint64_t generation_ = 0;                       // Guarded by mu_.
  int running_ = 0;                               // Guarded by mu_.
  bool stop_ = false;                             // Guarded by mu_.
  std::vector<std::thread> threads_;              // Last: threads use the above.
};

}  // namespace e2e

#endif  // BENCH_E2E_STACK_H_
