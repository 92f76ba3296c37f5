// Per-library benchmark environments: stand up each PM library over scratch
// storage and hand back workload adapters.
#ifndef BENCH_BENCH_ENV_H_
#define BENCH_BENCH_ENV_H_

#include <filesystem>
#include <memory>

#include "bench/bench_util.h"
#include "src/workloads/adapters.h"

namespace bench {

inline constexpr size_t kBenchHeap = 512 << 20;  // Baseline single-file pools.

struct PuddlesEnv {
  explicit PuddlesEnv(const std::filesystem::path& dir, const char* pool_name = "bench") {
    auto started = puddled::Daemon::Start({.root_dir = (dir / "puddled").string()});
    if (!started.ok()) {
      std::fprintf(stderr, "daemon start failed: %s\n", started.status().ToString().c_str());
      std::abort();
    }
    daemon = std::move(*started);
    auto rt = puddles::Runtime::Create(
        std::make_shared<puddled::EmbeddedDaemonClient>(daemon.get()));
    runtime = std::move(*rt);
    auto created = runtime->CreatePool(pool_name);
    if (!created.ok()) {
      std::fprintf(stderr, "pool create failed: %s\n", created.status().ToString().c_str());
      std::abort();
    }
    pool = *created;
  }
  workloads::PuddlesAdapter adapter() { return workloads::PuddlesAdapter(pool); }

  std::unique_ptr<puddled::Daemon> daemon;
  std::unique_ptr<puddles::Runtime> runtime;
  puddles::Pool* pool = nullptr;
};

// `heap_size` must be a power of two. A Romulus pool copies and flushes its
// whole fresh heap into its twin at create, so size it for what it holds.
template <typename PoolT>
struct BaselineEnv {
  BaselineEnv(const std::filesystem::path& dir, const char* name, size_t heap_size = kBenchHeap) {
    auto created = PoolT::Create((dir / name).string(), heap_size);
    if (!created.ok()) {
      std::fprintf(stderr, "%s create failed: %s\n", name,
                   created.status().ToString().c_str());
      std::abort();
    }
    pool = std::make_unique<PoolT>(std::move(*created));
  }
  std::unique_ptr<PoolT> pool;
};

}  // namespace bench

#endif  // BENCH_BENCH_ENV_H_
