// Multi-thread malloc/free scaling of the per-thread slab arenas
// (docs/alloc.md, DESIGN.md §14).
//
// Every thread runs transactions that allocate a batch of small objects and
// free the oldest batch from a thread-local ring: the steady-state
// malloc/free churn of an allocation-heavy workload. Allocs pop a lock-free
// thread-local free list and frees push it back, no lock and no undo log on
// the path; slab refills from the shared heap are the only synchronized
// step, amortized over a slab's worth of slots. Reported per thread count:
// ns per malloc/free pair and persistence fences per pair (pmem persist
// counters). The CI gate over BENCH_alloc.json rows (written with
// --out=FILE) holds fences per pair under 0.1 at 8 threads: the commit's own
// fences amortized over the batch, plus the rare refill.
#include <thread>
#include <vector>

#include "bench/bench_env.h"
#include "bench/bench_provenance.h"
#include "bench/bench_util.h"
#include "src/pmem/flush.h"

namespace {

using bench::Timer;

// 48 bytes + 16-byte header = the 64-byte slab class.
struct Node {
  uint64_t value;
  uint64_t pad[5];
};

constexpr uint64_t kBatch = 32;      // Malloc/free pairs per transaction.
constexpr uint64_t kRingBatches = 4; // Live batches per thread (the ring).

struct Result {
  double ns_per_pair = 0;
  double fences_per_pair = 0;
};

// Fixed total work: the transaction count divides across threads so every
// row of the table does the same number of malloc/free pairs.
Result RunThreads(puddles::Pool& pool, int threads, uint64_t total_txs) {
  const uint64_t txs_per_thread = total_txs / static_cast<uint64_t>(threads);
  const uint64_t total_pairs = txs_per_thread * static_cast<uint64_t>(threads) * kBatch;
  const pmem::PersistStats before = pmem::ReadPersistStats();
  Timer timer;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&pool, txs_per_thread, t] {
      std::vector<Node*> ring;
      ring.reserve(kBatch * kRingBatches);
      size_t oldest = 0;
      for (uint64_t round = 0; round < txs_per_thread; ++round) {
        (void)pool.Run([&](puddles::Tx& tx) -> puddles::Status {
          for (uint64_t i = 0; i < kBatch; ++i) {
            ASSIGN_OR_RETURN(Node * node, tx.Alloc<Node>());
            node->value = static_cast<uint64_t>(t) << 32 | (round * kBatch + i);
            ring.push_back(node);
          }
          if (ring.size() - oldest > kBatch * kRingBatches) {
            for (uint64_t i = 0; i < kBatch; ++i) {
              RETURN_IF_ERROR(tx.Free(ring[oldest + i]));
            }
            oldest += kBatch;
          }
          return puddles::OkStatus();
        });
        if (oldest > 0 && oldest == ring.size()) {
          ring.clear();
          oldest = 0;
        }
      }
      // Drain the ring so each row leaves the heap as it found it.
      (void)pool.Run([&](puddles::Tx& tx) -> puddles::Status {
        for (size_t i = oldest; i < ring.size(); ++i) {
          RETURN_IF_ERROR(tx.Free(ring[i]));
        }
        return puddles::OkStatus();
      });
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  const double seconds = timer.Seconds();
  const pmem::PersistStats after = pmem::ReadPersistStats();
  Result result;
  result.ns_per_pair = seconds * 1e9 / static_cast<double>(total_pairs);
  result.fences_per_pair = static_cast<double>(after.fences - before.fences) /
                           static_cast<double>(total_pairs);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;  // Empty = table only, no JSON artifact.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::fprintf(stderr, "usage: bench_alloc_scaling [--out=FILE]\n");
      return 2;
    }
  }

  bench::PrintHeader("Allocator scaling: per-thread slab arenas",
                     "malloc/free pairs per second, 1-16 threads");
  auto dir = bench::ScratchDir("alloc_scaling");
  bench::PuddlesEnv env(dir);
  puddles::Pool& pool = *env.pool;
  const uint64_t total_txs = bench::Scaled(4000);

  std::printf("%8s %12s %14s\n", "threads", "ns/pair", "fences/pair");
  struct Row {
    unsigned threads;
    Result result;
  };
  std::vector<Row> rows;
  for (unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
    rows.push_back({threads, RunThreads(pool, static_cast<int>(threads), total_txs)});
    std::printf("%8u %12.1f %14.3f\n", threads, rows.back().result.ns_per_pair,
                rows.back().result.fences_per_pair);
  }

  int status = 0;
  if (!out_path.empty()) {
    FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n");
    std::fputs(bench::ProvenanceJsonLine().c_str(), out);
    std::fprintf(out, "  \"benchmark\": \"alloc_scaling_arena\",\n");
    std::fprintf(out, "  \"rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(out,
                   "    {\"threads\": %u, \"arena_ns_per_pair\": %.1f, "
                   "\"arena_fences_per_pair\": %.4f}%s\n",
                   r.threads, r.result.ns_per_pair, r.result.fences_per_pair,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    status = bench::CloseJson(out, out_path) ? 0 : 1;
  }
  std::filesystem::remove_all(dir);
  return status;
}
