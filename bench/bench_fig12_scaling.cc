// Figure 12: multithreaded scaling — an embarrassingly parallel workload
// computing Euler's identity over a float array, 1/n-th per thread, each
// chunk updated in its own transaction. The paper shows linear scaling to 20
// physical cores; the shape here is bounded by this machine's core count
// (reported), demonstrating that Puddles' thread-local transactions add no
// cross-thread serialization.
//
// Extended for epoch-based group commit (docs/epoch.md): every thread count
// runs twice — immediate durability (one fence per commit stage) and epoch
// durability (fences delegated to the advancer, one per epoch close) — and
// reports ns/op plus fences/op from the pmem persist counters. The epoch
// column is the headline number: at 8+ threads fences/op must drop well
// under 1, since one epoch fence retires every thread's batched appends.
// With --out=FILE the table is also written as BENCH_epoch.json rows for the
// perf-trajectory CI gate.
#include <cmath>
#include <complex>
#include <thread>

#include "bench/bench_env.h"
#include "bench/bench_provenance.h"
#include "bench/bench_util.h"
#include "src/pmem/flush.h"

namespace {

using bench::Timer;

// The 1M-double array is stored as fixed-size segments (a single allocation
// cannot exceed one puddle's heap); each thread owns a contiguous slice of
// segments and processes it chunk-by-chunk in its own transactions.
constexpr uint64_t kSegmentDoubles = 64 * 1024;  // 512 KiB per segment.
constexpr uint64_t kChunk = 256;

struct ModeResult {
  double ns_per_op = 0;
  double fences_per_op = 0;
};

ModeResult RunThreads(bench::PuddlesEnv& env, std::vector<double*>& segments, int threads,
                      bool epoch) {
  puddles::Pool& pool = *env.pool;
  const uint64_t total_ops =
      static_cast<uint64_t>(segments.size()) * (kSegmentDoubles / kChunk);
  const pmem::PersistStats before = pmem::ReadPersistStats();
  Timer timer;
  std::vector<std::thread> workers;
  const size_t per_thread = segments.size() / static_cast<size_t>(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&pool, &segments, per_thread, t, threads] {
      const size_t begin = static_cast<size_t>(t) * per_thread;
      const size_t end = (t == threads - 1) ? segments.size() : begin + per_thread;
      for (size_t s = begin; s < end; ++s) {
        double* array = segments[s];
        for (uint64_t i = 0; i < kSegmentDoubles; i += kChunk) {
          (void)pool.Run([&](puddles::Tx& tx) -> puddles::Status {
            RETURN_IF_ERROR(tx.LogRange(&array[i], kChunk * sizeof(double)));
            for (uint64_t j = i; j < i + kChunk; ++j) {
              // Euler's identity: e^{i*pi} + 1 (≈ 0), folded into the cell.
              std::complex<double> e = std::exp(std::complex<double>(0.0, M_PI));
              array[j] += e.real() + 1.0;
            }
            return puddles::OkStatus();
          });
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  if (epoch) {
    // The run is only durable once the last epoch closes; fold that fence
    // into the measured interval so epoch mode pays its full persistence bill.
    pool.Sync();
  }
  const double seconds = timer.Seconds();
  const pmem::PersistStats after = pmem::ReadPersistStats();
  ModeResult result;
  result.ns_per_op = seconds * 1e9 / static_cast<double>(total_ops);
  result.fences_per_op = static_cast<double>(after.fences - before.fences) /
                         static_cast<double>(total_ops);
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
      std::fprintf(stderr, "usage: bench_fig12_scaling [--out=FILE]\n");
      return 2;
    }
  }

  const uint64_t elements = bench::Scaled(1000000);  // Paper: 1M floats.
  bench::PrintHeader("Figure 12: multithreaded scaling (Euler identity over 1M doubles)",
                     "paper Fig. 12 (linear to 20 physical cores)");
  auto dir = bench::ScratchDir("fig12");
  bench::PuddlesEnv env(dir);

  std::vector<double*> segments;
  puddles::Status allocated = env.pool->Run([&](puddles::Tx& tx) -> puddles::Status {
    for (uint64_t n = 0; n < elements; n += kSegmentDoubles) {
      ASSIGN_OR_RETURN(double* segment, tx.Alloc<double>(kSegmentDoubles));
      for (uint64_t i = 0; i < kSegmentDoubles; ++i) {
        segment[i] = 0.0;
      }
      segments.push_back(segment);
    }
    return puddles::OkStatus();
  });
  if (!allocated.ok()) {
    std::fprintf(stderr, "alloc failed: %s\n", allocated.ToString().c_str());
    return 1;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware threads on this machine: %u (paper testbed: 20 physical / 40 HT)\n\n",
              hw);
  std::printf("%8s %16s %16s %14s %14s %10s\n", "threads", "immediate ns/op", "epoch ns/op",
              "imm fences/op", "ep fences/op", "speedup");

  struct Row {
    unsigned threads;
    ModeResult immediate;
    ModeResult epoch;
  };
  std::vector<Row> rows;
  for (unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
    Row row;
    row.threads = threads;
    row.immediate = RunThreads(env, segments, static_cast<int>(threads), /*epoch=*/false);
    if (auto s = env.pool->SetDurability(puddles::Durability::kEpoch); !s.ok()) {
      std::fprintf(stderr, "SetDurability(kEpoch) failed: %s\n", s.ToString().c_str());
      return 1;
    }
    row.epoch = RunThreads(env, segments, static_cast<int>(threads), /*epoch=*/true);
    (void)env.pool->SetDurability(puddles::Durability::kImmediate);
    rows.push_back(row);
    std::printf("%8u %16.1f %16.1f %14.3f %14.3f %9.2fx\n", threads, row.immediate.ns_per_op,
                row.epoch.ns_per_op, row.immediate.fences_per_op, row.epoch.fences_per_op,
                row.immediate.ns_per_op / row.epoch.ns_per_op);
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
    std::fprintf(out, "  \"benchmark\": \"fig12_scaling_epoch\",\n");
    std::fprintf(out, "  \"rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(out,
                   "    {\"threads\": %u, \"immediate_ns_per_op\": %.1f, "
                   "\"epoch_ns_per_op\": %.1f, \"immediate_fences_per_op\": %.4f, "
                   "\"epoch_fences_per_op\": %.4f}%s\n",
                   r.threads, r.immediate.ns_per_op, r.epoch.ns_per_op,
                   r.immediate.fences_per_op, r.epoch.fences_per_op,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    status = bench::CloseJson(out, out_path) ? 0 : 1;
  }
  std::filesystem::remove_all(dir);
  return status;
}
