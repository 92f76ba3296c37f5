// §5.1 "Relocatability primitives": export cost vs data size, import cost,
// pointer-rewrite cost vs pointer count, and the translate hot path itself —
// ns/pointer for the sorted interval table (binary search + MRU cache)
// against the linear reference scan, across moved-range counts.
#include "bench/bench_env.h"
#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/libpuddles/relocation.h"
#include "src/workloads/list.h"

namespace {

using bench::Timer;
namespace fs = std::filesystem;

// Rewrite-shaped address stream: mostly hits with pointer locality (runs of
// consecutive addresses inside one range, as a heap walk produces), plus a
// tail of misses (already-new / foreign pointers passing through).
std::vector<uint64_t> TranslateWorkload(const std::vector<std::pair<uint64_t, uint64_t>>& ranges,
                                        size_t count) {
  puddles::Xoshiro256 rng(0xbeef);
  std::vector<uint64_t> addrs;
  addrs.reserve(count);
  while (addrs.size() < count) {
    if (rng.NextDouble() < 0.85) {
      const auto& [lo, size] = ranges[rng.Below(ranges.size())];
      uint64_t addr = lo + rng.Below(size);
      for (int run = 0; run < 16 && addrs.size() < count; ++run) {
        addrs.push_back(addr);
        addr = lo + (addr - lo + 64) % size;
      }
    } else {
      addrs.push_back(0x7f0000000000ULL + rng.Below(1ULL << 30));  // Miss.
    }
  }
  return addrs;
}

void BenchTranslate() {
  std::printf("\n%-16s %16s %16s %10s\n", "moved ranges", "linear (ns/ptr)",
              "indexed (ns/ptr)", "speedup");
  const size_t lookups = bench::Scaled(2'000'000);
  for (size_t num_ranges : {1u, 8u, 64u, 512u}) {
    puddles::Translator translator;
    std::vector<std::pair<uint64_t, uint64_t>> ranges;
    uint64_t cursor = 0x10000000000ULL;
    for (size_t i = 0; i < num_ranges; ++i) {
      const uint64_t size = 2ULL << 20;
      (void)translator.Add(cursor, size, 0x40000000000ULL + i * (4ULL << 20));
      ranges.push_back({cursor, size});
      cursor += size + (4ULL << 20);
    }
    std::vector<uint64_t> addrs = TranslateWorkload(ranges, lookups);

    auto run = [&](auto&& translate) {
      uint64_t checksum = 0;
      Timer timer;
      for (uint64_t addr : addrs) {
        uint64_t out;
        if (translate(addr, &out)) {
          checksum ^= out;
        }
      }
      bench::DoNotOptimize(checksum);
      return timer.Nanos() / static_cast<double>(addrs.size());
    };
    const double linear_ns =
        run([&](uint64_t a, uint64_t* o) { return translator.TranslateLinear(a, o); });
    const double indexed_ns =
        run([&](uint64_t a, uint64_t* o) { return translator.Translate(a, o); });
    std::printf("%-16zu %16.2f %16.2f %9.1fx\n", num_ranges, linear_ns, indexed_ns,
                linear_ns / indexed_ns);
  }
}

}  // namespace

int main() {
  bench::PrintHeader("Relocatability primitives (paper §5.1)",
                     "export 0.3-0.5s; import ~1.5ms; rewrite 0.2ms/20 ptrs "
                     "... 0.5s/2M ptrs");
  auto dir = bench::ScratchDir("relocprim");

  // ---- Export / import vs data size ----
  std::printf("%-28s %12s %12s\n", "pool payload", "export (s)", "import (s)");
  for (uint64_t bytes : {16ULL, 16ULL << 10, 1ULL << 20, 16ULL << 20}) {
    fs::path pool_dir = dir / ("size" + std::to_string(bytes));
    bench::PuddlesEnv env(pool_dir);
    // Fill with raw byte objects, in one transaction.
    puddles::Status filled = env.pool->Run([&](puddles::Tx& tx) -> puddles::Status {
      for (uint64_t remaining = bytes; remaining > 0;) {
        const uint64_t chunk = std::min<uint64_t>(remaining, 64 << 10);
        ASSIGN_OR_RETURN(void* obj, tx.AllocBytes(chunk, puddles::kRawBytesTypeId));
        std::memset(obj, 0x7e, chunk);
        remaining -= chunk;
      }
      return puddles::OkStatus();
    });
    if (!filled.ok()) {
      std::fprintf(stderr, "fill failed: %s\n", filled.ToString().c_str());
    }
    fs::path export_dir = pool_dir / "export";
    Timer timer;
    (void)env.runtime->ExportPool("bench", export_dir.string());
    double export_s = timer.Seconds();

    timer.Reset();
    auto import = env.runtime->client().ImportPool(export_dir.string(), "copy");
    double import_s = timer.Seconds();
    if (!import.ok()) {
      std::fprintf(stderr, "import failed: %s\n", import.status().ToString().c_str());
    }
    char label[64];
    if (bytes < (1 << 20)) {
      std::snprintf(label, sizeof(label), "%llu KiB",
                    static_cast<unsigned long long>(bytes >> 10));
    } else {
      std::snprintf(label, sizeof(label), "%llu MiB",
                    static_cast<unsigned long long>(bytes >> 20));
    }
    std::printf("%-28s %12.4f %12.4f\n", bytes == 16 ? "16 B" : label, export_s, import_s);
    fs::remove_all(pool_dir);
  }

  // ---- Pointer rewrite cost vs pointer count ----
  std::printf("\n%-28s %14s %16s\n", "pointers in pool", "rewrite (ms)", "(paper)");
  const uint64_t max_ptrs = bench::Scaled(200000);
  for (uint64_t pointers : std::initializer_list<uint64_t>{20, 2000, max_ptrs}) {
    fs::path pool_dir = dir / ("ptr" + std::to_string(pointers));
    double rewrite_ms = 0;
    {
      bench::PuddlesEnv env(pool_dir);
      workloads::PersistentList<workloads::PuddlesAdapter>::RegisterTypes();
      workloads::PersistentList<workloads::PuddlesAdapter> list(env.adapter());
      (void)list.Init();
      for (uint64_t i = 0; i < pointers; ++i) {
        (void)list.InsertTail(i);
      }
      fs::path export_dir = pool_dir / "export";
      (void)env.runtime->ExportPool("bench", export_dir.string());

      // Import into the same space: conflicts force a full rewrite.
      auto before = env.runtime->stats();
      (void)env.runtime->client().ImportPool(export_dir.string(), "copy");
      Timer timer;
      auto copy = env.runtime->OpenPool("copy");  // Maps + rewrites eagerly/on demand.
      if (copy.ok()) {
        workloads::PuddlesAdapter copy_adapter(*copy);
        workloads::PersistentList<workloads::PuddlesAdapter> copy_list(copy_adapter);
        (void)copy_list.Init();
        bench::DoNotOptimize(copy_list.Sum());  // Touch everything.
      }
      rewrite_ms = timer.Seconds() * 1e3;
      auto after = env.runtime->stats();
      std::printf("%-28llu %14.3f %16s (rewrote %llu ptrs)\n",
                  static_cast<unsigned long long>(pointers), rewrite_ms,
                  pointers == 20      ? "0.2 ms"
                  : pointers == 2000  ? "1.6 ms"
                                      : "0.5 s @2M",
                  static_cast<unsigned long long>(after.pointers_rewritten -
                                                  before.pointers_rewritten));
    }
    fs::remove_all(pool_dir);
  }

  // ---- Translate hot path: linear scan vs interval table ----
  BenchTranslate();

  std::filesystem::remove_all(dir);
  return 0;
}
