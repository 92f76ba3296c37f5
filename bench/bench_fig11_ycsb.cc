// Figure 11: KV store under YCSB A–G across five libraries (PMDK-like,
// Libpuddles, go-pmem-like, Atlas-like, Romulus). The paper loads 1M keys and
// runs 1M operations per workload; defaults here are scaled (see
// PUDDLES_BENCH_SCALE in README.md). Expected shape: Puddles at least as fast
// as PMDK (up to 1.34×), Atlas slowest on write-heavy mixes, Romulus fastest
// on write-heavy.
#include "bench/bench_env.h"
#include "bench/bench_util.h"
#include "src/workloads/art.h"
#include "src/workloads/btree.h"
#include "src/workloads/kvstore.h"
#include "src/workloads/ycsb.h"

namespace {

using bench::Timer;
using workloads::YcsbOp;
using workloads::YcsbStream;
using workloads::YcsbWorkload;

constexpr YcsbWorkload kWorkloads[] = {YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC,
                                       YcsbWorkload::kD, YcsbWorkload::kE, YcsbWorkload::kF,
                                       YcsbWorkload::kG};

template <typename Adapter>
std::vector<double> RunYcsb(Adapter adapter, uint64_t records, uint64_t ops) {
  workloads::KvStore<Adapter>::RegisterTypes();
  workloads::KvStore<Adapter> kv(adapter);
  if (!kv.Init(1 << 16).ok()) {
    std::abort();
  }
  // Load phase.
  char value[workloads::kKvValueSize] = {};
  for (uint64_t i = 0; i < records; ++i) {
    std::snprintf(value, sizeof(value), "v%llu", static_cast<unsigned long long>(i));
    if (!kv.Put(YcsbStream::KeyFor(i), value).ok()) {
      std::abort();
    }
  }

  std::vector<double> seconds;
  char out[workloads::kKvValueSize];
  for (YcsbWorkload workload : kWorkloads) {
    YcsbStream stream(workload, records, 0xC0FFEE + static_cast<uint64_t>(workload));
    uint64_t sink = 0;
    Timer timer;
    for (uint64_t i = 0; i < ops; ++i) {
      workloads::YcsbRequest request = stream.Next();
      const std::string key = YcsbStream::KeyFor(request.key_index);
      switch (request.op) {
        case YcsbOp::kRead:
          sink += kv.Get(key, out) ? 1 : 0;
          break;
        case YcsbOp::kUpdate:
        case YcsbOp::kInsert:
          std::snprintf(value, sizeof(value), "u%llu",
                        static_cast<unsigned long long>(i));
          (void)kv.Put(key, value);
          break;
        case YcsbOp::kScan:
          sink += kv.Scan(key, request.scan_length);
          break;
        case YcsbOp::kReadModifyWrite:
          if (kv.Get(key, out)) {
            out[0] ^= 1;
            (void)kv.Put(key, out);
          }
          break;
      }
    }
    bench::DoNotOptimize(sink);
    seconds.push_back(timer.Seconds());
  }
  return seconds;
}

// YCSB-E (95% short ordered range scan / 5% insert) over the two ordered
// indexes on Libpuddles: the adaptive radix tree vs the order-8 B+-tree.
// Scans are read-only in both (no ordering points); the interesting delta is
// pointer-chasing depth and node fan-out on the scan path.
template <typename Index>
std::pair<double, double> RunOrderedE(Index& index, uint64_t records, uint64_t ops) {
  Timer load_timer;
  for (uint64_t i = 0; i < records; ++i) {
    if (!index.Insert(i, i * 2 + 1).ok()) {
      std::abort();
    }
  }
  const double load_seconds = load_timer.Seconds();

  YcsbStream stream(YcsbWorkload::kE, records, 0xC0FFEE + 'E');
  std::vector<std::pair<uint64_t, uint64_t>> buffer;
  buffer.reserve(128);
  uint64_t sink = 0;
  Timer timer;
  for (uint64_t i = 0; i < ops; ++i) {
    workloads::YcsbRequest request = stream.Next();
    if (request.op == YcsbOp::kScan) {
      buffer.clear();
      sink += index.Scan(request.key_index, request.scan_length, &buffer);
    } else {
      (void)index.Insert(request.key_index, i);
    }
  }
  bench::DoNotOptimize(sink);
  return {load_seconds, timer.Seconds()};
}

}  // namespace

int main() {
  const uint64_t records = bench::Scaled(100000);
  const uint64_t ops = bench::Scaled(100000);
  bench::PrintHeader("Figure 11: KV store, YCSB A-G, five PM libraries",
                     "paper Fig. 11, 1M keys load + 1M ops per workload");

  auto dir = bench::ScratchDir("fig11");
  std::vector<std::pair<const char*, std::vector<double>>> results;
  {
    bench::BaselineEnv<fatptr::FatPool> env(dir, "pmdk");
    results.emplace_back("PMDK", RunYcsb(workloads::FatPtrAdapter(env.pool.get()), records, ops));
  }
  {
    bench::PuddlesEnv env(dir);
    results.emplace_back("Libpuddles", RunYcsb(env.adapter(), records, ops));
  }
  {
    bench::BaselineEnv<gopmem::GoPmemPool> env(dir, "gopmem");
    results.emplace_back("go-pmem",
                         RunYcsb(workloads::GoPmemAdapter(env.pool.get()), records, ops));
  }
  {
    bench::BaselineEnv<atlaspm::AtlasPool> env(dir, "atlas");
    results.emplace_back("Atlas",
                         RunYcsb(workloads::AtlasAdapter(env.pool.get()), records, ops));
  }
  {
    bench::BaselineEnv<romulus::RomulusPool> env(dir, "romulus");
    results.emplace_back("Romulus",
                         RunYcsb(workloads::RomulusAdapter(env.pool.get()), records, ops));
  }

  std::printf("execution time in seconds (lower is better)\n");
  std::printf("%-12s", "library");
  for (YcsbWorkload workload : kWorkloads) {
    std::printf("%9c", static_cast<char>(workload));
  }
  std::printf("\n");
  for (const auto& [name, seconds] : results) {
    std::printf("%-12s", name);
    for (double s : seconds) {
      std::printf("%9.3f", s);
    }
    std::printf("\n");
  }
  // Headline ratio: Puddles vs PMDK per workload.
  std::printf("\nPMDK / Puddles ratio per workload (paper: 1.0x-1.34x): ");
  for (size_t w = 0; w < std::size(kWorkloads); ++w) {
    std::printf("%c=%.2fx ", static_cast<char>(kWorkloads[w]),
                results[0].second[w] / results[1].second[w]);
  }
  std::printf("\nrecords=%llu ops=%llu per workload\n",
              static_cast<unsigned long long>(records), static_cast<unsigned long long>(ops));

  // ---- YCSB-E: ordered indexes (ART vs B+-tree) on Libpuddles ----
  std::pair<double, double> art_e, btree_e;
  {
    bench::PuddlesEnv env(dir, "art");
    workloads::ArtIndex<workloads::PuddlesAdapter>::RegisterTypes();
    workloads::ArtIndex<workloads::PuddlesAdapter> art(env.adapter());
    if (!art.Init().ok()) {
      std::abort();
    }
    art_e = RunOrderedE(art, records, ops);
  }
  {
    bench::PuddlesEnv env(dir, "btree");
    workloads::PersistentBTree<workloads::PuddlesAdapter>::RegisterTypes();
    workloads::PersistentBTree<workloads::PuddlesAdapter> btree(env.adapter());
    if (!btree.Init().ok()) {
      std::abort();
    }
    btree_e = RunOrderedE(btree, records, ops);
  }
  std::printf("\nYCSB-E, ordered indexes on Libpuddles (95%% scan / 5%% insert)\n");
  std::printf("%-12s %10s %10s %14s\n", "index", "load (s)", "E (s)", "E ops/s");
  std::printf("%-12s %10.3f %10.3f %14.0f\n", "ART", art_e.first, art_e.second,
              static_cast<double>(ops) / art_e.second);
  std::printf("%-12s %10.3f %10.3f %14.0f\n", "B+-tree", btree_e.first, btree_e.second,
              static_cast<double>(ops) / btree_e.second);
  std::printf("B+-tree / ART time ratio on E: %.2fx\n", btree_e.second / art_e.second);
  std::filesystem::remove_all(dir);
  return 0;
}
