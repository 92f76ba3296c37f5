// Table 3: mean latency of Puddles vs PMDK-like API primitives —
// TX NOP, TX_ADD (8 B / 4 KiB), malloc (8 B / 4 KiB), malloc+free. Rows keep
// the paper's primitive names; Puddles runs them through its transaction
// interface (pool.Run + Tx: tx.LogRange, tx.AllocBytes, tx.FreeBytes).
#include "bench/bench_env.h"
#include "bench/bench_util.h"
#include "src/pmem/flush.h"

namespace {

using bench::Timer;

double NsPerOp(uint64_t iterations, double seconds) {
  return seconds * 1e9 / static_cast<double>(iterations);
}

struct Column {
  double tx_nop;
  double tx_add_8;
  double tx_add_4k;
  double malloc_8;
  double malloc_4k;
  double malloc_free_8;
  double malloc_free_4k;
};

// PM scratch targets for the logging primitives: TX_ADD's target must live
// in mapped puddle space (the typed API validates this).
struct Scratch {
  uint8_t* small;  // 8 B
  uint8_t* big;    // 4 KiB
};

Scratch AllocScratch(puddles::Pool& pool) {
  Scratch scratch;
  puddles::Status allocated = pool.Run([&](puddles::Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(void* small, tx.AllocBytes(8, puddles::kRawBytesTypeId));
    ASSIGN_OR_RETURN(void* big, tx.AllocBytes(4096, puddles::kRawBytesTypeId));
    scratch.small = static_cast<uint8_t*>(small);
    scratch.big = static_cast<uint8_t*>(big);
    return puddles::OkStatus();
  });
  if (!allocated.ok()) {
    std::fprintf(stderr, "scratch allocation failed: %s\n", allocated.ToString().c_str());
    std::abort();
  }
  return scratch;
}

// ---- Puddles, typed transaction contexts (pool.Run + Tx) ----
Column RunPuddlesTyped(bench::PuddlesEnv& env, uint64_t iters) {
  Column col{};
  puddles::Pool& pool = *env.pool;
  Scratch scratch = AllocScratch(pool);
  Timer timer;

  auto nop = [](puddles::Tx&) { return puddles::OkStatus(); };
  for (uint64_t i = 0; i < iters; ++i) {
    (void)pool.Run(nop);
  }
  col.tx_nop = NsPerOp(iters, timer.Seconds());

  timer.Reset();
  for (uint64_t i = 0; i < iters; ++i) {
    (void)pool.Run([&](puddles::Tx& tx) { return tx.LogRange(scratch.small, 8); });
  }
  col.tx_add_8 = NsPerOp(iters, timer.Seconds());

  timer.Reset();
  for (uint64_t i = 0; i < iters / 4; ++i) {
    (void)pool.Run([&](puddles::Tx& tx) { return tx.LogRange(scratch.big, 4096); });
  }
  col.tx_add_4k = NsPerOp(iters / 4, timer.Seconds());

  const uint64_t alloc_iters = iters / 8;
  timer.Reset();
  for (uint64_t i = 0; i < alloc_iters; ++i) {
    (void)pool.Run([&](puddles::Tx& tx) {
      return tx.AllocBytes(8, puddles::kRawBytesTypeId).status();
    });
  }
  col.malloc_8 = NsPerOp(alloc_iters, timer.Seconds());

  timer.Reset();
  for (uint64_t i = 0; i < alloc_iters; ++i) {
    (void)pool.Run([&](puddles::Tx& tx) {
      return tx.AllocBytes(4096, puddles::kRawBytesTypeId).status();
    });
  }
  col.malloc_4k = NsPerOp(alloc_iters, timer.Seconds());

  timer.Reset();
  for (uint64_t i = 0; i < alloc_iters; ++i) {
    (void)pool.Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(void* p, tx.AllocBytes(8, puddles::kRawBytesTypeId));
      return tx.FreeBytes(p);
    });
  }
  col.malloc_free_8 = NsPerOp(alloc_iters, timer.Seconds());

  timer.Reset();
  for (uint64_t i = 0; i < alloc_iters; ++i) {
    (void)pool.Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(void* p, tx.AllocBytes(4096, puddles::kRawBytesTypeId));
      return tx.FreeBytes(p);
    });
  }
  col.malloc_free_4k = NsPerOp(alloc_iters, timer.Seconds());
  return col;
}

// Persist-ordering cost of each typed primitive: fences per transaction,
// measured on the real instruction stream. The batched-persistence protocol
// (DESIGN.md §10) makes these constants — they no longer scale with the
// number of logged ranges (BENCH_commit.json tracks the trajectory).
struct FenceColumn {
  double tx_nop;
  double tx_add_8;
  double tx_add_4k;
  double malloc_free_8;
};

FenceColumn MeasureTypedFences(bench::PuddlesEnv& env) {
  FenceColumn col{};
  puddles::Pool& pool = *env.pool;
  Scratch scratch = AllocScratch(pool);
  col.tx_nop = bench::FencesPerOp(
      [&] { (void)pool.Run([](puddles::Tx&) { return puddles::OkStatus(); }); });
  col.tx_add_8 = bench::FencesPerOp([&] {
    (void)pool.Run([&](puddles::Tx& tx) { return tx.LogRange(scratch.small, 8); });
  });
  col.tx_add_4k = bench::FencesPerOp([&] {
    (void)pool.Run([&](puddles::Tx& tx) { return tx.LogRange(scratch.big, 4096); });
  });
  col.malloc_free_8 = bench::FencesPerOp([&] {
    (void)pool.Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(void* p, tx.AllocBytes(8, puddles::kRawBytesTypeId));
      return tx.FreeBytes(p);
    });
  });
  return col;
}

Column RunFatPtr(fatptr::FatPool& pool, uint64_t iters) {
  Column col{};
  Timer timer;
  for (uint64_t i = 0; i < iters; ++i) {
    (void)pool.TxBegin();
    (void)pool.TxCommit();
  }
  col.tx_nop = NsPerOp(iters, timer.Seconds());

  alignas(64) static uint8_t small[8];
  alignas(64) static uint8_t big[4096];
  timer.Reset();
  for (uint64_t i = 0; i < iters; ++i) {
    (void)pool.TxBegin();
    (void)pool.TxAddRange(small, sizeof(small));
    (void)pool.TxCommit();
  }
  col.tx_add_8 = NsPerOp(iters, timer.Seconds());

  timer.Reset();
  for (uint64_t i = 0; i < iters / 4; ++i) {
    (void)pool.TxBegin();
    (void)pool.TxAddRange(big, sizeof(big));
    (void)pool.TxCommit();
  }
  col.tx_add_4k = NsPerOp(iters / 4, timer.Seconds());

  const uint64_t alloc_iters = iters / 8;
  timer.Reset();
  for (uint64_t i = 0; i < alloc_iters; ++i) {
    (void)pool.TxBegin();
    (void)pool.AllocBytes(8, puddles::kRawBytesTypeId);
    (void)pool.TxCommit();
  }
  col.malloc_8 = NsPerOp(alloc_iters, timer.Seconds());

  timer.Reset();
  for (uint64_t i = 0; i < alloc_iters; ++i) {
    (void)pool.TxBegin();
    (void)pool.AllocBytes(4096, puddles::kRawBytesTypeId);
    (void)pool.TxCommit();
  }
  col.malloc_4k = NsPerOp(alloc_iters, timer.Seconds());

  timer.Reset();
  for (uint64_t i = 0; i < alloc_iters; ++i) {
    (void)pool.TxBegin();
    auto p = pool.AllocBytes(8, puddles::kRawBytesTypeId);
    if (p.ok()) {
      (void)pool.FreeBytes(*p);
    }
    (void)pool.TxCommit();
  }
  col.malloc_free_8 = NsPerOp(alloc_iters, timer.Seconds());

  timer.Reset();
  for (uint64_t i = 0; i < alloc_iters; ++i) {
    (void)pool.TxBegin();
    auto p = pool.AllocBytes(4096, puddles::kRawBytesTypeId);
    if (p.ok()) {
      (void)pool.FreeBytes(*p);
    }
    (void)pool.TxCommit();
  }
  col.malloc_free_4k = NsPerOp(alloc_iters, timer.Seconds());
  return col;
}

}  // namespace

int main() {
  const uint64_t iters = bench::Scaled(100000);
  bench::PrintHeader("Table 3: API primitive latencies (mean ns)",
                     "paper Table 3 (TX NOP 11ns vs 142ns etc.)");
  auto dir = bench::ScratchDir("table3");

  Column typed_col{};
  FenceColumn typed_fences{};
  {
    bench::PuddlesEnv typed_env(dir / "typed");
    typed_col = RunPuddlesTyped(typed_env, iters);
    typed_fences = MeasureTypedFences(typed_env);
  }

  bench::BaselineEnv<fatptr::FatPool> fat_env(dir, "pmdk");
  Column pmdk_col = RunFatPtr(*fat_env.pool, iters);

  std::printf("%-22s %14s %14s\n", "operation", "Puddles", "PMDK");
  auto row = [](const char* op, double typed, double pmdk) {
    std::printf("%-22s %11.1f ns %11.1f ns\n", op, typed, pmdk);
  };
  row("TX NOP", typed_col.tx_nop, pmdk_col.tx_nop);
  row("TX_ADD 8B", typed_col.tx_add_8, pmdk_col.tx_add_8);
  row("TX_ADD 4kB", typed_col.tx_add_4k, pmdk_col.tx_add_4k);
  row("malloc 8B", typed_col.malloc_8, pmdk_col.malloc_8);
  row("malloc 4kB", typed_col.malloc_4k, pmdk_col.malloc_4k);
  row("malloc+free 8B", typed_col.malloc_free_8, pmdk_col.malloc_free_8);
  row("malloc+free 4kB", typed_col.malloc_free_4k, pmdk_col.malloc_free_4k);

  std::printf("\npersist ordering (fences per transaction, typed API; DESIGN.md §10):\n");
  std::printf("%-22s %10.2f\n", "TX NOP", typed_fences.tx_nop);
  std::printf("%-22s %10.2f\n", "TX_ADD 8B", typed_fences.tx_add_8);
  std::printf("%-22s %10.2f\n", "TX_ADD 4kB", typed_fences.tx_add_4k);
  std::printf("%-22s %10.2f\n", "malloc+free 8B", typed_fences.malloc_free_8);
  std::filesystem::remove_all(dir);
  return 0;
}
