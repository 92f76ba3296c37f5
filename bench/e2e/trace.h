// Tracing for the traced run (--trace=DIR), recorded entirely from the
// benchmark's side of the library's public API.
//
// A Tracer belongs to one thread. For a sampled operation it records spans —
// name, start, end, parent — around each call into a layer, all sharing the
// operation's id, in a buffer allocated before the window. When the operation
// ends, each span's self time (its duration minus its children's) is added to
// per-layer totals, and the first kKeptSpans spans are kept for the Chrome
// trace written at exit.
//
// TracedPuddlesAdapter is the traced stand-in for workloads::PuddlesAdapter:
// its TxCtx wraps puddles::Tx and opens a span around every log, alloc and
// free call, and TxRun splits pool.Run into begin / body / commit. Because an
// adapter is a template parameter of the workload, only the traced
// instantiation carries any of this.
#ifndef BENCH_E2E_TRACE_H_
#define BENCH_E2E_TRACE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/e2e/clock.h"
#include "bench/e2e/histogram.h"
#include "src/libpuddles/libpuddles.h"

namespace e2e {

enum class Layer : uint8_t {
  kOp,        // Root: one benchmark operation (one shipped copy on ship-list).
  kKvGet,     // KvStore::Get (the non-transactional read path).
  kTxBegin,   // pool.Run entry up to the body.
  kTxBody,    // The transaction body, minus the calls below.
  kTxLog,     // Tx::LogRange / LogField.
  kAlloc,     // Tx::Alloc.
  kFree,      // Tx::Free.
  kTxCommit,  // Body return up to pool.Run return.
  kImport,    // DaemonClient::ImportPool over the socket.
  kOpen,      // Runtime::OpenPool.
  kWalk,      // First walk of an imported copy (faults, mapping, rewriting).
  kRewalk,    // Second walk of the same copy (already rewritten).
  kCount,
};

inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

inline const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kNumLayers] = {
      "op",         "kv.get",        "tx.begin",    "tx.body",
      "tx.log",     "alloc.malloc",  "alloc.free",  "tx.commit",
      "daemon.import", "daemon.open", "reloc.first_walk", "reloc.rewalk",
  };
  return kNames[static_cast<size_t>(layer)];
}

struct Span {
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t op = 0;
  int16_t parent = -1;  // Index of the parent within its operation; -1 = root.
  Layer layer = Layer::kOp;
};

class Tracer {
 public:
  static constexpr size_t kMaxOpSpans = 64;
  static constexpr size_t kMaxDepth = 8;
  static constexpr size_t kKeptSpans = 16384;

  explicit Tracer(int thread) : thread_(thread) { kept_.reserve(kKeptSpans); }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void BeginOp(uint32_t op_id) {
    op_id_ = op_id;
    num_spans_ = 0;
    depth_ = 0;
    (void)Open(Layer::kOp);
  }

  // Opens a span under the innermost open one; -1 if the buffer is full.
  int Open(Layer layer) {
    const int index = Push(layer);
    if (index >= 0) {
      spans_[static_cast<size_t>(index)].start = Ticks();
    }
    return index;
  }

  void Close(int index) {
    if (index >= 0) {
      End(index, Ticks());
    }
  }

  // Closes span `index` and opens its next sibling at the same instant: one
  // clock read instead of two, and no gap between the two (a clock read costs
  // about 23 ns on the reference machine, a tenth of a kv-a read).
  int Switch(int index, Layer layer) {
    const uint64_t now = Ticks();
    End(index, now);
    const int next = Push(layer);
    if (next >= 0) {
      spans_[static_cast<size_t>(next)].start = now;
    }
    return next;
  }

  // Closes the root span and folds the operation into the per-layer totals.
  void EndOp() {
    Close(0);
    std::array<int64_t, kMaxOpSpans> self{};
    for (size_t i = 0; i < num_spans_; ++i) {
      self[i] += static_cast<int64_t>(spans_[i].end - spans_[i].start);
      if (spans_[i].parent >= 0) {
        self[static_cast<size_t>(spans_[i].parent)] -=
            static_cast<int64_t>(spans_[i].end - spans_[i].start);
      }
    }
    for (size_t i = 0; i < num_spans_; ++i) {
      const size_t layer = static_cast<size_t>(spans_[i].layer);
      self_ticks_[layer] += self[i];
      ++calls_[layer];
      durations_[layer].Record(spans_[i].end - spans_[i].start);
      if (kept_.size() < kKeptSpans) {
        kept_.push_back(spans_[i]);
      }
    }
  }

  int thread() const { return thread_; }
  uint64_t ops() const { return calls_[static_cast<size_t>(Layer::kOp)]; }
  int64_t self_ticks(Layer layer) const { return self_ticks_[static_cast<size_t>(layer)]; }
  uint64_t calls(Layer layer) const { return calls_[static_cast<size_t>(layer)]; }
  const Histogram& durations(Layer layer) const {
    return durations_[static_cast<size_t>(layer)];
  }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  int Push(Layer layer) {
    if (num_spans_ == kMaxOpSpans || depth_ == kMaxDepth) {
      return -1;
    }
    const int index = static_cast<int>(num_spans_++);
    Span& span = spans_[static_cast<size_t>(index)];
    span.layer = layer;
    span.op = op_id_;
    span.parent = depth_ == 0 ? -1 : static_cast<int16_t>(stack_[depth_ - 1]);
    stack_[depth_++] = index;
    return index;
  }

  void End(int index, uint64_t now) {
    if (index < 0) {
      return;
    }
    spans_[static_cast<size_t>(index)].end = now;
    if (depth_ > 0 && stack_[depth_ - 1] == index) {
      --depth_;
    }
  }

  const int thread_;
  uint32_t op_id_ = 0;
  std::array<Span, kMaxOpSpans> spans_{};
  size_t num_spans_ = 0;
  std::array<int, kMaxDepth> stack_{};
  size_t depth_ = 0;
  std::array<int64_t, kNumLayers> self_ticks_{};
  std::array<uint64_t, kNumLayers> calls_{};
  std::array<Histogram, kNumLayers> durations_{};
  std::vector<Span> kept_;
};

// The calling thread's tracer while it runs a sampled operation, else null.
inline thread_local Tracer* tls_tracer = nullptr;

class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer)
      : tracer_(tls_tracer), index_(tracer_ != nullptr ? tracer_->Open(layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// Per-layer totals merged over every thread's tracer.
struct LayerTotals {
  uint64_t ops = 0;
  std::array<int64_t, kNumLayers> self_ticks{};
  std::array<uint64_t, kNumLayers> calls{};
  std::array<Histogram, kNumLayers> durations{};

  void Add(const Tracer& tracer) {
    ops += tracer.ops();
    for (size_t i = 0; i < kNumLayers; ++i) {
      const Layer layer = static_cast<Layer>(i);
      self_ticks[i] += tracer.self_ticks(layer);
      calls[i] += tracer.calls(layer);
      durations[i].Merge(tracer.durations(layer));
    }
  }

  // Mean self time of `layer` per sampled operation, in nanoseconds.
  double SelfNsPerOp(Layer layer) const {
    return ops == 0 ? 0.0
                    : TickClock::Get().ToNanos(static_cast<uint64_t>(std::max<int64_t>(
                          0, self_ticks[static_cast<size_t>(layer)]))) /
                          static_cast<double>(ops);
  }
  // Mean self time per call of `layer`, in nanoseconds.
  double SelfNsPerCall(Layer layer) const {
    const uint64_t n = calls[static_cast<size_t>(layer)];
    return n == 0 ? 0.0 : SelfNsPerOp(layer) * static_cast<double>(ops) / static_cast<double>(n);
  }
  double DurationPercentileNs(Layer layer, double p) const {
    return TickClock::Get().ToNanos(
        static_cast<uint64_t>(durations[static_cast<size_t>(layer)].Percentile(p)));
  }
};

// Writes the kept spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Timestamps are microseconds since `base_ticks`.
inline bool WriteChromeTrace(const std::string& path, const std::vector<const Tracer*>& tracers,
                             uint64_t base_ticks) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const double us_per_tick = TickClock::Get().NanosPerTick() / 1000.0;
  std::fprintf(out, "{\"traceEvents\": [\n");
  bool first = true;
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->kept()) {
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                   "\"dur\": %.3f, \"args\": {\"op\": %u, \"parent\": %d}}",
                   first ? "" : ",\n", LayerName(span.layer), tracer->thread(),
                   static_cast<double>(span.start - base_ticks) * us_per_tick,
                   static_cast<double>(span.end - span.start) * us_per_tick, span.op,
                   static_cast<int>(span.parent));
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

// Writes the per-layer self-time summary: for each layer, its mean self time
// and call count per sampled operation.
inline bool WriteLayerSummary(const std::string& path, const LayerTotals& totals) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"sampled_ops\": %llu, \"layers\": {",
               static_cast<unsigned long long>(totals.ops));
  for (size_t i = 0; i < kNumLayers; ++i) {
    const Layer layer = static_cast<Layer>(i);
    std::fprintf(out, "%s\n  \"%s\": {\"self_ns_per_op\": %.3f, \"calls_per_op\": %.4f}",
                 i == 0 ? "" : ",", LayerName(layer), totals.SelfNsPerOp(layer),
                 totals.ops == 0 ? 0.0
                                 : static_cast<double>(totals.calls[i]) /
                                       static_cast<double>(totals.ops));
  }
  std::fprintf(out, "\n}}\n");
  return std::fclose(out) == 0;
}

class TracedTx {
 public:
  explicit TracedTx(puddles::Tx& tx) : tx_(tx) {}

  TracedTx(const TracedTx&) = delete;
  TracedTx& operator=(const TracedTx&) = delete;

  puddles::Status LogRange(void* addr, size_t size) {
    ScopedSpan span(Layer::kTxLog);
    return tx_.LogRange(addr, size);
  }
  template <typename T, typename M>
  puddles::Status LogField(T* object, M T::*field) {
    ScopedSpan span(Layer::kTxLog);
    return tx_.LogField(object, field);
  }
  template <typename T>
  puddles::Result<T*> Alloc(size_t count = 1) {
    ScopedSpan span(Layer::kAlloc);
    return tx_.Alloc<T>(count);
  }
  template <typename T>
  puddles::Status Free(T* payload) {
    ScopedSpan span(Layer::kFree);
    return tx_.Free(payload);
  }

 private:
  puddles::Tx& tx_;
};

// The part of workloads::PuddlesAdapter's surface (src/workloads/adapters.h)
// that KvStore uses, but for Root and SetRoot, which ShardAdapter (kv.h)
// supplies.
class TracedPuddlesAdapter {
 public:
  template <typename T>
  using Handle = T*;
  using TxCtx = TracedTx;

  explicit TracedPuddlesAdapter(puddles::Pool* pool) : pool_(pool) {}

  template <typename T>
  T* Get(T* handle) const {
    return handle;
  }
  template <typename T>
  static T* Null() {
    return nullptr;
  }

  template <typename Fn>
  puddles::Status TxRun(Fn&& fn) {
    Tracer* tracer = tls_tracer;
    if (tracer == nullptr) {
      return pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
        TracedTx ctx(tx);
        return fn(ctx);
      });
    }
    const int begin = tracer->Open(Layer::kTxBegin);
    int commit = -1;
    bool body_ran = false;
    puddles::Status status = pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
      body_ran = true;
      const int body = tracer->Switch(begin, Layer::kTxBody);
      TracedTx ctx(tx);
      puddles::Status result = fn(ctx);
      commit = tracer->Switch(body, Layer::kTxCommit);
      return result;
    });
    tracer->Close(body_ran ? commit : begin);
    return status;
  }

  template <typename T, typename... M>
  static void RegisterType(M T::*... fields) {
    (void)puddles::TypeRegistry::Instance().Register<T>(fields...);
  }

 private:
  puddles::Pool* pool_;
};

}  // namespace e2e

#endif  // BENCH_E2E_TRACE_H_
