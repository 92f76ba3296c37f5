// ship-list: paper Fig. 14's sensor aggregation, on the deployed stack.
//
// Setup builds a kShipVars-variable sensor-state PersistentList, exports it,
// and derives kShipCopies sensor exports, each from its own daemon root: the
// sensor imports the state, adds its own delta to every variable in one
// transaction, and exports. Every export therefore carries the same puddle
// addresses.
//
// The window is a sequence of rounds. A round starts a fresh home daemon,
// server and runtime (untimed; a fresh daemon also keeps the pool table far
// from its capacity), then times each copy: DaemonClient::ImportPool over the
// socket, Runtime::OpenPool, a full walk that adds every variable into the
// round's aggregate, and a check of the copy's sum. The first copy keeps its
// addresses; the other kShipCopies - 1 conflict and are relocated, so the
// walk faults each puddle in and rewrites its pointers. tx, alloc and epoch
// do no work here.
//
// One thread: the home node aggregates sequentially.
#ifndef BENCH_E2E_SHIP_H_
#define BENCH_E2E_SHIP_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/clock.h"
#include "bench/e2e/report.h"
#include "bench/e2e/stack.h"
#include "bench/e2e/trace.h"
#include "bench/e2e/window.h"
#include "bench/e2e/ycsb.h"
#include "src/workloads/adapters.h"
#include "src/workloads/list.h"

namespace e2e {

inline constexpr uint64_t kShipVars = 16384;
inline constexpr int kShipCopies = 16;

using StateList = workloads::PersistentList<workloads::PuddlesAdapter>;

class ShipBench {
 public:
  explicit ShipBench(const RunConfig& config) : config_(config) {
    Rng rng(config.seed * 7919 + 17);
    for (uint64_t& value : values_) {
      value = rng.Below(1000000);
    }
    for (uint64_t& delta : deltas_) {
      delta = 1 + rng.Below(1000);
    }
    for (int copy = 0; copy < kShipCopies; ++copy) {
      for (uint64_t value : values_) {
        sums_[static_cast<size_t>(copy)] += value + deltas_[static_cast<size_t>(copy)];
      }
    }
  }

  WorkloadReport Run() {
    WorkloadReport report;
    report.workload = "ship-list";
    StateList::RegisterTypes();

    std::vector<double> setup_s;
    root_ = fs::path(config_.work_dir) / "ship-list";
    for (int rep = 0; rep < kSetupReps; ++rep) {
      if (rep > 0) {
        fs::remove_all(root_ / ("rep" + std::to_string(rep - 1)));
      }
      exports_ = root_ / ("rep" + std::to_string(rep));
      const uint64_t start = Ticks();
      Setup();
      setup_s.push_back(TickClock::Get().ToSeconds(Ticks() - start));
    }

    const Window untraced = RunWindow(/*traced=*/false);
    report.attempted = untraced.attempted;
    report.failed = untraced.failed;

    std::unique_ptr<Window> traced;
    if (!config_.trace_dir.empty()) {
      traced = std::make_unique<Window>(RunWindow(/*traced=*/true));
      report.attempted += traced->attempted;
      report.failed += traced->failed;
    }

    report.failed += Verify();
    report.correct = report.failed == 0;
    AddEndToEnd(report, setup_s, untraced);
    AddBypassCounters(report, untraced.counters);
    if (traced) {
      ReportTraced(report, untraced, *traced, config_.trace_dir);
    }
    fs::remove_all(root_);
    return report;
  }

 private:
  fs::path ExportDir(int copy) const { return exports_ / ("export" + std::to_string(copy)); }

  // Seed state, its export, and one export per sensor, each sensor on its own
  // daemon root.
  void Setup() {
    const fs::path seed_export = exports_ / "seed_export";
    {
      Stack seed(exports_ / "seed", /*run_recovery=*/true);
      puddles::Pool* pool = Take(seed.runtime().CreatePool("state"), "create state pool");
      StateList list{workloads::PuddlesAdapter(pool)};
      Check(list.Init(), "state init");
      for (uint64_t value : values_) {
        Check(list.InsertTail(value), "state insert");
      }
      Check(seed.runtime().ExportPool("state", seed_export.string()), "export seed");
    }
    fs::remove_all(exports_ / "seed");
    for (int copy = 0; copy < kShipCopies; ++copy) {
      const fs::path sensor_dir = exports_ / ("sensor" + std::to_string(copy));
      {
        Stack sensor(sensor_dir, /*run_recovery=*/true);
        puddles::Pool* pool =
            Take(sensor.runtime().ImportPool(seed_export.string(), "state"), "sensor import");
        auto* head = Take(pool->Root<StateList::Head>(), "sensor root");
        const uint64_t delta = deltas_[static_cast<size_t>(copy)];
        Check(pool->Run([&](puddles::Tx& tx) -> puddles::Status {
                for (StateList::Node* n = head->head; n != nullptr; n = n->next) {
                  RETURN_IF_ERROR(tx.LogField(n, &StateList::Node::value));
                  n->value += delta;
                }
                return puddles::OkStatus();
              }),
              "sensor update");
        Check(sensor.runtime().ExportPool("state", ExportDir(copy).string()), "sensor export");
      }
      fs::remove_all(sensor_dir);
    }
  }

  // Walks a copy's list, adding each variable into the round aggregate;
  // returns false if the walk does not see the copy's exact state.
  bool Walk(puddles::Pool* pool, int copy, std::vector<uint64_t>* aggregate) const {
    auto head = pool->Root<StateList::Head>();
    if (!head.ok()) {
      return false;
    }
    uint64_t sum = 0;
    uint64_t index = 0;
    for (StateList::Node* n = (*head)->head; n != nullptr && index < kShipVars;
         n = n->next, ++index) {
      sum += n->value;
      if (aggregate != nullptr) {
        (*aggregate)[index] += n->value;
      }
    }
    return index == kShipVars && (*head)->count == kShipVars &&
           sum == sums_[static_cast<size_t>(copy)];
  }

  bool AggregateMatches(const std::vector<uint64_t>& aggregate, int copies) const {
    uint64_t delta_sum = 0;
    for (int copy = 0; copy < copies; ++copy) {
      delta_sum += deltas_[static_cast<size_t>(copy)];
    }
    for (uint64_t j = 0; j < kShipVars; ++j) {
      if (aggregate[j] != static_cast<uint64_t>(copies) * values_[j] + delta_sum) {
        return false;
      }
    }
    return true;
  }

  // Rounds of kShipCopies copies until the timed copy time reaches the
  // window; the first round always completes. The last round's home stays up
  // for the oracle. Space is sampled once, after the first round, with all
  // kShipCopies copies open: a window end falls after more or fewer copies
  // from run to run.
  Window RunWindow(bool traced) {
    Window result;
    if (traced) {
      result.tracers.push_back(std::make_unique<Tracer>(0));
    }
    Tracer* tracer = traced ? result.tracers[0].get() : nullptr;
    const uint64_t window = TickClock::Get().FromSeconds(config_.duration_s);
    std::array<uint64_t, kSlices> slices{};
    uint64_t timed = 0;
    result.start_ticks = Ticks();
    for (bool first = true; first || timed < window; first = false) {
      home_.reset();
      if (!home_dir_.empty()) {
        fs::remove_all(home_dir_);
      }
      home_dir_ = root_ / ("home" + std::to_string(round_++));
      home_ = std::make_unique<Stack>(home_dir_, /*run_recovery=*/true);
      home_copies_ = 0;
      std::vector<uint64_t> aggregate(kShipVars, 0);
      const Counters before = Counters::Read(home_->runtime());
      for (int copy = 0; copy < kShipCopies && (first || timed < window); ++copy) {
        const uint64_t elapsed = TimeCopy(copy, &aggregate, tracer, &result);
        timed += elapsed;
        ++home_copies_;
        ++slices[static_cast<size_t>(SliceOf(timed, window))];
      }
      result.counters.Add(Counters::Delta(Counters::Read(home_->runtime()), before));
      if (!AggregateMatches(aggregate, home_copies_)) {
        ++result.failed;
      }
      if (first) {
        result.pm_bytes = static_cast<double>(home_->PmBytes());
        result.user_bytes = static_cast<double>(home_copies_ * kShipVars * sizeof(uint64_t));
        result.dram_mib = HeapInUseMiB();
      }
    }
    result.throughput = MedianSliceRate(slices, window, timed);
    return result;
  }

  // One shipped copy: import, open, walk and check. Returns its ticks.
  uint64_t TimeCopy(int copy, std::vector<uint64_t>* aggregate, Tracer* tracer, Window* w) {
    const std::string name = "copy" + std::to_string(copy);
    puddles::Runtime& runtime = home_->runtime();
    auto span = [&](Layer layer) { return tracer != nullptr ? tracer->Open(layer) : -1; };
    auto close = [&](int index) {
      if (tracer != nullptr) {
        tracer->Close(index);
      }
    };
    if (tracer != nullptr) {
      tracer->BeginOp(static_cast<uint32_t>(w->attempted));
    }
    ++w->attempted;
    bool ok = false;
    const uint64_t t0 = Ticks();
    int s = span(Layer::kImport);
    const bool imported = runtime.client().ImportPool(ExportDir(copy).string(), name).ok();
    close(s);
    puddles::Pool* pool = nullptr;
    if (imported) {
      s = span(Layer::kOpen);
      auto opened = runtime.OpenPool(name);
      close(s);
      pool = opened.ok() ? *opened : nullptr;
    }
    const uint64_t t2 = Ticks();
    if (pool != nullptr) {
      s = span(Layer::kWalk);
      ok = Walk(pool, copy, aggregate);
      close(s);
    }
    const uint64_t t3 = Ticks();
    if (tracer != nullptr) {
      if (pool != nullptr) {
        s = span(Layer::kRewalk);
        ok = Walk(pool, copy, nullptr) && ok;
        close(s);
      }
      tracer->EndOp();
    }
    if (!ok) {
      ++w->failed;
    }
    w->latency->op.Record(t3 - t0);
    w->latency->write.Record(t2 - t0);
    w->latency->read.Record(t3 - t2);
    return t3 - t0;
  }

  // The oracle, untimed: restart the last round's home daemon with recovery,
  // reopen every copy it imported over the socket, and check each one and
  // their aggregate again.
  uint64_t Verify() {
    if (config_.self_test_corrupt) {
      sums_[0] ^= 1;
    }
    home_.reset();
    Stack stack(home_dir_, /*run_recovery=*/true);
    uint64_t mismatches = 0;
    std::vector<uint64_t> aggregate(kShipVars, 0);
    for (int copy = 0; copy < home_copies_; ++copy) {
      auto pool = stack.runtime().OpenPool("copy" + std::to_string(copy));
      if (!pool.ok() || !Walk(*pool, copy, &aggregate)) {
        ++mismatches;
      }
    }
    if (!AggregateMatches(aggregate, home_copies_)) {
      ++mismatches;
    }
    if (mismatches != 0) {
      std::fprintf(stderr, "bench_e2e: ship-list: %llu copies differ after restart\n",
                   static_cast<unsigned long long>(mismatches));
    }
    return mismatches;
  }

  const RunConfig config_;
  std::array<uint64_t, kShipVars> values_{};
  std::array<uint64_t, kShipCopies> deltas_{};
  std::array<uint64_t, kShipCopies> sums_{};  // Expected sum of each copy.
  fs::path root_;
  fs::path exports_;  // The kept setup's exports.
  std::unique_ptr<Stack> home_;
  fs::path home_dir_;
  int home_copies_ = 0;
  int round_ = 0;
};

}  // namespace e2e

#endif  // BENCH_E2E_SHIP_H_
