// bench_micro_engine: engine-level performance of the simulation core.
//
// Two measurements (see docs/PERFORMANCE.md):
//  1. Event-churn throughput (events/sec) of the calendar event queue on an
//     ONFi-flavoured self-scheduling workload, at a near-idle and a loaded
//     in-flight population.
//  2. Sweep-runner scaling: wall time for a fixed batch of independent
//     simulations at 1..N threads.
//
// Output includes machine-parsable lines of the form
//     PERF <metric> <label> <value>
// scripts/run_all.sh greps these for BENCH_perf.json and the perf gate.
// Set FABACUS_MIN_EVENTS_PER_SEC to make the process exit non-zero when the
// loaded churn throughput falls below the threshold, and
// FABACUS_MICRO_EVENTS to change the churn length (default 400000).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/event_queue.h"
#include "src/sim/sweep_runner.h"

namespace fabacus {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Delay mix drawn from the NAND timing constants the simulator schedules
// with: mostly command/crossbar overheads and reads, a tail of program and
// erase completions. Deterministic LCG, consumed in event-fire order, so
// every run executes the same workload.
Tick NextDelay(std::uint64_t* lcg) {
  *lcg = *lcg * 6364136223846793005ULL + 1442695040888963407ULL;
  // Multiply-shift keeps the generator off the critical path (a 64-bit
  // modulo costs ~25 cycles, a visible share of one event's cost).
  const std::uint64_t r = ((*lcg >> 32) * 100) >> 32;
  if (r < 50) {
    return kUs;  // command overhead / crossbar hop
  }
  if (r < 80) {
    return 81 * kUs;  // tR
  }
  if (r < 95) {
    return 8 * kUs;  // page transfer on the channel bus
  }
  if (r < 99) {
    return 2600 * kUs;  // tPROG
  }
  return 6 * kMs;  // tBERS
}

// Self-scheduling churn over the event queue.
struct Churn {
  EventQueue q;
  std::uint64_t remaining = 0;
  Tick now = 0;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink = 0;

  void ScheduleNext() {
    if (remaining == 0) {
      return;
    }
    --remaining;
    const Tick delay = NextDelay(&lcg);
    // 24-byte capture (pointer + two words), the size of the simulator's
    // real [this, id, tick] lambdas: inside EventFn's 32-byte inline storage.
    const std::uint64_t a = lcg;
    const std::uint64_t b = remaining;
    q.Push(now + delay, [this, a, b] {
      sink += a ^ b;
      ScheduleNext();
    });
  }

  // Returns events/sec over `total` pop+dispatch+push cycles.
  double Run(std::uint64_t total, int inflight) {
    remaining = total;
    for (int i = 0; i < inflight; ++i) {
      ScheduleNext();
    }
    const Clock::time_point t0 = Clock::now();
    Tick when = 0;
    while (!q.empty()) {
      EventQueue::Callback fn = q.Pop(&when);
      now = when;
      fn();
    }
    const Clock::time_point t1 = Clock::now();
    return static_cast<double>(total) / Seconds(t0, t1);
  }
};

// Best of `reps` fresh runs (first acts as warmup for the slab pool).
double ChurnEventsPerSec(std::uint64_t total, int reps, int inflight) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Churn churn;
    best = std::max(best, churn.Run(total, inflight));
  }
  return best;
}

std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  const long long n = std::atoll(v);
  return n > 0 ? static_cast<std::uint64_t>(n) : fallback;
}

}  // namespace
}  // namespace fabacus

int main() {
  using namespace fabacus;
  const std::uint64_t kEvents = EnvU64("FABACUS_MICRO_EVENTS", 400000);
  constexpr int kReps = 3;

  PrintHeader("Engine micro-bench 1: event-churn throughput (calendar queue)");
  // Two in-flight populations: a near-idle device (64 pending events) and a
  // loaded one (16384 — 24 kernels fanning requests across 64 channel queues
  // and write buffers). The loaded point is the gated headline.
  PrintRow({"in-flight events", "Mev/s"}, 20);
  double loaded = 0.0;
  for (const int inflight : {64, 16384}) {
    const double c = ChurnEventsPerSec(kEvents, kReps, inflight);
    const char* tag = inflight == 64 ? "64" : "16384";
    std::printf("PERF events_per_sec calendar_eventfn_%s %.0f\n", tag, c);
    PrintRow({tag, Fmt(c / 1e6, 2)}, 20);
    if (inflight == 16384) {
      loaded = c;
    }
  }

  PrintHeader("Engine micro-bench 2: sweep-runner scaling (8 independent sims)");
  const Workload* atax = WorkloadRegistry::Get().Find("ATAX");
  BenchOptions small;
  small.model_scale = kBenchScale / 4;  // keep the scaling probe quick
  PrintRow({"threads", "wall(s)", "speedup"}, 12);
  double serial_s = 0.0;
  for (int threads : {1, 2, 4}) {
    SweepRunner pool(threads);
    std::vector<std::function<BenchRun()>> jobs;
    for (int i = 0; i < 8; ++i) {
      jobs.emplace_back(
          [atax, small] { return RunFlashAbacusSystem({atax}, 2, SchedulerKind::kInterDynamic,
                                                      small); });
    }
    const Clock::time_point t0 = Clock::now();
    pool.Run(std::move(jobs));
    const double secs = Seconds(t0, Clock::now());
    if (threads == 1) {
      serial_s = secs;
    }
    PrintRow({Fmt(threads, 0), Fmt(secs, 3), Fmt(serial_s / secs, 2) + "x"}, 12);
    std::printf("PERF sweep_wall_seconds threads_%d %.3f\n", threads, secs);
  }
  std::printf("(hardware threads: %d; scaling is bounded by physical cores)\n",
              SweepRunner::DefaultThreads());

  const std::uint64_t min_eps = EnvU64("FABACUS_MIN_EVENTS_PER_SEC", 0);
  if (min_eps > 0 && loaded < static_cast<double>(min_eps)) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: calendar engine %.0f events/s < required %llu\n",
                 loaded, static_cast<unsigned long long>(min_eps));
    return 1;
  }
  return 0;
}
