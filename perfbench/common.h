// Shared pieces of the benchmark's workloads: the interface perfbench.cc
// runs them through, instance preparation and verification, the kernel-math
// replay of the traced run, and small reductions.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "span_trace.h"
#include "src/core/kernel.h"
#include "src/sim/metrics.h"
#include "src/workloads/workload.h"

namespace perfbench {

// Modelled-data scale of the paper-geometry workloads: 1/16 of the paper's
// input sizes, the scale the figure benches run at (bench/bench_util.h).
inline constexpr double kBenchScale = 1.0 / 16.0;
inline constexpr double kMiB = 1024.0 * 1024.0;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Operations tried and failed: verified instances, runs, served requests.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// What one unit of work produced, apart from the host time it took.
struct UnitOutcome {
  double model_mb = 0.0;     // modelled MiB processed (RunReport's MB)
  std::uint64_t digest = 0;  // FNV-1a over the unit's serialized reports
  Tally tally;
  std::uint64_t events = 0;  // simulator events executed
};

// One benchmark workload: a fixed list of units (independent simulations)
// whose inputs derive from the seed given at construction. perfbench.cc runs
// every unit once (the first pass), then repeats units while its time lasts;
// a repeat must reproduce the first run's digest exactly.
class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  virtual std::size_t num_units() const = 0;
  // Runs unit `u`, recording spans into `trace` (null = untraced). The first
  // call for a unit also records its simulated-clock results.
  virtual UnitOutcome RunUnit(std::size_t u, SpanTrace* trace, int run_id) = 0;
  // Traced run only: replays the microblock bodies of unit u's inputs outside
  // the simulator on a freshly prepared copy and verifies it. Returns the
  // kernel-math seconds that unit u's FlashAbacus::Run contains (0 when the
  // unit runs no FlashAbacus device); counts the copies' checks in *tally.
  virtual double ReplayKernelMath(std::size_t u, SpanTrace* trace, int run_id,
                                  Tally* tally) = 0;
  // Simulated-clock metrics of the first pass, including workload-specific
  // ones beyond the end-to-end list.
  virtual std::vector<Metric> SimMetrics() const = 0;
  // Counters of single layers (flash, FTL, tenants, fleet) from the first
  // pass, by per-layer metric name.
  virtual std::vector<Metric> LayerCounters() const = 0;
  // Lines describing the workload's configuration, printed with the result.
  virtual std::vector<std::string> Notes() const { return {}; }
};

std::unique_ptr<BenchWorkload> MakePaperSweep(std::uint64_t seed);
std::unique_ptr<BenchWorkload> MakeDeviceFill(std::uint64_t seed);
std::unique_ptr<BenchWorkload> MakeWriteChurn(std::uint64_t seed);
std::unique_ptr<BenchWorkload> MakeFleetServe(std::uint64_t seed);

// Instances of a workload set, prepared the way the figure benches prepare
// them: `per_app` instances of each app in order, inputs drawn from one
// Rng(seed) stream.
struct InstanceSet {
  std::vector<std::unique_ptr<fabacus::AppInstance>> owned;
  std::vector<fabacus::AppInstance*> raw;
  std::vector<const fabacus::Workload*> workload;  // per instance
};
InstanceSet PrepareInstances(const std::vector<const fabacus::Workload*>& apps, int per_app,
                             double model_scale, std::uint64_t seed);
// Refills every instance's buffers from Rng(seed) in the same order
// PrepareInstances drew them, so a re-run starts from identical inputs.
void RePrepareInstances(InstanceSet* set, std::uint64_t seed);
// Checks every instance's outputs against its workload's reference.
void VerifyInstances(const InstanceSet& set, Tally* tally);

// The replay behind BenchWorkload::ReplayKernelMath for one prepared set:
// spans "replay.prepare", "workloads.kernel_math" and "replay.verify".
// Returns the kernel-math seconds.
double ReplaySet(const std::vector<const fabacus::Workload*>& apps, int per_app,
                 std::uint64_t seed, SpanTrace* trace, int run_id, Tally* tally);

// Derives an independent 64-bit seed for stream `stream` of `seed`.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);
// FNV-1a, chained through `h`.
std::uint64_t Fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ULL);

double Median(std::vector<double> v);
double GeoMean(const std::vector<double>& v);
// Counter/gauge value, or 0 when the snapshot has no such metric.
double SnapValue(const fabacus::MetricsSnapshot& snap, const std::string& name);

// Flash, Flashvisor and Storengine counters summed over device metric
// snapshots, under their per-layer metric names, plus the mean worker
// utilization given. Write amplification is all flash programs over the
// programs that were not GC or scrub migrations (0 when nothing programmed).
std::vector<Metric> DeviceLayerCounters(const std::vector<const fabacus::MetricsSnapshot*>& snaps,
                                        double worker_utilization);

// The p50 and the tail of a latency sample set: the highest percentile of
// {99.9, 99, 95, 90, 75, 50} that leaves at least ten samples beyond it.
struct LatencySummary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
  std::size_t samples = 0;
};
double TailPercentileFor(std::size_t samples);
LatencySummary SummarizeLatency(const std::vector<double>& samples_ms);
// Appends sim_latency_p50_ms / sim_latency_tail_ms and the tail's
// percentile and sample count.
void AppendLatency(const LatencySummary& s, std::vector<Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
