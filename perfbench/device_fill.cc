// device-fill: every PolyBench kernel with kInstances instances installed on
// one Paper-geometry IntraO3 device, then run once. The resident working set
// is large against the DDR3L write buffer and the mapping cache, and install
// cost grows faster than linearly with occupancy, so this workload loads the
// flash payload store and the install path. Each input set runs once, so
// memoizing across systems predicts no change here.
#include "common.h"
#include "src/core/flashabacus.h"
#include "src/sim/simulator.h"

namespace perfbench {
namespace {

using namespace fabacus;

constexpr int kInstances = 6;

class DeviceFill : public BenchWorkload {
 public:
  explicit DeviceFill(std::uint64_t seed)
      : kernels_(WorkloadRegistry::Get().polybench()), seed_(seed) {}

  std::size_t num_units() const override { return 1; }

  UnitOutcome RunUnit(std::size_t /*u*/, SpanTrace* trace, int run_id) override {
    UnitOutcome out;
    Simulator sim;
    FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
    cfg.model_scale = kBenchScale;
    FlashAbacus dev(&sim, cfg);
    InstanceSet set;
    {
      ScopedSpan span(trace, "workloads.prepare", run_id);
      set = PrepareInstances(kernels_, kInstances, kBenchScale, seed_);
    }
    {
      ScopedSpan span(trace, "core.install", run_id);
      for (AppInstance* inst : set.raw) {
        dev.InstallData(inst, [](Tick) {});
      }
      sim.Run();
    }
    RunReport report;
    bool done = false;
    {
      ScopedSpan span(trace, "core.run", run_id);
      dev.Run(set.raw, SchedulerKind::kIntraOutOfOrder, [&](RunReport r) {
        report = std::move(r);
        done = true;
      });
      sim.Run();
    }
    if (!done) {
      out.tally.attempted = out.tally.failed = set.raw.size();
    } else {
      ScopedSpan span(trace, "workloads.verify", run_id);
      VerifyInstances(set, &out.tally);
    }
    {
      ScopedSpan span(trace, "core.report_json", run_id);
      out.digest = Fnv1a(report.ToJson());
    }
    out.model_mb = report.input_bytes / kMiB;
    out.events = sim.events_executed();
    if (!recorded_) {
      recorded_ = true;
      report_ = std::move(report);
    }
    return out;
  }

  double ReplayKernelMath(std::size_t /*u*/, SpanTrace* trace, int run_id,
                          Tally* tally) override {
    return ReplaySet(kernels_, kInstances, seed_, trace, run_id, tally);
  }

  std::vector<Metric> SimMetrics() const override {
    const double mb = report_.input_bytes / kMiB;
    std::vector<Metric> m = {
        {"sim_throughput_mb_s", report_.throughput_mb_s, "sim_MB/s"},
        {"sim_energy_j_per_mb", report_.EnergySummary().total_j / mb, "J/MB"},
    };
    AppendLatency(SummarizeLatency(report_.kernel_latency_ms.samples()), &m);
    return m;
  }

  std::vector<Metric> LayerCounters() const override {
    return DeviceLayerCounters({&report_.metrics}, report_.worker_utilization);
  }

 private:
  const std::vector<const Workload*>& kernels_;
  std::uint64_t seed_;
  bool recorded_ = false;
  RunReport report_;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakeDeviceFill(std::uint64_t seed) {
  return std::make_unique<DeviceFill>(seed);
}

}  // namespace perfbench
