// paper-sweep: the Fig 10a grid. Each of the 14 PolyBench kernels runs with
// six instances on each of the five systems (SIMD, InterSt, IntraIo, InterDy,
// IntraO3), on a fresh device per run, back to back on one thread. One unit
// is one (kernel, system) cell; the five cells of a kernel process the same
// input set, so this is the workload where memoizing Prepare/Verify across
// systems shows.
#include "common.h"
#include "src/core/flashabacus.h"
#include "src/host/simd_system.h"
#include "src/sim/simulator.h"

namespace perfbench {
namespace {

using namespace fabacus;

constexpr int kInstances = 6;
constexpr int kSystems = 5;  // paper order: SIMD, InterSt, IntraIo, InterDy, IntraO3
constexpr SchedulerKind kFaKinds[] = {SchedulerKind::kInterStatic, SchedulerKind::kIntraInOrder,
                                      SchedulerKind::kInterDynamic,
                                      SchedulerKind::kIntraOutOfOrder};
constexpr int kIntraO3 = 4;

// Paper anchors (§5, Fig 10 and Fig 13): IntraO3 improves data-processing
// bandwidth over SIMD by 127% and uses 78.4% less energy.
constexpr double kPaperSpeedup = 2.27;
constexpr double kPaperEnergySaving = 0.784;

struct CellSim {
  bool recorded = false;
  double throughput_mb_s = 0.0;
  double energy_j = 0.0;
  double model_mb = 0.0;
  double worker_utilization = 0.0;
  std::vector<double> latencies_ms;
  MetricsSnapshot metrics;
};

class PaperSweep : public BenchWorkload {
 public:
  explicit PaperSweep(std::uint64_t seed)
      : kernels_(WorkloadRegistry::Get().polybench()), seed_(seed) {
    cells_.resize(num_units());
    replay_s_.assign(kernels_.size(), -1.0);
  }

  std::size_t num_units() const override { return kernels_.size() * kSystems; }

  UnitOutcome RunUnit(std::size_t u, SpanTrace* trace, int run_id) override {
    const std::size_t k = u / kSystems;
    const int system = static_cast<int>(u % kSystems);
    const std::vector<const Workload*> apps = {kernels_[k]};
    UnitOutcome out;
    Simulator sim;
    InstanceSet set;
    {
      ScopedSpan span(trace, "workloads.prepare", run_id);
      set = PrepareInstances(apps, kInstances, kBenchScale, SubSeed(seed_, k));
    }
    RunReport report;
    bool done = false;
    const auto on_done = [&](RunReport r) {
      report = std::move(r);
      done = true;
    };
    if (system == 0) {
      SimdConfig cfg;
      cfg.model_scale = kBenchScale;
      SimdSystem simd(&sim, cfg);
      {
        ScopedSpan span(trace, "host.simd_install", run_id);
        for (AppInstance* inst : set.raw) {
          simd.InstallData(inst);
        }
      }
      ScopedSpan span(trace, "host.simd_run", run_id);
      simd.Run(set.raw, on_done);
      sim.Run();
    } else {
      FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
      cfg.model_scale = kBenchScale;
      FlashAbacus dev(&sim, cfg);
      {
        ScopedSpan span(trace, "core.install", run_id);
        for (AppInstance* inst : set.raw) {
          dev.InstallData(inst, [](Tick) {});
        }
        sim.Run();
      }
      ScopedSpan span(trace, "core.run", run_id);
      dev.Run(set.raw, kFaKinds[system - 1], on_done);
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

    CellSim& cell = cells_[u];
    if (!cell.recorded) {
      cell.recorded = true;
      cell.throughput_mb_s = report.throughput_mb_s;
      cell.energy_j = report.EnergySummary().total_j;
      cell.model_mb = out.model_mb;
      cell.worker_utilization = report.worker_utilization;
      cell.latencies_ms = report.kernel_latency_ms.samples();
      cell.metrics = report.metrics;
    }
    return out;
  }

  double ReplayKernelMath(std::size_t u, SpanTrace* trace, int run_id,
                          Tally* tally) override {
    // The five systems of a kernel run the same input set, so its math is
    // replayed once and charged to each of the four FlashAbacus cells.
    const std::size_t k = u / kSystems;
    if (replay_s_[k] < 0.0) {
      replay_s_[k] =
          ReplaySet({kernels_[k]}, kInstances, SubSeed(seed_, k), trace, run_id, tally);
    }
    return u % kSystems == 0 ? 0.0 : replay_s_[k];
  }

  std::vector<Metric> SimMetrics() const override {
    std::vector<double> o3_tput;
    std::vector<double> o3_latency;
    double speedup_sum = 0.0;
    double energy_ratio_sum = 0.0;
    double o3_energy = 0.0;
    double o3_mb = 0.0;
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
      const CellSim& simd = cells_[k * kSystems];
      const CellSim& o3 = cells_[k * kSystems + kIntraO3];
      o3_tput.push_back(o3.throughput_mb_s);
      o3_latency.insert(o3_latency.end(), o3.latencies_ms.begin(), o3.latencies_ms.end());
      speedup_sum += o3.throughput_mb_s / simd.throughput_mb_s;
      energy_ratio_sum += o3.energy_j / simd.energy_j;
      o3_energy += o3.energy_j;
      o3_mb += o3.model_mb;
    }
    const double n = static_cast<double>(kernels_.size());
    // Mean of per-kernel ratios, as bench_fig10_throughput and
    // bench_fig13_energy report them.
    const double speedup = speedup_sum / n;
    const double saving = 1.0 - energy_ratio_sum / n;
    std::vector<Metric> m = {
        {"sim_throughput_mb_s", GeoMean(o3_tput), "sim_MB/s"},
        {"sim_energy_j_per_mb", o3_energy / o3_mb, "J/MB"},
        {"sim_speedup_vs_simd", speedup, "x"},
        {"sim_speedup_vs_simd.paper", kPaperSpeedup, "x"},
        {"sim_speedup_vs_simd.error", (speedup - kPaperSpeedup) / kPaperSpeedup, "share"},
        {"sim_energy_saving_vs_simd", saving, "share"},
        {"sim_energy_saving_vs_simd.paper", kPaperEnergySaving, "share"},
        {"sim_energy_saving_vs_simd.error", (saving - kPaperEnergySaving) / kPaperEnergySaving,
         "share"},
    };
    AppendLatency(SummarizeLatency(o3_latency), &m);
    return m;
  }

  std::vector<Metric> LayerCounters() const override {
    std::vector<const MetricsSnapshot*> fa;  // SIMD cells have no FlashAbacus layers
    double o3_util = 0.0;
    for (std::size_t u = 0; u < cells_.size(); ++u) {
      if (u % kSystems != 0) {
        fa.push_back(&cells_[u].metrics);
      }
      if (u % kSystems == kIntraO3) {
        o3_util += cells_[u].worker_utilization;
      }
    }
    return DeviceLayerCounters(fa, o3_util / static_cast<double>(kernels_.size()));
  }

 private:
  const std::vector<const Workload*>& kernels_;
  std::uint64_t seed_;
  std::vector<CellSim> cells_;
  std::vector<double> replay_s_;  // per kernel, -1 = not replayed yet
};

}  // namespace

std::unique_ptr<BenchWorkload> MakePaperSweep(std::uint64_t seed) {
  return std::make_unique<PaperSweep>(seed);
}

}  // namespace perfbench
