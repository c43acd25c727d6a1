// write-churn: two tenants under weighted-fair scheduling on IntraIo. Tenant
// 0 runs BullyWriter kernels, tenant 1 latency-class LatencyProbe kernels.
// The same installed instances are re-run for kRounds rounds, re-prepared and
// reset the way FleetSim reuses cached datasets, so every round overwrites
// every output section and leaves its old flash groups as garbage. This is
// the workload where Storengine GC, foreground reclaim and range-lock
// contention run, with the bullies' writes beside the probes' reads.
//
// Sizing. The NAND geometry is derived, not picked: the live data set (every
// instance's input and output sections) is kLiveFraction = 3/8 of raw flash,
// so the other 5/8 is over-provisioning. With 32-page blocks one block group
// (the GC unit) spans 8 MiB (4 channels x 4 packages x 2 planes x 32 x 8 KiB):
//   live  = 8 x (4 + 4) MiB + 8 x (2 + 2) MiB = 96 MiB  (12 block groups)
//   raw   = live / (3/8)                      = 256 MiB (32 block groups)
// Storengine's background GC keeps gc_high_watermark = 8 block groups free,
// and one round rewrites 48 MiB (6 block groups) of outputs. The 20 spare
// block groups less that 8-group reserve hold two rounds of garbage, so GC
// has to reclaim about every other round: it runs in steady state, while the
// live set stays well below what GC needs to make progress. The sizing is
// not chosen around any policy's behaviour; if a run aborts (for instance in
// Flashvisor's foreground reclaim) the benchmark reports the run as failed.
#include <cmath>
#include <cstdio>

#include "common.h"
#include "src/core/flashabacus.h"
#include "src/sim/simulator.h"
#include "src/workloads/tenant_mix.h"

namespace perfbench {
namespace {

using namespace fabacus;

constexpr int kPerApp = 8;               // bully instances, and probe instances
constexpr double kBullyInputMb = 64.0;  // 4 MiB in + 4 MiB out at kBenchScale
constexpr double kProbeInputMb = 32.0;  // 2 MiB in + 2 MiB out at kBenchScale
constexpr int kRounds = 16;
constexpr int kPagesPerBlock = 32;
constexpr double kLiveFraction = 3.0 / 8.0;
constexpr TenantId kProbeTenant = 1;

class WriteChurn : public BenchWorkload {
 public:
  explicit WriteChurn(std::uint64_t seed)
      : bully_(MakeBullyWriter(kBullyInputMb)),
        probe_(MakeLatencyProbe(kProbeInputMb)),
        apps_{bully_.get(), probe_.get()},
        seed_(seed) {
    config_ = FlashAbacusConfig::Paper();
    config_.model_scale = kBenchScale;
    config_.tenant_sched = NoisyNeighborTenants(TenantSchedPolicy::kWeightedFair);
    NandConfig& nand = config_.nand;
    nand.pages_per_block = kPagesPerBlock;
    const double group = static_cast<double>(nand.GroupBytes());
    for (const Workload* wl : apps_) {
      const double input = wl->spec().model_input_mb * kMiB * kBenchScale;
      for (const DataSectionSpec& s : wl->spec().sections) {
        live_bytes_ += kPerApp * std::ceil(input * s.model_fraction / group) * group;
      }
    }
    nand.blocks_per_plane = static_cast<int>(
        std::ceil(live_bytes_ / kLiveFraction / static_cast<double>(nand.BlockGroupBytes())));
  }

  std::size_t num_units() const override { return 1; }

  UnitOutcome RunUnit(std::size_t /*u*/, SpanTrace* trace, int run_id) override {
    UnitOutcome out;
    Simulator sim;
    FlashAbacus dev(&sim, config_);
    InstanceSet set;
    {
      ScopedSpan span(trace, "workloads.prepare", run_id);
      // Bullies (app 0, tenant 0) are listed first, so FIFO arbitration would
      // queue them ahead of the probes (app 1, tenant 1).
      set = PrepareInstances(apps_, kPerApp, kBenchScale, seed_);
      for (AppInstance* inst : set.raw) {
        inst->tenant = static_cast<TenantId>(inst->app_id());
      }
    }
    {
      ScopedSpan span(trace, "core.install", run_id);
      for (AppInstance* inst : set.raw) {
        ++out.tally.attempted;
        if (!dev.InstallData(inst, [](Tick) {})) {
          ++out.tally.failed;  // a quota denial; no quota is configured
        }
      }
      sim.Run();
    }
    RoundSim rounds;
    RunReport report;
    std::uint64_t digest = Fnv1a("write-churn");
    for (int r = 0; r < kRounds; ++r) {
      if (r > 0) {
        ScopedSpan span(trace, "workloads.prepare", run_id);
        RePrepareInstances(&set, seed_);
        for (AppInstance* inst : set.raw) {
          inst->done = false;
          inst->submit_time = 0;
          inst->load_done_time = 0;
          inst->compute_done_time = 0;
          inst->complete_time = 0;
        }
      }
      bool done = false;
      {
        ScopedSpan span(trace, "core.run", run_id);
        dev.Run(set.raw, SchedulerKind::kIntraInOrder, [&](RunReport rep) {
          report = std::move(rep);
          done = true;
        });
        sim.Run();
      }
      if (!done) {
        // The device state after an incomplete run is unknown: stop, and
        // count this round's and the remaining rounds' instances as failed.
        const std::uint64_t lost = set.raw.size() * static_cast<std::uint64_t>(kRounds - r);
        out.tally.attempted += lost;
        out.tally.failed += lost;
        break;
      }
      {
        ScopedSpan span(trace, "workloads.verify", run_id);
        VerifyInstances(set, &out.tally);
      }
      {
        ScopedSpan span(trace, "core.report_json", run_id);
        digest = Fnv1a(report.ToJson(), digest);
      }
      out.model_mb += report.input_bytes / kMiB;
      rounds.makespan_s += TicksToSeconds(report.makespan);
      rounds.energy_j += report.EnergySummary().total_j;
      for (const AppInstance* inst : set.raw) {
        if (inst->tenant == kProbeTenant) {
          rounds.probe_latency_ms.push_back(TicksToMs(inst->complete_time - inst->submit_time));
        }
      }
    }
    out.digest = digest;
    out.events = sim.events_executed();
    if (!recorded_) {
      recorded_ = true;
      rounds.model_mb = out.model_mb;
      rounds_ = std::move(rounds);
      last_ = std::move(report);
    }
    return out;
  }

  double ReplayKernelMath(std::size_t /*u*/, SpanTrace* trace, int run_id,
                          Tally* tally) override {
    // Every round recomputes the same inputs.
    return kRounds * ReplaySet(apps_, kPerApp, seed_, trace, run_id, tally);
  }

  std::vector<Metric> SimMetrics() const override {
    std::vector<Metric> m = {
        {"sim_throughput_mb_s", rounds_.model_mb / rounds_.makespan_s, "sim_MB/s"},
        {"sim_energy_j_per_mb", rounds_.energy_j / rounds_.model_mb, "J/MB"},
        {"jain_fairness", last_.fairness.jain_throughput, "index"},
    };
    AppendLatency(SummarizeLatency(rounds_.probe_latency_ms), &m);
    return m;
  }

  std::vector<Metric> LayerCounters() const override {
    std::vector<Metric> m = DeviceLayerCounters({&last_.metrics}, last_.worker_utilization);
    for (const TenantQosReport& t : last_.tenants) {
      if (t.id == kProbeTenant) {
        m.push_back({"tenant.probe_lock_wait_ms", static_cast<double>(t.lock_wait_ns) * 1e-6,
                     "sim_ms"});
        m.push_back({"tenant.probe_gc_stall_ms", static_cast<double>(t.gc_stall_ns) * 1e-6,
                     "sim_ms"});
      }
    }
    return m;
  }

  std::vector<std::string> Notes() const override {
    const NandConfig& n = config_.nand;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "geometry: %d blocks/plane x %d pages/block = %.0f MiB raw; live data "
                  "%.0f MiB = %.3f of raw",
                  n.blocks_per_plane, n.pages_per_block,
                  static_cast<double>(n.TotalBytes()) / kMiB, live_bytes_ / kMiB,
                  live_bytes_ / static_cast<double>(n.TotalBytes()));
    return {line};
  }

 private:
  struct RoundSim {
    double model_mb = 0.0;
    double makespan_s = 0.0;
    double energy_j = 0.0;
    std::vector<double> probe_latency_ms;
  };

  std::unique_ptr<Workload> bully_;
  std::unique_ptr<Workload> probe_;
  std::vector<const Workload*> apps_;
  std::uint64_t seed_;
  FlashAbacusConfig config_;
  double live_bytes_ = 0.0;
  bool recorded_ = false;
  RoundSim rounds_;
  RunReport last_;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakeWriteChurn(std::uint64_t seed) {
  return std::make_unique<WriteChurn>(seed);
}

}  // namespace perfbench
