// fleet-serve: open-loop Poisson arrivals over kDevices Small() devices on
// the default kernel mix, routed least-outstanding with re-route retries, so
// the run takes the lockstep serving loop every fleet feature uses. This is
// the only request-serving workload, with a latency objective, and the only
// one that exercises the fleet module (traffic, admission, router, install
// cache).
//
// The offered rate sits well below the knee: the fleet serves about 730
// req/s at most, and at 400 req/s a 1000-request window already sheds about
// 1% of requests, so 300 req/s is used and no request should be shed. One
// unit is one fleet run of kRequests requests on its own arrival stream; the
// workload is kFleetRuns of them, pooled.
//
// Every fleet run starts with empty install caches, so about one request in
// thirty pays a fresh dataset install, and the p99 client latency falls among
// those installs. That tail moves by about 20% (interquartile range over
// median) from one seed to the next, which is why the benchmark prints it but
// does not gate on it; see perfbench/README.md.
#include "common.h"
#include "src/fleet/fleet.h"

namespace perfbench {
namespace {

using namespace fabacus;

constexpr int kDevices = 4;
constexpr double kArrivalRatePerS = 300.0;
constexpr int kRequests = 500;
constexpr int kFleetRuns = 4;

class FleetServe : public BenchWorkload {
 public:
  explicit FleetServe(std::uint64_t seed) : seed_(seed) {
    config_.num_devices = kDevices;
    config_.policy = PlacementPolicy::kLeastOutstanding;
    config_.max_route_attempts = 2;
    config_.verify_outputs = true;
    config_.traffic.model = TrafficConfig::Model::kOpenLoop;
    config_.traffic.arrival_rate_per_s = kArrivalRatePerS;
    config_.traffic.total_requests = kRequests;
  }

  std::size_t num_units() const override { return kFleetRuns; }

  UnitOutcome RunUnit(std::size_t u, SpanTrace* trace, int run_id) override {
    UnitOutcome out;
    FleetConfig config = config_;
    config.traffic.seed = SubSeed(seed_, u);
    FleetReport rep;
    {
      ScopedSpan span(trace, "fleet.run", run_id);
      rep = RunFleet(config);
    }
    {
      ScopedSpan span(trace, "core.report_json", run_id);
      out.digest = Fnv1a(rep.ToJson());
    }
    out.tally.attempted = rep.offered;
    // A failed output check cannot be pinned to one request, so it fails
    // every served one.
    out.tally.failed = rep.shed + rep.failed + (rep.verified ? 0 : rep.served);
    out.model_mb = ServedMb(rep);
    for (const FleetDeviceStats& d : rep.devices) {
      out.events += d.events_executed;
    }
    if (reports_.size() == u) {
      reports_.push_back(std::move(rep));
    }
    return out;
  }

  double ReplayKernelMath(std::size_t /*u*/, SpanTrace* /*trace*/, int /*run_id*/,
                          Tally* /*tally*/) override {
    // Requests prepare and verify inside RunFleet; there is no FlashAbacus::Run
    // call of the benchmark's own to attribute kernel math to.
    return 0.0;
  }

  std::vector<Metric> SimMetrics() const override {
    LogHistogram latency;
    double served_mb = 0.0;
    double busy_s = 0.0;
    double energy_j = 0.0;
    double offered = 0.0;
    double slo_misses = 0.0;
    for (const FleetReport& r : reports_) {
      latency.Merge(r.latency_ms);
      served_mb += ServedMb(r);
      busy_s += TicksToSeconds(r.makespan);
      for (const FleetDeviceStats& d : r.devices) {
        energy_j += d.energy_j;
      }
      offered += static_cast<double>(r.offered);
      slo_misses += static_cast<double>(r.slo_violations + r.shed + r.failed);
    }
    LatencySummary lat;
    lat.samples = latency.count();
    lat.p50 = latency.Percentile(50.0);
    lat.tail_percentile = TailPercentileFor(lat.samples);
    lat.tail = latency.Percentile(lat.tail_percentile);
    std::vector<Metric> m = {
        {"sim_throughput_mb_s", served_mb / busy_s, "sim_MB/s"},
        {"sim_energy_j_per_mb", energy_j / served_mb, "J/MB"},
        {"slo_miss_share", slo_misses / offered, "share"},
        {"slo_ms", config_.slo_ms, "sim_ms"},
        {"offered_req_per_s", kArrivalRatePerS, "1/s"},
    };
    AppendLatency(lat, &m);
    return m;
  }

  std::vector<Metric> LayerCounters() const override {
    double installs = 0.0;
    double hits = 0.0;
    double batches = 0.0;
    double route_retries = 0.0;
    double shed = 0.0;
    double util = 0.0;
    double devices = 0.0;
    for (const FleetReport& r : reports_) {
      route_retries += static_cast<double>(r.route_retries);
      shed += static_cast<double>(r.shed);
      for (const FleetDeviceStats& d : r.devices) {
        installs += static_cast<double>(d.installs);
        hits += static_cast<double>(d.install_hits);
        batches += static_cast<double>(d.batches);
        util += d.utilization;
        devices += 1.0;
      }
    }
    // The fleet report carries no per-device flash or FTL counters, so those
    // layers keep the 0 that perfbench.cc defaults them to.
    return {
        {"fleet.install_hit_ratio", hits / (installs + hits), "share"},
        {"fleet.batches", batches, "count"},
        {"fleet.route_retries", route_retries, "count"},
        {"fleet.shed", shed, "count"},
        {"fleet.device_utilization", util / devices, "share"},
    };
  }

 private:
  static double ServedMb(const FleetReport& r) {
    return r.served_mb_s * TicksToSeconds(r.makespan);
  }

  std::uint64_t seed_;
  FleetConfig config_;
  std::vector<FleetReport> reports_;  // first run of each unit
};

}  // namespace

std::unique_ptr<BenchWorkload> MakeFleetServe(std::uint64_t seed) {
  return std::make_unique<FleetServe>(seed);
}

}  // namespace perfbench
