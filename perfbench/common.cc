#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/sim/rng.h"
#include "src/sim/stats.h"

namespace perfbench {

using fabacus::AppInstance;
using fabacus::Rng;
using fabacus::Workload;

InstanceSet PrepareInstances(const std::vector<const Workload*>& apps, int per_app,
                             double model_scale, std::uint64_t seed) {
  InstanceSet set;
  Rng rng(seed);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    for (int i = 0; i < per_app; ++i) {
      auto inst =
          std::make_unique<AppInstance>(static_cast<int>(a), i, &apps[a]->spec(), model_scale);
      apps[a]->Prepare(*inst, rng);
      set.raw.push_back(inst.get());
      set.workload.push_back(apps[a]);
      set.owned.push_back(std::move(inst));
    }
  }
  return set;
}

void RePrepareInstances(InstanceSet* set, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < set->raw.size(); ++i) {
    set->workload[i]->Prepare(*set->raw[i], rng);
  }
}

void VerifyInstances(const InstanceSet& set, Tally* tally) {
  for (std::size_t i = 0; i < set.raw.size(); ++i) {
    ++tally->attempted;
    if (!set.workload[i]->Verify(*set.raw[i])) {
      ++tally->failed;
    }
  }
}

double ReplaySet(const std::vector<const Workload*>& apps, int per_app, std::uint64_t seed,
                 SpanTrace* trace, int run_id, Tally* tally) {
  InstanceSet set;
  {
    ScopedSpan span(trace, "replay.prepare", run_id);
    // Functional buffers do not depend on the modelled scale.
    set = PrepareInstances(apps, per_app, 1.0, seed);
  }
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedSpan span(trace, "workloads.kernel_math", run_id);
    for (AppInstance* inst : set.raw) {
      for (const fabacus::MicroblockSpec& m : inst->spec().microblocks) {
        if (m.body) {
          m.body(*inst, 0, m.func_iterations);
        }
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  {
    ScopedSpan span(trace, "replay.verify", run_id);
    VerifyInstances(set, tally);
  }
  return seconds;
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Fnv1a(const std::string& s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (const double x : v) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double SnapValue(const fabacus::MetricsSnapshot& snap, const std::string& name) {
  return snap.Has(name) ? snap.Value(name) : 0.0;
}

std::vector<Metric> DeviceLayerCounters(const std::vector<const fabacus::MetricsSnapshot*>& snaps,
                                        double worker_utilization) {
  double programs = 0.0;
  double bytes_programmed = 0.0;
  double reads_served = 0.0;
  double fg_reclaims = 0.0;
  double gc_passes = 0.0;
  double gc_migrated = 0.0;
  double scrub_migrated = 0.0;
  for (const fabacus::MetricsSnapshot* s : snaps) {
    programs += SnapValue(*s, "flash/programs");
    bytes_programmed += SnapValue(*s, "flash/bytes_programmed");
    reads_served += SnapValue(*s, "flashvisor/reads_served");
    fg_reclaims += SnapValue(*s, "flashvisor/foreground_reclaims");
    gc_passes += SnapValue(*s, "storengine/gc_passes");
    gc_migrated += SnapValue(*s, "storengine/groups_migrated");
    scrub_migrated += SnapValue(*s, "storengine/scrub_migrations");
  }
  const double useful = programs - gc_migrated - scrub_migrated;
  return {
      {"flash.programs", programs, "count"},
      {"flash.bytes_programmed", bytes_programmed, "B"},
      {"flashvisor.reads_served", reads_served, "count"},
      {"flashvisor.foreground_reclaims", fg_reclaims, "count"},
      {"storengine.gc_passes", gc_passes, "count"},
      {"storengine.groups_migrated", gc_migrated, "count"},
      {"storengine.write_amplification", useful > 0.0 ? programs / useful : 0.0, "x"},
      {"core.worker_utilization", worker_utilization, "share"},
  };
}

double TailPercentileFor(std::size_t samples) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) {
      return p;
    }
  }
  return 50.0;
}

LatencySummary SummarizeLatency(const std::vector<double>& samples_ms) {
  fabacus::Histogram h;
  for (const double v : samples_ms) {
    h.Record(v);
  }
  LatencySummary s;
  s.samples = samples_ms.size();
  s.p50 = h.Percentile(50.0);
  s.tail_percentile = TailPercentileFor(s.samples);
  s.tail = h.Percentile(s.tail_percentile);
  return s;
}

void AppendLatency(const LatencySummary& s, std::vector<Metric>* out) {
  out->push_back({"sim_latency_p50_ms", s.p50, "sim_ms"});
  out->push_back({"sim_latency_tail_ms", s.tail, "sim_ms"});
  out->push_back({"sim_latency_tail_percentile", s.tail_percentile, "pct"});
  out->push_back({"sim_latency_samples", static_cast<double>(s.samples), "count"});
}

}  // namespace perfbench
