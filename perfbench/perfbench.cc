// perfbench: runs one workload of the repository benchmark for a host-time
// budget and prints its metrics. perfbench/run.py builds and drives it; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out PATH] [--setup-only]
//
// The run executes every unit of the workload once (the first pass), then
// repeats units in order while the next one is predicted to fit the budget,
// at least once. Every repeat must reproduce its first run's report digest.
// With --trace 1 a second, traced pass follows the first, each unit followed
// by a kernel-math replay; comparing it with the untraced runs gives the
// tracing overhead.
//
// Output, one item per line:
//   SETUP <seconds>               entry to main() to the first timed call
//   METRIC <name> <value> <unit>
//   INFO <text>
//   TALLY <attempted> <failed>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "span_trace.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  bool setup_only = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload paper-sweep|device-fill|"
               "write-churn|fleet-serve --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH] [--setup-only]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  if (!(a.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return a;
}

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "paper-sweep") {
    return MakePaperSweep(seed);
  }
  if (name == "device-fill") {
    return MakeDeviceFill(seed);
  }
  if (name == "write-churn") {
    return MakeWriteChurn(seed);
  }
  if (name == "fleet-serve") {
    return MakeFleetServe(seed);
  }
  Usage(("unknown workload " + name).c_str());
}

void PrintMetric(const std::string& name, double value, const std::string& unit) {
  std::printf("METRIC %s %.17g %s\n", name.c_str(), value, unit.c_str());
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct UnitRecord {
  bool ran = false;
  UnitOutcome first;
  std::vector<double> untraced_s;  // every untraced run
  double traced_s = 0.0;           // trace mode: the traced run
  double kernel_math_s = 0.0;      // trace mode: from the replay
};

// Every per-layer counter, with the value a workload that never reaches the
// layer reports; workloads overwrite the ones they measure.
const std::vector<Metric>& LayerCounterDefaults() {
  static const std::vector<Metric> defaults = {
      {"flash.programs", 0.0, "count"},
      {"flash.bytes_programmed", 0.0, "B"},
      {"flashvisor.reads_served", 0.0, "count"},
      {"flashvisor.foreground_reclaims", 0.0, "count"},
      {"storengine.gc_passes", 0.0, "count"},
      {"storengine.groups_migrated", 0.0, "count"},
      {"storengine.write_amplification", 0.0, "x"},
      {"core.worker_utilization", 0.0, "share"},
      {"tenant.probe_lock_wait_ms", 0.0, "sim_ms"},
      {"tenant.probe_gc_stall_ms", 0.0, "sim_ms"},
      {"fleet.install_hit_ratio", 0.0, "share"},
      {"fleet.batches", 0.0, "count"},
      {"fleet.route_retries", 0.0, "count"},
      {"fleet.shed", 0.0, "count"},
      {"fleet.device_utilization", 0.0, "share"},
  };
  return defaults;
}

void PrintLayerMetrics(const BenchWorkload& bench, const SpanTrace& trace,
                       const std::vector<UnitRecord>& recs) {
  const std::map<std::string, double> total = trace.TotalSeconds();
  const std::map<std::string, double> self = trace.SelfSeconds();
  const auto span_s = [&total](const char* name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  double kernel_math = 0.0;
  double events = 0.0;
  double traced = 0.0;
  double untraced = 0.0;
  for (const UnitRecord& r : recs) {
    kernel_math += r.kernel_math_s;
    events += static_cast<double>(r.first.events);
    traced += r.traced_s;
    untraced += Median(r.untraced_s);
  }
  // Host seconds of one pass, per layer, from the traced pass.
  const double core_run = span_s("core.run");
  const double in_simulator = span_s("core.install") + core_run + span_s("host.simd_install") +
                              span_s("host.simd_run") + span_s("fleet.run");
  PrintMetric("workloads.prepare_s", span_s("workloads.prepare"), "s");
  PrintMetric("workloads.verify_s", span_s("workloads.verify"), "s");
  PrintMetric("workloads.kernel_math_s", kernel_math, "s");
  PrintMetric("core.install_s", span_s("core.install"), "s");
  PrintMetric("core.run_s", core_run, "s");
  PrintMetric("core.run_self_s", core_run - kernel_math, "s");
  PrintMetric("host.simd_run_s", span_s("host.simd_run"), "s");
  PrintMetric("core.report_json_s", span_s("core.report_json"), "s");
  PrintMetric("fleet.run_s", span_s("fleet.run"), "s");
  PrintMetric("bench.unattributed_s", self.count("unit") ? self.at("unit") : 0.0, "s");
  PrintMetric("sim.events", events, "count");
  PrintMetric("sim.host_ns_per_event", events > 0 ? in_simulator * 1e9 / events : 0.0, "ns");
  PrintMetric("trace.overhead_share", untraced > 0 ? traced / untraced - 1.0 : 0.0, "share");
  PrintMetric("trace.spans", static_cast<double>(trace.spans().size()), "count");

  std::vector<Metric> counters = LayerCounterDefaults();
  for (const Metric& m : bench.LayerCounters()) {
    bool known = false;
    for (Metric& c : counters) {
      if (c.name == m.name) {
        c = m;
        known = true;
      }
    }
    if (!known) {
      std::fprintf(stderr, "perfbench: layer counter %s has no default\n", m.name.c_str());
      std::exit(1);
    }
  }
  for (const Metric& m : counters) {
    PrintMetric(m.name, m.value, m.unit);
  }
}

int Run(const Args& args, std::chrono::steady_clock::time_point main_entry) {
  fabacus::WorkloadRegistry::Get();
  std::unique_ptr<BenchWorkload> bench = MakeWorkload(args.workload, args.seed);
  const std::size_t n = bench->num_units();
  std::vector<UnitRecord> recs(n);
  SpanTrace trace(args.trace);
  SpanTrace* tp = args.trace ? &trace : nullptr;

  std::printf("SETUP %.9f\n", Seconds(std::chrono::steady_clock::now() - main_entry));
  if (args.setup_only) {
    return 0;
  }

  Tally tally;
  std::uint64_t repeats = 0;
  std::uint64_t mismatches = 0;
  int run_id = 0;
  // Runs unit u and returns its host seconds. A unit that has run before
  // must reproduce its first run's digest.
  const auto run_unit = [&](std::size_t u, SpanTrace* t) {
    UnitRecord& r = recs[u];
    ++run_id;
    const auto t0 = std::chrono::steady_clock::now();
    UnitOutcome out;
    {
      ScopedSpan root(t, "unit", run_id);
      out = bench->RunUnit(u, t, run_id);
    }
    const double dt = Seconds(std::chrono::steady_clock::now() - t0);
    tally.attempted += out.tally.attempted;
    tally.failed += out.tally.failed;
    if (!r.ran) {
      r.ran = true;
      r.first = out;
    } else {
      ++tally.attempted;  // the determinism check
      if (out.digest != r.first.digest) {
        ++mismatches;
        ++tally.failed;
      }
    }
    return dt;
  };

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t u = 0; u < n; ++u) {
    recs[u].untraced_s.push_back(run_unit(u, nullptr));
  }
  if (args.trace) {
    // The traced pass runs warm, after the untraced one.
    for (std::size_t u = 0; u < n; ++u) {
      recs[u].traced_s = run_unit(u, tp);
      ScopedSpan root(tp, "replay", run_id);
      recs[u].kernel_math_s = bench->ReplayKernelMath(u, tp, run_id, &tally);
    }
  }
  // Repeats: untraced, in unit order, while the next is predicted to fit.
  for (std::size_t u = 0;; u = (u + 1) % n) {
    UnitRecord& r = recs[u];
    const double elapsed = Seconds(std::chrono::steady_clock::now() - start);
    if (repeats > 0 && elapsed + Median(r.untraced_s) > args.seconds) {
      break;
    }
    r.untraced_s.push_back(run_unit(u, nullptr));
    ++repeats;
  }
  const double measured_s = Seconds(std::chrono::steady_clock::now() - start);

  std::printf("INFO workload %s seed %llu: %zu units, %llu repeats in %.3f s; "
              "determinism mismatches %llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), n,
              static_cast<unsigned long long>(repeats), measured_s,
              static_cast<unsigned long long>(mismatches));
  std::printf("INFO build %s, compiler %s, %u hardware threads\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, std::thread::hardware_concurrency());
  for (const std::string& note : bench->Notes()) {
    std::printf("INFO %s\n", note.c_str());
  }

  for (const Metric& m : bench->SimMetrics()) {
    PrintMetric(m.name, m.value, m.unit);
  }
  if (args.trace) {
    PrintLayerMetrics(*bench, trace, recs);
    if (!args.spans_out.empty() && !trace.WriteChromeTrace(args.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
      return 1;
    }
  } else {
    // Host cost of one pass: per unit, the median of its runs.
    double host_s = 0.0;
    double model_mb = 0.0;
    for (const UnitRecord& r : recs) {
      host_s += Median(r.untraced_s);
      model_mb += r.first.model_mb;
    }
    PrintMetric("sim_mb_per_host_s", model_mb / host_s, "MB/s");
    PrintMetric("host_s_per_pass", host_s, "s");
    std::printf("INFO unit run seconds (first pass, then repeats):");
    for (const UnitRecord& r : recs) {
      for (const double s : r.untraced_s) {
        std::printf(" %.3f", s);
      }
      std::printf(" |");
    }
    std::printf("\n");
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  PrintMetric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  std::printf("TALLY %llu %llu\n", static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto entry = std::chrono::steady_clock::now();
  return perfbench::Run(perfbench::ParseArgs(argc, argv), entry);
}
