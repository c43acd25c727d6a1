// End-to-end tests: workloads executed on the full FlashAbacus device under
// all four schedulers, with functional verification against references,
// flash round-trip checks, and observability-layer consistency (metrics
// snapshot coverage, report JSON, Chrome-trace export).
#include <algorithm>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "src/sim/json.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

TEST(E2eFlashAbacus, AtaxIntraO3ProducesCorrectOutput) {
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  ASSERT_NE(wl, nullptr);
  E2eOutcome out = RunOnFlashAbacus(*wl, 1, SchedulerKind::kIntraOutOfOrder);
  ASSERT_TRUE(out.install_done);
  ASSERT_TRUE(out.run_done);
  EXPECT_GT(out.result.makespan, 0u);
  EXPECT_GT(out.result.throughput_mb_s, 0.0);
  EXPECT_TRUE(wl->Verify(*out.instances[0]));
}

class AllSchedulersTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(AllSchedulersTest, AtaxSixInstancesVerify) {
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  E2eOutcome out = RunOnFlashAbacus(*wl, 6, GetParam());
  ASSERT_TRUE(out.run_done);
  EXPECT_EQ(out.result.completion_times.size(), 6u);
  for (const auto& inst : out.instances) {
    EXPECT_TRUE(wl->Verify(*inst)) << "instance " << inst->instance_id();
    EXPECT_TRUE(inst->done);
    EXPECT_GE(inst->complete_time, inst->load_done_time);
  }
}

TEST_P(AllSchedulersTest, FdtdVerifiesUnderEveryScheduler) {
  const Workload* wl = WorkloadRegistry::Get().Find("FDTD");
  E2eOutcome out = RunOnFlashAbacus(*wl, 2, GetParam());
  ASSERT_TRUE(out.run_done);
  for (const auto& inst : out.instances) {
    EXPECT_TRUE(wl->Verify(*inst));
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, AllSchedulersTest,
                         ::testing::Values(SchedulerKind::kInterStatic,
                                           SchedulerKind::kInterDynamic,
                                           SchedulerKind::kIntraInOrder,
                                           SchedulerKind::kIntraOutOfOrder),
                         [](const ::testing::TestParamInfo<SchedulerKind>& info) {
                           return SchedulerKindName(info.param);
                         });

TEST(E2eFlashAbacus, DynamicBeatsStaticOnHomogeneousInstances) {
  // Six instances of one app all map to a single LWP under InterSt (same app
  // id), so InterDy must be substantially faster (paper Fig 10a).
  const Workload* wl = WorkloadRegistry::Get().Find("GESUM");
  E2eOutcome st = RunOnFlashAbacus(*wl, 6, SchedulerKind::kInterStatic);
  E2eOutcome dy = RunOnFlashAbacus(*wl, 6, SchedulerKind::kInterDynamic);
  ASSERT_TRUE(st.run_done && dy.run_done);
  EXPECT_GT(st.result.makespan, dy.result.makespan * 3 / 2);
}

TEST(E2eFlashAbacus, IntraO3NotSlowerThanIntraIoWithSerialMblks) {
  // ATAX has a serial microblock; O3 borrows screens across instances while
  // IntraIo's global in-order barrier idles workers.
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  E2eOutcome io = RunOnFlashAbacus(*wl, 6, SchedulerKind::kIntraInOrder);
  E2eOutcome o3 = RunOnFlashAbacus(*wl, 6, SchedulerKind::kIntraOutOfOrder);
  ASSERT_TRUE(io.run_done && o3.run_done);
  EXPECT_LE(o3.result.makespan, io.result.makespan);
}

TEST(E2eFlashAbacus, OutputSectionRoundTripsThroughFlash) {
  const Workload* wl = WorkloadRegistry::Get().Find("2DCON");
  Simulator sim;
  FlashAbacusConfig cfg = TestDeviceConfig();
  FlashAbacus dev(&sim, cfg);
  Rng rng(1);
  AppInstance inst(0, 0, &wl->spec(), cfg.model_scale);
  wl->Prepare(inst, rng);
  dev.InstallData(&inst, [](Tick) {});
  sim.Run();
  bool done = false;
  dev.Run({&inst}, SchedulerKind::kIntraOutOfOrder, [&](RunReport) { done = true; });
  sim.Run();
  ASSERT_TRUE(done);
  // Output section index 1 = img_out; its flash contents must equal the
  // buffer the kernel produced (the writeback drained during sim.Run()).
  std::vector<float> from_flash;
  bool read_done = false;
  dev.ReadSectionFromFlash(&inst, 1, &from_flash, [&](Tick) { read_done = true; });
  sim.Run();
  ASSERT_TRUE(read_done);
  EXPECT_EQ(from_flash.size(), inst.buffer(1).size());
  EXPECT_TRUE(NearlyEqual(from_flash, inst.buffer(1)));
}

TEST(E2eFlashAbacus, WorkerUtilizationHigherForDynamicThanStatic) {
  const Workload* wl = WorkloadRegistry::Get().Find("GESUM");
  E2eOutcome st = RunOnFlashAbacus(*wl, 6, SchedulerKind::kInterStatic);
  E2eOutcome dy = RunOnFlashAbacus(*wl, 6, SchedulerKind::kInterDynamic);
  EXPECT_GT(dy.result.worker_utilization, st.result.worker_utilization);
}

// Every registered workload must execute and verify on the real device (the
// functional data path: flash install -> streamed load -> screens -> flash
// writeback), under the out-of-order scheduler.
class AllWorkloadsOnDeviceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllWorkloadsOnDeviceTest, TwoInstancesVerifyUnderIntraO3) {
  const Workload* wl = WorkloadRegistry::Get().Find(GetParam());
  ASSERT_NE(wl, nullptr);
  E2eOutcome out = RunOnFlashAbacus(*wl, 2, SchedulerKind::kIntraOutOfOrder);
  ASSERT_TRUE(out.run_done);
  for (const auto& inst : out.instances) {
    EXPECT_TRUE(wl->Verify(*inst)) << wl->name();
  }
}

// Kernels compute on the bytes flash delivers, not on what the host prepared:
// after install every input buffer is overwritten with a sentinel, so a screen
// whose body ran before its streamed input landed computes on the sentinel and
// fails verification. Small() at its own scale and Paper() at 1/16 both stream
// each input as a head plus tail chunks; every scheduler runs.
TEST_P(AllWorkloadsOnDeviceTest, BodiesRunOnlyOnLandedInputBytes) {
  const Workload* wl = WorkloadRegistry::Get().Find(GetParam());
  ASSERT_NE(wl, nullptr);
  const auto clobber_inputs = [wl](AppInstance& inst) {
    for (const DataSectionSpec& sec : wl->spec().sections) {
      if (sec.dir == DataSectionSpec::Dir::kIn && sec.buffer_index >= 0) {
        std::vector<float>& buf = inst.buffer(sec.buffer_index);
        std::fill(buf.begin(), buf.end(), 12345.0f);
      }
    }
  };
  FlashAbacusConfig paper = FlashAbacusConfig::Paper();
  paper.model_scale = 1.0 / 16;
  const std::pair<const char*, FlashAbacusConfig> presets[] = {
      {"Small", FlashAbacusConfig::Small()}, {"Paper", paper}};
  for (const auto& [preset, cfg] : presets) {
    for (SchedulerKind kind :
         {SchedulerKind::kInterStatic, SchedulerKind::kInterDynamic,
          SchedulerKind::kIntraInOrder, SchedulerKind::kIntraOutOfOrder}) {
      E2eOutcome out = RunOnFlashAbacus(*wl, 1, kind, cfg, 42, clobber_inputs);
      ASSERT_TRUE(out.run_done) << preset << " " << SchedulerKindName(kind);
      for (const auto& inst : out.instances) {
        EXPECT_TRUE(wl->Verify(*inst)) << preset << " " << SchedulerKindName(kind)
                                       << " instance " << inst->instance_id();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, AllWorkloadsOnDeviceTest, ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const Workload* wl : WorkloadRegistry::Get().all()) {
        names.push_back(wl->name());
      }
      return names;
    }()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string n = info.param;
      for (char& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return n;
    });

TEST(E2eFlashAbacus, MetricsSnapshotCoversEveryComponent) {
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  E2eOutcome out = RunOnFlashAbacus(*wl, 2, SchedulerKind::kIntraOutOfOrder);
  ASSERT_TRUE(out.run_done);
  const MetricsSnapshot& m = out.result.metrics;
  // At least one populated counter per component family of the device.
  EXPECT_GT(m.Value("lwp/2/screens_executed"), 0.0);
  EXPECT_GT(m.Value("flashvisor/reads_served"), 0.0);
  EXPECT_GT(m.Value("flash/reads"), 0.0);
  EXPECT_GT(m.Value("flash/ch0/tag_acquires"), 0.0);
  EXPECT_GT(m.Value("dram/accesses"), 0.0);
  EXPECT_TRUE(m.Has("storengine/gc_passes"));
  EXPECT_TRUE(m.Has("scratchpad/accesses"));
  EXPECT_TRUE(m.Has("noc/tier1/transfers"));
  EXPECT_TRUE(m.Has("pcie/transfers"));
}

TEST(E2eFlashAbacus, ReportJsonParsesWithSchemaVersion) {
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  E2eOutcome out = RunOnFlashAbacus(*wl, 2, SchedulerKind::kIntraOutOfOrder);
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson(out.result.ToJson(), &v, &err)) << err;
  EXPECT_DOUBLE_EQ(v["schema_version"].num_v, kJsonSchemaVersion);
  EXPECT_EQ(v["system"].str_v, "IntraO3");
  EXPECT_GT(v["makespan_ns"].num_v, 0.0);
  EXPECT_GT(v["metrics"]["flashvisor/reads_served"].num_v, 0.0);
  ASSERT_TRUE(v["trace_summary"].is_object());
  EXPECT_GT(v["trace_summary"]["lwp_compute"]["union_ns"].num_v, 0.0);
}

TEST(E2eFlashAbacus, ChromeTraceRoundTripsAndMatchesTraceAggregates) {
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  E2eOutcome out = RunOnFlashAbacus(*wl, 2, SchedulerKind::kIntraOutOfOrder);
  ASSERT_TRUE(out.run_done);
  const std::string json = out.result.trace.ToChromeTrace();
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson(json, &v, &err)) << err;
  ASSERT_TRUE(v["traceEvents"].is_array());
  ASSERT_FALSE(v["traceEvents"].array_v.empty());

  // Sum of "X" event durations per pid (= tag) must reproduce the trace's
  // per-tag TotalTime; timestamps are microseconds.
  std::map<int, double> dur_us;
  std::size_t x_events = 0;
  for (const JsonValue& ev : v["traceEvents"].array_v) {
    if (ev["ph"].str_v == "X") {
      dur_us[static_cast<int>(ev["pid"].num_v)] += ev["dur"].num_v;
      ++x_events;
    } else {
      EXPECT_EQ(ev["ph"].str_v, "M");  // only metadata besides complete events
    }
  }
  EXPECT_EQ(x_events, out.result.trace.intervals().size());
  for (const auto& [pid, us] : dur_us) {
    const TraceTag tag = static_cast<TraceTag>(pid);
    const double want_us = static_cast<double>(out.result.trace.TotalTime(tag)) / 1e3;
    EXPECT_NEAR(us, want_us, 1e-6 * want_us + 1.0) << TraceTagName(tag);
  }
  // The per-LWP rows cover the compute tag: every kLwpCompute interval landed
  // on a worker's track (LWP ids 2.. on FlashAbacus).
  for (const TaggedInterval& iv : out.result.trace.intervals()) {
    if (iv.tag == TraceTag::kLwpCompute) {
      EXPECT_GE(iv.track, 2);
    }
  }
}

TEST(E2eFlashAbacus, EnergyDecompositionIsPopulated) {
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  E2eOutcome out = RunOnFlashAbacus(*wl, 2, SchedulerKind::kIntraOutOfOrder);
  EXPECT_GT(out.result.EnergySummary().computation_j, 0.0);
  EXPECT_GT(out.result.EnergySummary().storage_access_j, 0.0);
  EXPECT_GT(out.result.EnergySummary().total_j, out.result.EnergySummary().computation_j);
}

}  // namespace
}  // namespace fabacus
