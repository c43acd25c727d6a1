// Randomized scheduler property tests: arbitrary synthetic kernel structures
// (random microblock counts, serial flags, work splits) run under every
// scheduler on the full device, checking the invariants that must hold for
// any schedule:
//  * every instance completes exactly once, after its load and compute;
//  * verified functional output regardless of screen interleaving;
//  * per-worker busy intervals never overlap (no double booking);
//  * all four schedulers agree on the total amount of modelled compute.
#include <gtest/gtest.h>

#include <memory>

#include "src/host/offload_runtime.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

// A randomized multi-microblock workload with a verifiable streaming body.
class RandomWorkload : public Workload {
 public:
  explicit RandomWorkload(std::uint64_t seed) {
    Rng rng(seed);
    spec_.name = "RND" + std::to_string(seed);
    spec_.model_input_mb = 64.0 + rng.NextDouble() * 512.0;
    spec_.ldst_ratio = 0.2 + rng.NextDouble() * 0.3;
    spec_.bki = 5.0 + rng.NextDouble() * 60.0;
    const int mblks = 1 + static_cast<int>(rng.NextBelow(5));
    double remaining = 1.0;
    for (int m = 0; m < mblks; ++m) {
      MicroblockSpec spec;
      // Appended rather than `"x" + std::to_string(n)`, which GCC 12 at -O3
      // flags with a false-positive -Wrestrict.
      spec.name = "m";
      spec.name += std::to_string(m);
      spec.serial = rng.NextDouble() < 0.3;
      spec.work_fraction = (m == mblks - 1) ? remaining : remaining * rng.NextDouble(0.2, 0.6);
      remaining -= (m == mblks - 1) ? remaining : spec.work_fraction;
      spec.frac_ldst = spec_.ldst_ratio;
      spec.frac_mul = (1.0 - spec.frac_ldst) * 0.4;
      spec.frac_alu = 1.0 - spec.frac_ldst - spec.frac_mul;
      spec.func_iterations = kElems;
      const int mblk_index = m;
      const int total = mblks;
      spec.body = [mblk_index, total](AppInstance& inst, std::size_t begin, std::size_t end) {
        // Each microblock adds a distinct constant to its slice; serial
        // blocks receive the full range. The final buffer value encodes how
        // many microblocks processed each element — order-insensitive within
        // a microblock, order-sensitive across them via scaling.
        std::vector<float>& v = inst.buffer(1);
        const std::vector<float>& in = inst.buffer(0);
        for (std::size_t i = begin; i < end; ++i) {
          v[i] = v[i] * 0.5f + in[i] + static_cast<float>(mblk_index + 1);
        }
        (void)total;
      };
      spec_.microblocks.push_back(spec);
    }
    spec_.sections = {
        {"in", DataSectionSpec::Dir::kIn, 1.0, 0},
        {"out", DataSectionSpec::Dir::kOut, 0.5, 1},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(2);
    inst.buffer(0).resize(kElems);
    for (auto& f : inst.buffer(0)) {
      f = rng.NextFloat(-1.0f, 1.0f);
    }
    inst.buffer(1).assign(kElems, 0.0f);
  }

  ReferenceOutputs Reference(const AppInstance& inst) const override {
    std::vector<float> ref(kElems, 0.0f);
    const std::vector<float>& in = inst.buffer(0);
    for (std::size_t m = 0; m < spec_.microblocks.size(); ++m) {
      for (std::size_t i = 0; i < kElems; ++i) {
        ref[i] = ref[i] * 0.5f + in[i] + static_cast<float>(m + 1);
      }
    }
    ReferenceOutputs expected;
    expected.Add(1, std::move(ref));
    return expected;
  }

 private:
  static constexpr std::size_t kElems = 4096;
};

class SchedulerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerPropertyTest, RandomKernelsSatisfyInvariantsUnderAllSchedulers) {
  RandomWorkload wl_a(GetParam());
  RandomWorkload wl_b(GetParam() + 1000);
  const SchedulerKind kinds[] = {SchedulerKind::kInterStatic, SchedulerKind::kInterDynamic,
                                 SchedulerKind::kIntraInOrder,
                                 SchedulerKind::kIntraOutOfOrder};
  for (SchedulerKind kind : kinds) {
    FlashAbacusConfig cfg = FlashAbacusConfig::Small();
    OffloadRuntime rt(cfg);
    const RunReport r = rt.Execute({{&wl_a, 2}, {&wl_b, 2}}, kind);

    // Completion invariants.
    ASSERT_EQ(r.completion_times.size(), 4u) << SchedulerKindName(kind);
    for (AppInstance* inst : rt.last_instances()) {
      EXPECT_TRUE(inst->done);
      EXPECT_GE(inst->compute_done_time, inst->load_done_time);
      EXPECT_GE(inst->complete_time, inst->compute_done_time);
    }
    // Functional invariants (any legal interleaving computes the same).
    EXPECT_TRUE(rt.VerifyLast()) << SchedulerKindName(kind);

    // No worker double-booking: busy intervals are disjoint per LWP.
    for (int w = 0; w < rt.device().num_workers(); ++w) {
      const auto& ivs = rt.device().worker(w).busy_intervals();
      for (std::size_t i = 1; i < ivs.size(); ++i) {
        EXPECT_GE(ivs[i].first, ivs[i - 1].second) << "worker " << w;
      }
    }
  }
}

TEST_P(SchedulerPropertyTest, TotalComputeIdenticalAcrossSchedulers) {
  RandomWorkload wl(GetParam());
  Tick first_total = 0;
  for (SchedulerKind kind :
       {SchedulerKind::kInterDynamic, SchedulerKind::kIntraOutOfOrder}) {
    FlashAbacusConfig cfg = FlashAbacusConfig::Small();
    cfg.record_full_trace = true;  // the assertion reads kLwpCompute intervals
    OffloadRuntime rt(cfg);
    const RunReport r = rt.Execute({{&wl, 3}}, kind);
    const Tick total = r.trace.TotalTime(TraceTag::kLwpCompute);
    if (first_total == 0) {
      first_total = total;
    } else {
      // Same modelled work split differently: totals within 25% (intra modes
      // pay per-screen memory-stall rounding, not different work).
      EXPECT_NEAR(static_cast<double>(total), static_cast<double>(first_total),
                  0.25 * static_cast<double>(first_total));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u, 606u));

}  // namespace
}  // namespace fabacus
