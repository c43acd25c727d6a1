// Functional tests for every workload: run the microblock bodies directly
// (in order, fully fanned out) and check against the reference
// implementation, which must also reject a wrong output; lock every output's
// bits to a recorded digest; check NearlyEqual against its scalar oracle;
// validate the Table-2 characteristics and mixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/workloads/tenant_mix.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

// Runs a kernel functionally: every microblock in order, each split into
// `fanout` screen slices executed sequentially (any order within a
// microblock must be valid).
void RunFunctionally(const Workload& wl, AppInstance* inst, int fanout) {
  for (int m = 0; m < wl.spec().num_microblocks(); ++m) {
    const MicroblockSpec& spec = wl.spec().microblocks[static_cast<std::size_t>(m)];
    const int screens = spec.serial ? 1 : fanout;
    for (int s = screens - 1; s >= 0; --s) {  // reverse order on purpose
      std::size_t begin = 0;
      std::size_t end = 0;
      ScreenFuncRange(*inst, m, s, screens, &begin, &end);
      if (spec.body) {
        spec.body(*inst, begin, end);
      }
    }
  }
}

// Runs `wl` functionally, then moves one element of each reference output
// buffer past the tolerance in turn: Verify() must accept the computed
// outputs and reject every perturbed one.
void ExpectVerifyRejectsPerturbedOutputs(const Workload& wl) {
  Rng rng(31);
  AppInstance inst(0, 0, &wl.spec(), 1.0 / 256);
  wl.Prepare(inst, rng);
  RunFunctionally(wl, &inst, 4);
  ASSERT_TRUE(wl.Verify(inst)) << wl.name();
  const ReferenceOutputs ref = wl.Reference(inst);
  ASSERT_FALSE(ref.outputs.empty()) << wl.name();
  for (const ReferenceOutputs::Output& out : ref.outputs) {
    std::vector<float>& buf = inst.buffer(out.buffer);
    ASSERT_FALSE(buf.empty()) << wl.name() << " buffer " << out.buffer;
    const std::size_t k = buf.size() / 2;
    const float original = buf[k];
    buf[k] = original + 10.0f * ref.rel_tol * std::max(std::fabs(original), 1.0f);
    EXPECT_FALSE(wl.Verify(inst)) << wl.name() << " buffer " << out.buffer;
    buf[k] = original;
  }
  EXPECT_TRUE(wl.Verify(inst)) << wl.name();
}

// FNV-1a over `bytes` bytes, continuing from `h`.
std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

// Prepares `wl` from a fixed seed, runs its bodies at fanout 6 and hashes
// every buffer, then every Reference output, lengths and indices included.
std::uint64_t OutputDigest(const Workload& wl) {
  Rng rng(2024);
  AppInstance inst(0, 0, &wl.spec(), 1.0 / 256);
  wl.Prepare(inst, rng);
  RunFunctionally(wl, &inst, 6);
  std::uint64_t h = 14695981039346656037ull;
  auto add = [&h](const std::vector<float>& v) {
    const std::uint64_t n = v.size();
    h = Fnv1a(h, &n, sizeof(n));
    h = Fnv1a(h, v.data(), v.size() * sizeof(float));
  };
  for (const std::vector<float>& buf : inst.buffers()) {
    add(buf);
  }
  for (const ReferenceOutputs::Output& out : wl.Reference(inst).outputs) {
    h = Fnv1a(h, &out.buffer, sizeof(out.buffer));
    add(out.expected);
  }
  return h;
}

// Bodies and references may reorder loops, but every output element must sum
// the same products in the same order, so these digests never change. A
// change that reassociates a sum fails here even when Verify()'s tolerance
// would pass it. BICG and MVT share a digest legitimately: they make the same
// draws and compute the same A·v and Aᵀ·w products in the same order.
void ExpectRecordedDigest(const Workload& wl) {
  static const std::map<std::string, std::uint64_t> kDigests = {
      {"ATAX", 0x3dfcb14023fc4f45ull},
      {"BICG", 0x1cd4ea53e75c661bull},
      {"2DCON", 0xf0265270543476f7ull},
      {"MVT", 0x1cd4ea53e75c661bull},
      {"ADI", 0x8b10a4cd2dfe4d25ull},
      {"FDTD", 0xccfdae0a14710807ull},
      {"GESUM", 0x2f12b30d223f20ceull},
      {"SYRK", 0xd6f0731d4a0ef6f0ull},
      {"3MM", 0xd8b3846ca8e1a863ull},
      {"COVAR", 0x43cae96857efb17aull},
      {"GEMM", 0x09540c9cff9641a5ull},
      {"2MM", 0xf8d82724dce0bb9dull},
      {"SYR2K", 0xc17daa00acfaa409ull},
      {"CORR", 0x4038b8364643d2c3ull},
      {"bfs", 0x22cea07562f277fcull},
      {"wc", 0x5dfdc82a96877d51ull},
      {"nn", 0xcf9344eb4a5186deull},
      {"nw", 0xcfcf0f10ab927cfbull},
      {"path", 0x47518e7a9481f55full},
      {"SYN50", 0x26e6b632fe77ea07ull},
      {"BULLY", 0x685dc9b6fa687357ull},
      {"PROBE", 0x55f0902c3e71e83bull},
  };
  const std::uint64_t digest = OutputDigest(wl);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llxull", static_cast<unsigned long long>(digest));
  const auto it = kDigests.find(wl.name());
  ASSERT_NE(it, kDigests.end()) << "no recorded digest for " << wl.name() << ": " << hex;
  EXPECT_EQ(it->second, digest) << wl.name() << " computes " << hex;
}

class WorkloadFunctionalTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadFunctionalTest, BodiesMatchReference) {
  const Workload* wl = WorkloadRegistry::Get().Find(GetParam());
  ASSERT_NE(wl, nullptr);
  Rng rng(2024);
  AppInstance inst(0, 0, &wl->spec(), 1.0 / 256);
  wl->Prepare(inst, rng);
  RunFunctionally(*wl, &inst, 6);
  EXPECT_TRUE(wl->Verify(inst));
}

TEST_P(WorkloadFunctionalTest, ScreenSplitInvariantToFanout) {
  // The same kernel computed with 1, 3 and 8 screens per microblock must
  // produce byte-identical buffers (screens are data-independent by
  // construction).
  const Workload* wl = WorkloadRegistry::Get().Find(GetParam());
  ASSERT_NE(wl, nullptr);
  std::vector<std::vector<float>> unsplit;
  for (int fanout : {1, 3, 8}) {
    Rng rng(77);
    AppInstance inst(0, 0, &wl->spec(), 1.0 / 256);
    wl->Prepare(inst, rng);
    RunFunctionally(*wl, &inst, fanout);
    EXPECT_TRUE(wl->Verify(inst)) << "fanout " << fanout;
    if (fanout == 1) {
      unsplit = inst.buffers();
      continue;
    }
    ASSERT_EQ(inst.buffers().size(), unsplit.size()) << "fanout " << fanout;
    for (std::size_t b = 0; b < unsplit.size(); ++b) {
      const std::vector<float>& buf = inst.buffers()[b];
      ASSERT_EQ(buf.size(), unsplit[b].size()) << "fanout " << fanout << " buffer " << b;
      EXPECT_TRUE(buf.empty() ||
                  std::memcmp(buf.data(), unsplit[b].data(), buf.size() * sizeof(float)) == 0)
          << "fanout " << fanout << " buffer " << b;
    }
  }
}

TEST_P(WorkloadFunctionalTest, OutputsMatchRecordedDigest) {
  const Workload* wl = WorkloadRegistry::Get().Find(GetParam());
  ASSERT_NE(wl, nullptr);
  ExpectRecordedDigest(*wl);
}

TEST_P(WorkloadFunctionalTest, VerifyRejectsPerturbedOutputs) {
  const Workload* wl = WorkloadRegistry::Get().Find(GetParam());
  ASSERT_NE(wl, nullptr);
  ExpectVerifyRejectsPerturbedOutputs(*wl);
}

std::vector<std::string> AllWorkloadNames() {
  std::vector<std::string> names;
  for (const Workload* wl : WorkloadRegistry::Get().all()) {
    names.push_back(wl->name());
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadFunctionalTest,
                         ::testing::ValuesIn(AllWorkloadNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(WorkloadRegistry, Table2CharacteristicsMatchPaper) {
  struct Expected {
    const char* name;
    int mblks;
    int serial;
    double input_mb;
    double ldst_pct;
    double bki;
  };
  // Table 2, verbatim.
  const Expected table[] = {
      {"ATAX", 2, 1, 640, 45.61, 68.86}, {"BICG", 2, 1, 640, 46.0, 72.3},
      {"2DCON", 1, 0, 640, 23.96, 35.59}, {"MVT", 1, 0, 640, 45.1, 72.05},
      {"ADI", 3, 1, 1920, 23.96, 35.59}, {"FDTD", 3, 1, 1920, 27.27, 38.52},
      {"GESUM", 1, 0, 640, 48.08, 72.13}, {"SYRK", 1, 0, 1280, 28.21, 5.29},
      {"3MM", 3, 1, 2560, 33.68, 2.48},  {"COVAR", 3, 1, 640, 34.33, 2.86},
      {"GEMM", 1, 0, 192, 30.77, 5.29},  {"2MM", 2, 1, 2560, 33.33, 3.76},
      {"SYR2K", 1, 0, 1280, 30.19, 1.85}, {"CORR", 4, 1, 640, 33.04, 2.79},
  };
  for (const Expected& e : table) {
    const Workload* wl = WorkloadRegistry::Get().Find(e.name);
    ASSERT_NE(wl, nullptr) << e.name;
    const KernelSpec& s = wl->spec();
    EXPECT_EQ(s.num_microblocks(), e.mblks) << e.name;
    EXPECT_EQ(s.num_serial_microblocks(), e.serial) << e.name;
    EXPECT_DOUBLE_EQ(s.model_input_mb, e.input_mb) << e.name;
    EXPECT_NEAR(s.ldst_ratio * 100.0, e.ldst_pct, 0.01) << e.name;
    EXPECT_NEAR(s.bki, e.bki, 0.01) << e.name;
  }
}

TEST(WorkloadRegistry, WorkFractionsSumToOne) {
  for (const Workload* wl : WorkloadRegistry::Get().all()) {
    double sum = 0.0;
    for (const MicroblockSpec& m : wl->spec().microblocks) {
      sum += m.work_fraction;
      EXPECT_GT(m.func_iterations, 0u) << wl->name() << "/" << m.name;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << wl->name();
  }
}

TEST(WorkloadRegistry, InstructionMixesAreDistributions) {
  for (const Workload* wl : WorkloadRegistry::Get().all()) {
    for (const MicroblockSpec& m : wl->spec().microblocks) {
      EXPECT_NEAR(m.frac_ldst + m.frac_mul + m.frac_alu, 1.0, 1e-9)
          << wl->name() << "/" << m.name;
      EXPECT_GE(m.frac_ldst, 0.0);
      EXPECT_GE(m.frac_mul, 0.0);
      EXPECT_GE(m.frac_alu, 0.0);
    }
  }
}

TEST(WorkloadRegistry, GraphWorkloadSerialStructureMatchesPaper) {
  // §5.6: bfs and nn have serial microblocks; nw and path do not.
  EXPECT_GT(WorkloadRegistry::Get().Find("bfs")->spec().num_serial_microblocks(), 0);
  EXPECT_GT(WorkloadRegistry::Get().Find("nn")->spec().num_serial_microblocks(), 0);
  EXPECT_EQ(WorkloadRegistry::Get().Find("nw")->spec().num_serial_microblocks(), 0);
  EXPECT_EQ(WorkloadRegistry::Get().Find("path")->spec().num_serial_microblocks(), 0);
}

TEST(WorkloadRegistry, MixesHaveSixDistinctApps) {
  for (int m = 1; m <= WorkloadRegistry::kNumMixes; ++m) {
    const auto mix = WorkloadRegistry::Get().Mix(m);
    EXPECT_EQ(mix.size(), 6u);
    for (std::size_t i = 0; i < mix.size(); ++i) {
      for (std::size_t j = i + 1; j < mix.size(); ++j) {
        EXPECT_NE(mix[i], mix[j]) << "MX" << m;
      }
    }
  }
}

TEST(WorkloadRegistry, Mx1StartsWithFourDataIntensiveApps) {
  // Fig 12b describes MX1 as four data-intensive kernels followed by two
  // compute-intensive ones.
  const auto mix = WorkloadRegistry::Get().Mix(1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(mix[static_cast<std::size_t>(i)]->compute_intensive());
  }
  EXPECT_TRUE(mix[4]->compute_intensive());
  EXPECT_TRUE(mix[5]->compute_intensive());
}

TEST(SyntheticWorkload, SerialRatioShapesMicroblocks) {
  auto half = MakeSynthetic(0.5);
  EXPECT_EQ(half->spec().num_microblocks(), 2);
  EXPECT_EQ(half->spec().num_serial_microblocks(), 1);
  auto none = MakeSynthetic(0.0);
  EXPECT_EQ(none->spec().num_microblocks(), 1);
  EXPECT_EQ(none->spec().num_serial_microblocks(), 0);
  auto all = MakeSynthetic(1.0);
  EXPECT_EQ(all->spec().num_microblocks(), 1);
  EXPECT_EQ(all->spec().num_serial_microblocks(), 1);
}

TEST(SyntheticWorkload, VerifiesAtEveryRatio) {
  for (double ratio : {0.0, 0.3, 0.5, 1.0}) {
    auto syn = MakeSynthetic(ratio);
    Rng rng(5);
    AppInstance inst(0, 0, &syn->spec(), 1.0 / 256);
    syn->Prepare(inst, rng);
    RunFunctionally(*syn, &inst, 4);
    EXPECT_TRUE(syn->Verify(inst)) << "ratio " << ratio;
  }
}

TEST(SyntheticWorkload, VerifyRejectsPerturbedOutputs) {
  ExpectVerifyRejectsPerturbedOutputs(*MakeSynthetic(0.5));
}

TEST(SyntheticWorkload, OutputsMatchRecordedDigest) {
  ExpectRecordedDigest(*MakeSynthetic(0.5));
}

TEST(TenantMixWorkloads, OutputsMatchRecordedDigest) {
  ExpectRecordedDigest(*MakeBullyWriter());
  ExpectRecordedDigest(*MakeLatencyProbe());
}

TEST(TenantMixWorkloads, VerifyRejectsPerturbedOutputs) {
  ExpectVerifyRejectsPerturbedOutputs(*MakeBullyWriter());
  ExpectVerifyRejectsPerturbedOutputs(*MakeLatencyProbe());
}

// The scalar NearlyEqual predicate that the branch-free one replaced, kept as
// its oracle: |a - b| > rel_tol * max(|a|, |b|, 1) rejects.
bool MaxScaledNearlyEqual(const std::vector<float>& a, const std::vector<float>& b,
                          float rel_tol) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float diff = std::fabs(a[i] - b[i]);
    const float scale = std::max({std::fabs(a[i]), std::fabs(b[i]), 1.0f});
    if (diff > rel_tol * scale) {
      return false;
    }
  }
  return true;
}

float FloatFromBits(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

// Checks the pair alone (the loop's scalar tail) and among equal elements
// (its vectorized body).
void ExpectAgreesWithOracle(float a, float b, float rel_tol) {
  const bool expected = MaxScaledNearlyEqual({a}, {b}, rel_tol);
  EXPECT_EQ(NearlyEqual({a}, {b}, rel_tol), expected)
      << "a=" << a << " b=" << b << " rel_tol=" << rel_tol;
  std::vector<float> va(16, 0.5f);
  std::vector<float> vb(16, 0.5f);
  va[5] = a;
  vb[5] = b;
  EXPECT_EQ(NearlyEqual(va, vb, rel_tol), expected)
      << "a=" << a << " b=" << b << " rel_tol=" << rel_tol << " in a vector";
}

constexpr float kOracleTolerances[] = {1e-4f, 5e-4f, 1e-6f, 0.25f};

TEST(NearlyEqual, AgreesWithOracleOnSpecialValues) {
  for (float tol : kOracleTolerances) {
    // Signed zeros, denormals, the normal range, FLT_MAX, infinities, NaNs.
    std::vector<float> values = {
        0.0f,    -0.0f,    FLT_TRUE_MIN, -FLT_TRUE_MIN, FLT_MIN / 3.0f, -FLT_MIN / 3.0f,
        FLT_MIN, -FLT_MIN, FLT_EPSILON,  1.0f,          -1.0f,          2.0f,
        1e6f,    -1e6f,    FLT_MAX,      -FLT_MAX,      HUGE_VALF,      -HUGE_VALF,
        NAN,     -NAN,     tol,          -tol};
    // Pairs exactly at, just inside and just past the tolerance, in the
    // unit-scaled (|x| <= 1) and value-scaled ranges.
    for (float base : {0.0f, 0.5f, 1.0f, 3.0f, 1024.0f, -77.0f, 1e30f}) {
      const float bound = tol * std::max(std::fabs(base), 1.0f);
      for (float off : {bound, std::nextafter(bound, 0.0f), std::nextafter(bound, HUGE_VALF)}) {
        values.push_back(base + off);
        values.push_back(base - off);
        values.push_back(base);
      }
    }
    for (float a : values) {
      for (float b : values) {
        ExpectAgreesWithOracle(a, b, tol);
      }
    }
  }
}

TEST(NearlyEqual, AgreesWithOracleOnSeededRandomPairs) {
  Rng rng(4242);
  for (int n = 0; n < 200000; ++n) {
    const float tol = kOracleTolerances[rng.NextBelow(4)];
    const std::uint64_t bits = rng.Next();
    // Random bit patterns (every class: denormal, inf, NaN), then
    // near-equal pairs straddling the tolerance.
    ExpectAgreesWithOracle(FloatFromBits(static_cast<std::uint32_t>(bits)),
                           FloatFromBits(static_cast<std::uint32_t>(bits >> 32)), tol);
    const int exponent = static_cast<int>(rng.NextBelow(40)) - 20;
    const float a = std::ldexp(rng.NextFloat(-4.0f, 4.0f), exponent);
    const float rel = static_cast<float>(rng.NextDouble(0.0, 2.0)) * tol;
    ExpectAgreesWithOracle(a, a + rel * std::max(std::fabs(a), 1.0f), tol);
    if (HasFailure()) {
      return;
    }
  }
}

TEST(NearlyEqual, RejectsOneBadElementAtAnyPosition) {
  // One element past the tolerance anywhere in a vector (vector body or
  // remainder) rejects it; a size mismatch rejects too.
  const std::vector<float> ref(37, 1.0f);
  EXPECT_TRUE(NearlyEqual(ref, ref));
  for (std::size_t k = 0; k < ref.size(); ++k) {
    std::vector<float> out = ref;
    out[k] = 1.01f;
    EXPECT_FALSE(NearlyEqual(out, ref)) << "position " << k;
  }
  EXPECT_FALSE(NearlyEqual(ref, std::vector<float>(36, 1.0f)));
}

}  // namespace
}  // namespace fabacus
