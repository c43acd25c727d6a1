// Workload registry: the 14 PolyBench applications of Table 2, the five
// graph/bigdata applications of §5.6, and the synthetic serial-fraction
// kernel of §3.1. Every workload carries
//  * the Table-2 model parameters (input MB, LD/ST ratio, B/KI, microblock
//    structure with serial flags) driving the timing model, and
//  * a functional implementation: Prepare() fills real input buffers,
//    microblock bodies compute real outputs, Reference() recomputes them with
//    an independent reference implementation and Verify() compares the two.
//
// Bodies and references may reorder their loops (to make the innermost loop
// unit-stride, say), but every output element must sum the same products in
// the same order, so outputs stay bit-identical. Verify()'s tolerance would
// accept a reassociated sum; WorkloadFunctionalTest.OutputsMatchRecordedDigest
// (tests/workloads_test.cc) does not.
#ifndef SRC_WORKLOADS_WORKLOAD_H_
#define SRC_WORKLOADS_WORKLOAD_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/kernel.h"
#include "src/sim/rng.h"

namespace fabacus {

// The outputs a kernel must produce for one instance's inputs, as computed by
// a workload's reference implementation.
struct ReferenceOutputs {
  struct Output {
    int buffer = -1;              // index into AppInstance::buffers()
    std::vector<float> expected;  // its expected contents
  };
  std::vector<Output> outputs;
  float rel_tol = 1e-4f;

  // Moves `expected` in as buffer `buffer`'s expected contents.
  void Add(int buffer, std::vector<float> expected) {
    outputs.push_back({buffer, std::move(expected)});
  }

  // True when every listed buffer of `inst` is NearlyEqual to its expected
  // contents within rel_tol.
  bool Matches(const AppInstance& inst) const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  const KernelSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  // Sizes the instance's functional buffers and fills the inputs
  // deterministically from `rng`. Outputs are zeroed.
  virtual void Prepare(AppInstance& inst, Rng& rng) const = 0;

  // Recomputes the kernel's outputs with a reference implementation from the
  // instance's (unmodified) input buffers. The result depends only on what
  // Prepare() drew (ADI's on an intermediate its kernel derives from that),
  // so one result serves every run of the same prepared inputs.
  virtual ReferenceOutputs Reference(const AppInstance& inst) const = 0;

  // Checks the instance's outputs against Reference(inst).
  bool Verify(const AppInstance& inst) const { return Reference(inst).Matches(inst); }

  // True for the compute-intensive group (B/KI below ~10, Fig 10a split).
  bool compute_intensive() const { return spec_.bki < 10.0; }

 protected:
  KernelSpec spec_;
};

// Approximate float comparison behind ReferenceOutputs::Matches().
bool NearlyEqual(const std::vector<float>& a, const std::vector<float>& b,
                 float rel_tol = 1e-4f);

class WorkloadRegistry {
 public:
  static const WorkloadRegistry& Get();

  const Workload* Find(const std::string& name) const;
  // Table-2 order: ATAX BICG 2DCONV MVT ADI FDTD GESUM SYRK 3MM COVAR GEMM
  // 2MM SYR2K CORR.
  const std::vector<const Workload*>& polybench() const { return polybench_; }
  // §5.6 order: bfs wc nn nw path.
  const std::vector<const Workload*>& graph() const { return graph_; }
  const std::vector<const Workload*>& all() const { return all_; }

  // Heterogeneous workload MXi (1-based, Table 2 right half): six apps each.
  // Exact mix membership is not recoverable from the paper text; these mixes
  // follow its constraints (see DESIGN.md).
  std::vector<const Workload*> Mix(int i) const;
  static constexpr int kNumMixes = 14;

 private:
  WorkloadRegistry();
  std::vector<std::unique_ptr<Workload>> owned_;
  std::vector<const Workload*> polybench_;
  std::vector<const Workload*> graph_;
  std::vector<const Workload*> all_;
};

// Factories (one translation unit per application).
std::unique_ptr<Workload> MakeAtax();
std::unique_ptr<Workload> MakeBicg();
std::unique_ptr<Workload> MakeConv2d();
std::unique_ptr<Workload> MakeMvt();
std::unique_ptr<Workload> MakeAdi();
std::unique_ptr<Workload> MakeFdtd();
std::unique_ptr<Workload> MakeGesummv();
std::unique_ptr<Workload> MakeSyrk();
std::unique_ptr<Workload> Make3mm();
std::unique_ptr<Workload> MakeCovar();
std::unique_ptr<Workload> MakeGemm();
std::unique_ptr<Workload> Make2mm();
std::unique_ptr<Workload> MakeSyr2k();
std::unique_ptr<Workload> MakeCorr();
std::unique_ptr<Workload> MakeBfs();
std::unique_ptr<Workload> MakeWordcount();
std::unique_ptr<Workload> MakeNn();
std::unique_ptr<Workload> MakeNw();
std::unique_ptr<Workload> MakePathfinder();

// Synthetic kernel for the Fig-3 motivation study: `serial_ratio` of the
// modelled work sits in a serial microblock. When `io_free` is true the
// kernel declares no flash/file data sections (its data is assumed resident
// in accelerator DRAM) — used for the pure compute-scaling sweep of Fig 3b/c.
std::unique_ptr<Workload> MakeSynthetic(double serial_ratio, double input_mb = 640.0,
                                        bool io_free = false);

}  // namespace fabacus

#endif  // SRC_WORKLOADS_WORKLOAD_H_
