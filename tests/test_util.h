// Shared helpers for the FlashAbacus test suite.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/core/flashabacus.h"
#include "src/core/kernel.h"
#include "src/host/simd_system.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/workloads/workload.h"

namespace fabacus {

// A miniature flash geometry so FTL edge paths (GC, sealing, watermarks) are
// reachable in milliseconds of simulated time.
inline NandConfig TinyNand() {
  NandConfig cfg;
  cfg.blocks_per_plane = 8;
  cfg.pages_per_block = 16;
  return cfg;  // 4ch x 4pkg: 4*8=32 block groups, 16 groups each, 32 MB total
}

// Device config scaled for fast tests (the Small preset).
inline FlashAbacusConfig TestDeviceConfig() {
  FlashAbacusConfig cfg = FlashAbacusConfig::Small();
  // Tests assert on per-screen / per-channel trace contents (Chrome-trace
  // round trips, compute-time invariants), so keep the full trace on.
  cfg.record_full_trace = true;
  return cfg;
}

// Runs `workload` end to end on a fresh FlashAbacus device under `kind`.
// Returns the run result; `instances` receives the executed instances so the
// caller can Verify() them. `after_install`, when set, sees each instance
// between its install and the run.
struct E2eOutcome {
  RunReport result;
  std::vector<std::unique_ptr<AppInstance>> instances;
  bool install_done = false;
  bool run_done = false;
};

inline E2eOutcome RunOnFlashAbacus(const Workload& workload, int n_instances,
                                   SchedulerKind kind,
                                   FlashAbacusConfig cfg = TestDeviceConfig(),
                                   std::uint64_t seed = 42,
                                   const std::function<void(AppInstance&)>& after_install = {}) {
  Simulator sim;
  FlashAbacus dev(&sim, cfg);
  Rng rng(seed);
  E2eOutcome out;
  std::vector<AppInstance*> raw;
  int installs_pending = n_instances;
  for (int i = 0; i < n_instances; ++i) {
    auto inst = std::make_unique<AppInstance>(0, i, &workload.spec(), cfg.model_scale);
    workload.Prepare(*inst, rng);
    raw.push_back(inst.get());
    out.instances.push_back(std::move(inst));
  }
  for (AppInstance* inst : raw) {
    dev.InstallData(inst, [&](Tick) {
      if (--installs_pending == 0) {
        out.install_done = true;
      }
    });
  }
  sim.Run();
  if (after_install) {
    for (AppInstance* inst : raw) {
      after_install(*inst);
    }
  }
  dev.Run(raw, kind, [&](RunReport r) {
    out.result = std::move(r);
    out.run_done = true;
  });
  sim.Run();
  return out;
}

}  // namespace fabacus

#endif  // TESTS_TEST_UTIL_H_
