// google-benchmark microbenchmarks for the flash backbone: host-side cost of
// driving group reads/programs/erases (simulation bookkeeping throughput —
// how many device ops per wall-second the DES can push).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/flash/flash_backbone.h"

namespace fabacus {
namespace {

NandConfig BenchNand() {
  NandConfig cfg;
  cfg.blocks_per_plane = 128;
  cfg.pages_per_block = 64;
  return cfg;
}

void BM_ReadGroupTimingOnly(benchmark::State& state) {
  FlashBackbone bb(BenchNand());
  std::uint64_t g = 0;
  const std::uint64_t total = bb.config().TotalGroups();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bb.ReadGroup(0, g, nullptr).done);
    g = (g + 1) % total;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadGroupTimingOnly);

void BM_ReadGroupWithData(benchmark::State& state) {
  FlashBackbone bb(BenchNand());
  std::vector<std::uint8_t> buf(bb.config().GroupBytes());
  bb.ProgramGroup(0, 0, buf.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bb.ReadGroup(0, 0, buf.data()).done);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bb.config().GroupBytes()));
}
BENCHMARK(BM_ReadGroupWithData);

void BM_ProgramEraseCycle(benchmark::State& state) {
  FlashBackbone bb(BenchNand());
  const int pages = bb.config().pages_per_block;
  const int pkgs = bb.config().packages_per_channel;
  // Each cycle starts when the previous erase lands, as a device would see
  // it: the in-flight program list stays one block group deep.
  Tick now = 0;
  for (auto _ : state) {
    for (int p = 0; p < pages * pkgs; ++p) {
      // Block 1, all slots in flat order (page-major across packages).
      const std::uint64_t g = static_cast<std::uint64_t>(bb.config().pages_per_block) *
                                  pkgs +  // block 1 base
                              static_cast<std::uint64_t>(p);
      benchmark::DoNotOptimize(bb.ProgramGroup(now, g, nullptr).done);
    }
    now = bb.EraseBlockGroup(now, 1).done;
  }
  state.SetItemsProcessed(state.iterations() * (pages * pkgs + 1));
}
BENCHMARK(BM_ProgramEraseCycle);

// N programs issued at one tick, as an install does: none completes, so the
// in-flight list grows to N. Per-item time must not grow with N.
void BM_ProgramBacklog(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  NandConfig cfg = BenchNand();
  cfg.blocks_per_plane = 256;  // 64 Ki groups: room for the largest backlog
  std::unique_ptr<FlashBackbone> bb;
  for (auto _ : state) {
    state.PauseTiming();
    bb = std::make_unique<FlashBackbone>(cfg);  // the old one is freed untimed too
    state.ResumeTiming();
    for (std::uint64_t g = 0; g < n; ++g) {
      benchmark::DoNotOptimize(bb->ProgramGroup(0, g, nullptr).done);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ProgramBacklog)->RangeMultiplier(4)->Range(1 << 10, 1 << 16);

}  // namespace
}  // namespace fabacus

BENCHMARK_MAIN();
