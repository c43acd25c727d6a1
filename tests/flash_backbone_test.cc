// Tests for the flash backbone: geometry bijections, NAND program/erase
// discipline, timing composition, byte-accurate contents and reliability
// counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "src/flash/flash_backbone.h"
#include "src/flash/nand_config.h"
#include "src/mem/byte_store.h"
#include "src/noc/srio_link.h"
#include "src/sim/snapshot.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

std::vector<std::uint8_t> Saved(const Snapshottable& s) {
  StateWriter w;
  s.SaveState(w);
  return w.TakeBuffer();
}

void Restore(const Snapshottable& from, Snapshottable* to) {
  const std::vector<std::uint8_t> bytes = Saved(from);
  StateReader r(bytes);
  to->LoadState(r);
  EXPECT_TRUE(r.ok()) << r.error();
}

struct Program {
  std::uint64_t group;
  Tick done;
  bool operator==(const Program&) const = default;
};

// Decodes the in-flight program list from the backbone's SaveState bytes:
// SRIO link, byte store, OOB records, program sequence, block errors, then
// the list (count, then {group, done} in list order).
std::vector<Program> SavedInflight(const FlashBackbone& bb) {
  const std::vector<std::uint8_t> bytes = Saved(bb);
  StateReader r(bytes);
  SrioLink srio;
  srio.LoadState(r);
  ByteStore store(bb.config().GroupBytes());
  store.LoadState(r);
  const std::uint64_t oob = r.U64();
  for (std::uint64_t i = 0; i < oob; ++i) {
    r.U32();
    r.U64();
  }
  r.U64();
  r.VecU64();
  std::vector<Program> list(r.U64());
  for (Program& p : list) {
    p.group = r.U64();
    p.done = r.U64();
  }
  EXPECT_TRUE(r.ok()) << r.error();
  return list;
}

TEST(NandGeometry, GroupEncodeDecodeRoundTripsForAllGroups) {
  const NandConfig cfg = TinyNand();
  for (std::uint64_t g = 0; g < cfg.TotalGroups(); ++g) {
    const GroupAddress a = DecodeGroup(cfg, g);
    EXPECT_EQ(EncodeGroup(cfg, a), g);
    EXPECT_LT(a.package, cfg.packages_per_channel);
    EXPECT_LT(a.block, cfg.blocks_per_plane);
    EXPECT_LT(a.page, cfg.pages_per_block);
  }
}

TEST(NandGeometry, ConsecutiveGroupsInterleavePackages) {
  const NandConfig cfg = TinyNand();
  for (std::uint64_t g = 0; g + 1 < static_cast<std::uint64_t>(cfg.packages_per_channel);
       ++g) {
    EXPECT_NE(DecodeGroup(cfg, g).package, DecodeGroup(cfg, g + 1).package);
  }
}

TEST(NandGeometry, PaperScaleDerivedQuantities) {
  const NandConfig cfg;  // full-size defaults
  EXPECT_EQ(cfg.GroupBytes(), 64u * 1024);                    // 4 ch x 2 planes x 8 KB
  EXPECT_EQ(cfg.TotalBytes(), 32ULL << 30);                   // 32 GB
  EXPECT_EQ(cfg.TotalGroups() * 4, 2ULL << 20);               // 2 MB mapping table
}

TEST(NandPackage, ProgramRequiresInOrderPages) {
  const NandConfig cfg = TinyNand();
  NandPackage pkg(cfg, 0, 0);
  pkg.ProgramPages(0, 0, 0);
  pkg.ProgramPages(0, 0, 1);
  EXPECT_DEATH(pkg.ProgramPages(0, 0, 3), "out-of-order program");
}

TEST(NandPackage, ReprogramWithoutEraseDies) {
  const NandConfig cfg = TinyNand();
  NandPackage pkg(cfg, 0, 0);
  pkg.ProgramPages(0, 0, 0);
  EXPECT_DEATH(pkg.ProgramPages(0, 0, 0), "out-of-order program");
}

TEST(NandPackage, EraseResetsWritePointAndBumpsWear) {
  const NandConfig cfg = TinyNand();
  NandPackage pkg(cfg, 0, 0);
  pkg.ProgramPages(0, 3, 0);
  pkg.EraseBlock(0, 3);
  EXPECT_EQ(pkg.wear(3), 1u);
  pkg.ProgramPages(0, 3, 0);  // page 0 writable again
  EXPECT_TRUE(pkg.IsProgrammed(3, 0));
  EXPECT_TRUE(pkg.IsErased(3, 1));
}

TEST(NandPackage, OperationsSerializeOnTheDie) {
  const NandConfig cfg;  // real latencies
  NandPackage pkg(cfg, 0, 0);
  const Tick t1 = pkg.ReadPages(0, 0, 0);
  EXPECT_EQ(t1, cfg.read_latency);
  const Tick t2 = pkg.ReadPages(0, 0, 1);  // issued at 0, queues behind t1
  EXPECT_EQ(t2, 2 * cfg.read_latency);
}

TEST(FlashBackbone, GroupDataRoundTrips) {
  FlashBackbone bb(TinyNand());
  const std::uint64_t bytes = bb.config().GroupBytes();
  std::vector<std::uint8_t> in(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    in[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  // Group 1 = page 0 of package 1: a legal first program for a fresh block.
  bb.ProgramGroup(0, 1, in.data());
  std::vector<std::uint8_t> out(bytes, 0);
  bb.ReadGroup(0, 1, out.data());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), bytes), 0);
}

TEST(FlashBackbone, EraseDropsContents) {
  NandConfig cfg = TinyNand();
  FlashBackbone bb(cfg);
  std::vector<std::uint8_t> data(cfg.GroupBytes(), 0xAB);
  bb.ProgramGroup(0, 0, data.data());  // group 0 = block 0, page 0, pkg 0
  bb.EraseBlockGroup(0, 0);
  std::vector<std::uint8_t> out(cfg.GroupBytes(), 0xFF);
  bb.ReadGroup(0, 0, out.data());
  for (std::uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST(FlashBackbone, ReadLatencyMatchesOnfiTiming) {
  NandConfig cfg;  // paper-scale timing
  FlashBackbone bb(cfg);
  // Must program before reading back meaningfully, but timing-wise a single
  // group read = tR + channel transfer + SRIO.
  const FlashBackbone::OpResult r = bb.ReadGroup(0, 0, nullptr);
  const Tick xfer = BytesAtGBps(2.0 * cfg.page_bytes, cfg.channel_gb_per_s);
  EXPECT_GT(r.done, cfg.read_latency + xfer);
  EXPECT_LT(r.done, cfg.read_latency + xfer + 200 * kUs);  // + SRIO and overheads
}

TEST(FlashBackbone, SequentialReadsSustainMultiGbPerSecond) {
  NandConfig cfg;  // paper scale
  FlashBackbone bb(cfg);
  constexpr int kGroups = 512;  // 32 MB
  Tick done = 0;
  for (int g = 0; g < kGroups; ++g) {
    done = std::max(done, bb.ReadGroup(0, static_cast<std::uint64_t>(g), nullptr).done);
  }
  const double gb_per_s =
      kGroups * static_cast<double>(cfg.GroupBytes()) / static_cast<double>(done);
  // Table 1 estimates 3.2 GB/s internally; SRIO caps the delivered rate at
  // 2.5 GB/s. Expect >1.5 GB/s to confirm die pipelining works.
  EXPECT_GT(gb_per_s, 1.5);
  EXPECT_LT(gb_per_s, 3.5);
}

TEST(FlashBackbone, EraseFailureRetiresBlockGroup) {
  NandConfig cfg = TinyNand();
  cfg.fault.erase_failure_rate = 1.0;  // always fail
  FlashBackbone bb(cfg);
  const FlashBackbone::OpResult r = bb.EraseBlockGroup(0, 2);
  EXPECT_TRUE(r.became_bad);
  EXPECT_TRUE(bb.IsBadBlockGroup(2));
  EXPECT_FALSE(bb.IsBadBlockGroup(3));
}

TEST(FlashBackbone, EccEventsAreReportedAtConfiguredRate) {
  NandConfig cfg = TinyNand();
  cfg.fault.read_error_base = 1.0;
  FlashBackbone bb(cfg);
  EXPECT_TRUE(bb.ReadGroup(0, 0, nullptr).ecc_event);
}

TEST(FlashBackbone, CountersTrackOperations) {
  FlashBackbone bb(TinyNand());
  bb.ProgramGroup(0, 0, nullptr);
  bb.ReadGroup(0, 0, nullptr);
  bb.ReadGroup(0, 1, nullptr);
  bb.EraseBlockGroup(0, 1);
  EXPECT_EQ(bb.programs(), 1u);
  EXPECT_EQ(bb.reads(), 2u);
  EXPECT_EQ(bb.erases(), 1u);
  EXPECT_EQ(bb.TotalErases(),
            static_cast<std::uint64_t>(bb.config().channels) *
                bb.config().packages_per_channel);
}

TEST(FlashBackbone, PowerFailTearsExactlyTheUnfinishedBacklog) {
  const NandConfig cfg = TinyNand();
  FlashBackbone bb(cfg);
  const std::vector<std::uint8_t> data(cfg.GroupBytes(), 0x5A);
  std::vector<Tick> done;
  // 200 programs at one tick: the list outgrows the 64-entry prune threshold
  // while nothing in it has completed.
  for (std::uint32_t g = 0; g < 200; ++g) {
    done.push_back(bb.ProgramGroup(0, g, data.data(), g).done);
  }
  std::vector<Tick> sorted = done;
  std::sort(sorted.begin(), sorted.end());
  const Tick mid = sorted[100];
  // More programs at the median completion prune the finished half.
  for (std::uint32_t g = 200; g < 220; ++g) {
    done.push_back(bb.ProgramGroup(mid, g, data.data(), g).done);
  }
  const Tick fail_at = mid + cfg.program_latency / 2;
  bb.PowerFail(fail_at);

  std::uint64_t want_torn = 0;
  std::vector<std::uint8_t> out(cfg.GroupBytes());
  for (std::uint32_t g = 0; g < done.size(); ++g) {
    const bool torn = done[g] > fail_at;
    want_torn += torn ? 1 : 0;
    EXPECT_EQ(bb.Oob(g).tag, torn ? kOobTorn : g) << "group " << g;
    bb.ReadGroup(fail_at, g, out.data());
    EXPECT_EQ(out[0], torn ? 0 : 0x5A) << "group " << g;
  }
  EXPECT_EQ(bb.torn_groups(), want_torn);
  EXPECT_GT(want_torn, 0u);
  EXPECT_LT(want_torn, done.size());
}

TEST(FlashBackbone, InflightListMatchesEagerPruneReference) {
  NandConfig cfg = TinyNand();
  cfg.blocks_per_plane = 64;  // 4096 groups
  FlashBackbone bb(cfg);
  std::mt19937_64 rng(13);
  // The reference prunes with the plain rule: whenever the list holds more
  // than 64 entries, drop every entry complete by `now`.
  std::vector<Program> ref;
  int pruned = 0;
  int nothing_to_prune = 0;
  Tick now = 0;
  for (std::uint64_t g = 0; g < cfg.TotalGroups(); ++g) {
    if (rng() % 32 == 0) {
      now += rng() % (20 * kMs);
    }
    if (rng() % 1024 == 0) {
      bb.PowerFail(now);
      ref.clear();
    }
    ref.push_back(Program{g, bb.ProgramGroup(now, g, nullptr).done});
    if (ref.size() > 64) {
      const std::size_t removed =
          std::erase_if(ref, [now](const Program& p) { return p.done <= now; });
      (removed > 0 ? pruned : nothing_to_prune) += 1;
    }
    ASSERT_EQ(SavedInflight(bb), ref) << "after program " << g;
  }
  // Both sides of the prune decision ran.
  EXPECT_GT(pruned, 10);
  EXPECT_GT(nothing_to_prune, 1000);
}

TEST(FlashBackbone, ResumedBackboneMatchesUnbroken) {
  const NandConfig cfg = TinyNand();
  const std::vector<std::uint8_t> data(cfg.GroupBytes(), 0xC3);
  FlashBackbone unbroken(cfg);
  for (std::uint32_t g = 0; g < 100; ++g) {
    unbroken.ProgramGroup(0, g, data.data(), g);
  }
  FlashBackbone resumed(cfg);
  Restore(unbroken, &resumed);
  Restore(unbroken.faults(), &resumed.faults());
  for (int ch = 0; ch < cfg.channels; ++ch) {
    Restore(unbroken.controller(ch), &resumed.controller(ch));
  }
  // Programs issued once part of the loaded backlog has completed: the
  // resumed backbone prunes it only if loading rebuilt its bookkeeping.
  const Tick later = 5 * cfg.program_latency;
  for (FlashBackbone* bb : {&unbroken, &resumed}) {
    for (std::uint32_t g = 100; g < 150; ++g) {
      bb->ProgramGroup(later, g, data.data(), g);
    }
  }
  EXPECT_EQ(Saved(resumed), Saved(unbroken));
  EXPECT_LT(SavedInflight(unbroken).size(), 150u);
}

TEST(TagQueue, BoundsInFlightOperations) {
  TagQueue tags(2);
  EXPECT_EQ(tags.Acquire(0), 0u);
  tags.Release(100);
  EXPECT_EQ(tags.Acquire(0), 0u);
  tags.Release(200);
  // Both tags busy until 100/200: next acquire waits for the earliest.
  EXPECT_EQ(tags.Acquire(0), 100u);
}

}  // namespace
}  // namespace fabacus
