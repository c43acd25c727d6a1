// Tests for the memory and interconnect substrates: sparse byte store, DRAM
// banking, scratchpad, crossbars, hardware message queues and the SRIO link.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/trace.h"
#include "src/mem/byte_store.h"
#include "src/mem/dram.h"
#include "src/mem/scratchpad.h"
#include "src/noc/crossbar.h"
#include "src/noc/message_queue.h"
#include "src/noc/srio_link.h"
#include "src/sim/simulator.h"

namespace fabacus {
namespace {

TEST(ByteStore, SparseReadsReturnZero) {
  ByteStore store(4096);
  std::vector<std::uint8_t> out(100, 0xFF);
  store.Read(1 << 20, out.data(), out.size());
  for (std::uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(store.allocated_chunks(), 0u);
}

TEST(ByteStore, WriteReadAcrossChunkBoundary) {
  ByteStore store(64);
  std::vector<std::uint8_t> in(200);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::uint8_t>(i + 1);
  }
  store.Write(50, in.data(), in.size());
  std::vector<std::uint8_t> out(in.size());
  store.Read(50, out.data(), out.size());
  EXPECT_EQ(in, out);
  EXPECT_GT(store.allocated_chunks(), 2u);
  // The partly written first and last chunks read back zero around the data.
  std::vector<std::uint8_t> want(256, 0);
  std::copy(in.begin(), in.end(), want.begin() + 50);
  std::vector<std::uint8_t> whole(want.size(), 0xFF);
  store.Read(0, whole.data(), whole.size());
  EXPECT_EQ(whole, want);
}

TEST(ByteStore, EraseReleasesWholeChunks) {
  ByteStore store(64);
  std::vector<std::uint8_t> in(256, 0xAA);
  store.Write(0, in.data(), in.size());
  const std::size_t before = store.allocated_chunks();
  store.Erase(0, 256);
  EXPECT_LT(store.allocated_chunks(), before);
  std::vector<std::uint8_t> out(256, 0xFF);
  store.Read(0, out.data(), out.size());
  for (std::uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST(Dram, BulkAccessUsesAggregateBandwidth) {
  Dram dram(DramConfig{});
  const Tick done = dram.BulkAccess(0, 64e6);  // 64 MB at 6.4 GB/s = 10 ms
  EXPECT_NEAR(static_cast<double>(done), 10e6, 0.5e6);
}

TEST(Dram, AddressInterleavingSpreadsBanks) {
  Dram dram(DramConfig{});
  // Two accesses to different 4 KB-aligned regions go to different banks and
  // do not serialize.
  const Tick a = dram.Access(0, 0, 1e6);
  const Tick b = dram.Access(0, 4096, 1e6);
  EXPECT_NEAR(static_cast<double>(a), static_cast<double>(b), 1.0);
  // Same region: serialized.
  const Tick c = dram.Access(0, 0, 1e6);
  EXPECT_GT(c, a);
}

TEST(Scratchpad, StoreLoadRoundTrips) {
  Scratchpad spm(ScratchpadConfig{});
  const std::uint64_t value = 0xDEADBEEFCAFEF00DULL;
  spm.Store(1024, &value, sizeof(value));
  std::uint64_t out = 0;
  spm.Load(1024, &out, sizeof(out));
  EXPECT_EQ(out, value);
}

TEST(Scratchpad, AccessFasterThanDram) {
  Scratchpad spm(ScratchpadConfig{});
  Dram dram(DramConfig{});
  EXPECT_LT(spm.Access(0, 1e6), dram.BulkAccess(0, 1e6));
}

TEST(Crossbar, TransfersSerializeOnSharedPort) {
  CrossbarConfig cfg{.name = "x", .ports = 4, .port_gb_per_s = 1.0, .fabric_gb_per_s = 4.0,
                     .hop_latency = 0};
  Crossbar xbar(cfg);
  const Tick a = xbar.Transfer(0, 0, 3, 1000);
  const Tick b = xbar.Transfer(0, 1, 3, 1000);  // same destination port
  EXPECT_GT(b, a);
}

TEST(Crossbar, FabricCapsAggregateThroughput) {
  CrossbarConfig cfg{.name = "x", .ports = 8, .port_gb_per_s = 10.0, .fabric_gb_per_s = 1.0,
                     .hop_latency = 0};
  Crossbar xbar(cfg);
  Tick last = 0;
  for (int i = 0; i < 4; ++i) {
    last = std::max(last, xbar.Transfer(0, i, 7 - i, 1000));
  }
  // 4 KB through a 1 GB/s fabric takes >= 4 us even with idle ports.
  EXPECT_GE(last, 4000u);
}

TEST(SrioLink, BandwidthMatchesLaneConfiguration) {
  SrioLink link;
  // 4 lanes x 5 Gbps = 2.5 GB/s.
  EXPECT_NEAR(link.gb_per_s(), 2.5, 0.01);
  const Tick done = link.Transfer(0, 25e6);
  EXPECT_NEAR(static_cast<double>(done), 10e6, 0.5e6);  // 25 MB in ~10 ms
}

TEST(MessageQueue, DeliversSeriallyInOrder) {
  Simulator sim;
  MessageQueue<int> q(&sim, "q", /*delivery_latency=*/100);
  std::vector<int> seen;
  q.set_sink([&](int v, MessageQueue<int>::Done done) {
    seen.push_back(v);
    // Each message takes 1 us of consumer time.
    done(sim.Now() + 1000);
  });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.TrySend(i));
  }
  sim.Run();
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.delivered(), 5u);
  // Serial consumer: total time = 5 * (latency + service).
  EXPECT_EQ(sim.Now(), 5u * 1100u);
}

TEST(MessageQueue, BackpressuresWhenFull) {
  Simulator sim;
  MessageQueue<int> q(&sim, "q", 10, /*capacity=*/2);
  q.set_sink([&](int, MessageQueue<int>::Done done) { done(sim.Now()); });
  EXPECT_TRUE(q.TrySend(1));
  EXPECT_TRUE(q.TrySend(2));
  EXPECT_TRUE(q.TrySend(3));   // one in flight, two queued? depth check:
  // capacity counts queued messages; the first was popped for delivery.
  EXPECT_FALSE(q.TrySend(4));  // full now
  EXPECT_EQ(q.rejected(), 1u);
  sim.Run();
  EXPECT_TRUE(q.TrySend(5));
}

}  // namespace
}  // namespace fabacus
