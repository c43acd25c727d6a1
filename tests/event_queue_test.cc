// Unit tests for the event core: EventFn storage classes, the calendar
// queue's ordering/daemon/Clear contract, and randomized equivalence against
// a binary-heap reference queue.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace fabacus {
namespace {

// Reference oracle for the calendar queue: a plain binary heap under the same
// (when, seq) order and daemon bookkeeping.
class BasicHeapEventQueue {
 public:
  void Push(Tick when, EventFn fn, bool daemon = false) {
    heap_.push(Event{when, next_seq_++, std::move(fn), daemon});
    if (!daemon) {
      ++non_daemon_count_;
    }
  }

  bool empty() const { return heap_.empty(); }
  bool OnlyDaemonsLeft() const { return non_daemon_count_ == 0; }
  Tick NextTime() const { return heap_.top().when; }

  EventFn Pop(Tick* when) {
    // priority_queue::top() returns const&; the callback must be moved out.
    Event& top = const_cast<Event&>(heap_.top());
    *when = top.when;
    EventFn fn = std::move(top.fn);
    if (!top.daemon) {
      --non_daemon_count_;
    }
    heap_.pop();
    return fn;
  }

 private:
  struct Event {
    Tick when;
    std::uint64_t seq;
    EventFn fn;
    bool daemon;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t non_daemon_count_ = 0;
};

// The storage-class contract the engine's performance rests on: hot-path
// lambdas (pointers, ids, ticks) must stay inline; fat or non-trivial
// captures ride the slab.
struct FourWords {
  void* p[4];
};
struct FiveWords {
  void* p[5];
};
static_assert(EventFn::kFitsInline<decltype([] {})>);
static_assert(EventFn::kFitsInline<void (*)()>);
namespace inline_checks {
inline auto four = [x = FourWords{}] { (void)x; };
inline auto five = [x = FiveWords{}] { (void)x; };
static_assert(EventFn::kFitsInline<decltype(four)>);
static_assert(!EventFn::kFitsInline<decltype(five)>);
// std::function captures are non-trivially-copyable -> never inline.
inline auto fn_capture = [f = std::function<void()>()] { (void)f; };
static_assert(!EventFn::kFitsInline<decltype(fn_capture)>);
}  // namespace inline_checks

TEST(EventFn, InvokesInlineCallable) {
  int hits = 0;
  int* p = &hits;
  EventFn fn([p] { ++*p; });
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, MoveTransfersOwnership) {
  int hits = 0;
  int* p = &hits;
  EventFn a([p] { ++*p; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(EventFn, OversizedCallableUsesSlabAndFrees) {
  const std::size_t before = internal::EventSlabPool::LiveChunks();
  {
    FiveWords fat{};
    int hits = 0;
    int* p = &hits;
    EventFn fn([fat, p] {
      (void)fat;
      ++*p;
    });
    EXPECT_EQ(internal::EventSlabPool::LiveChunks(), before + 1);
    fn();
    EXPECT_EQ(hits, 1);
  }
  EXPECT_EQ(internal::EventSlabPool::LiveChunks(), before);
}

TEST(EventFn, NonTrivialCaptureDestructsOnSlab) {
  const std::size_t before = internal::EventSlabPool::LiveChunks();
  int hits = 0;
  {
    std::function<void()> inner = [&hits] { ++hits; };
    EventFn fn([inner] { inner(); });
    EXPECT_EQ(internal::EventSlabPool::LiveChunks(), before + 1);
    fn();
  }
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(internal::EventSlabPool::LiveChunks(), before);
}

TEST(CalendarQueue, SameTickFiresInSchedulingOrder) {
  CalendarEventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    q.Push(1000, [&order, i] { order.push_back(i); });
  }
  Tick when = 0;
  while (!q.empty()) {
    q.Pop(&when)();
    EXPECT_EQ(when, 1000u);
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(CalendarQueue, DaemonsDoNotKeepQueueAlive) {
  CalendarEventQueue q;
  q.Push(10, [] {}, /*daemon=*/true);
  EXPECT_TRUE(q.OnlyDaemonsLeft());
  q.Push(20, [] {});
  EXPECT_FALSE(q.OnlyDaemonsLeft());
  Tick when = 0;
  q.Pop(&when)();  // the 10-tick daemon fires first (time order)
  EXPECT_EQ(when, 10u);
  q.Pop(&when)();
  EXPECT_EQ(when, 20u);
  EXPECT_TRUE(q.OnlyDaemonsLeft());
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, ClearDropsEverythingAndStaysUsable) {
  CalendarEventQueue q;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    q.Push(static_cast<Tick>(i) * 77, [&fired] { ++fired; }, /*daemon=*/(i % 3) == 0);
  }
  q.Clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.OnlyDaemonsLeft());
  EXPECT_EQ(fired, 0);
  // Still functional after Clear, including times before the old cursor.
  q.Push(5, [&fired] { ++fired; });
  Tick when = 0;
  q.Pop(&when)();
  EXPECT_EQ(when, 5u);
  EXPECT_EQ(fired, 1);
}

TEST(CalendarQueue, CursorRewindsForEarlierPushAfterDrain) {
  CalendarEventQueue q;
  Tick when = 0;
  // Drain an event far in the future, parking the cursor there...
  q.Push(50 * kMs, [] {});
  q.Pop(&when)();
  EXPECT_EQ(when, 50 * kMs);
  // ...then accept one behind the parked window (Simulator::ScheduleAt after
  // RunUntil does exactly this).
  q.Push(3 * kUs, [] {});
  EXPECT_EQ(q.NextTime(), 3 * kUs);
  q.Pop(&when)();
  EXPECT_EQ(when, 3 * kUs);
}

TEST(CalendarQueue, SparseFarFutureEventsFound) {
  // Events spread far beyond bucket_count * bucket_width exercise the
  // full-rotation fallback (erase completions, Storengine daemon ticks).
  CalendarEventQueue q;
  std::vector<Tick> fired;
  const std::vector<Tick> times = {2 * kUs, 81 * kUs, 2600 * kUs, 6 * kMs, 500 * kMs, 2 * kSec};
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const Tick t = *it;
    q.Push(t, [&fired, t] { fired.push_back(t); });
  }
  Tick when = 0;
  while (!q.empty()) {
    q.Pop(&when)();
  }
  EXPECT_EQ(fired, times);
}

TEST(CalendarQueue, ResizesUnderLoadWithoutReordering) {
  CalendarEventQueue q;
  const std::size_t initial_buckets = q.bucket_count();
  std::uint64_t x = 12345;
  std::vector<std::pair<Tick, int>> pushed;
  for (int i = 0; i < 4000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Tick t = (x >> 40) % (10 * kMs);
    pushed.push_back({t, i});
    q.Push(t, [] {});
  }
  EXPECT_GT(q.bucket_count(), initial_buckets);  // grew with the population
  Tick prev = 0;
  Tick when = 0;
  while (!q.empty()) {
    q.Pop(&when)();
    EXPECT_GE(when, prev);
    prev = when;
  }
  EXPECT_LT(q.bucket_count(), std::size_t{1} << 16);
}

// Randomized oracle check: the calendar queue must pop the exact (when, seq)
// sequence the reference heap pops, including daemon bookkeeping, under a mix
// of interleaved pushes and pops at ONFi-like spacings.
TEST(CalendarQueue, MatchesLegacyHeapOnRandomWorkload) {
  Rng rng(7);
  CalendarEventQueue cal;
  BasicHeapEventQueue heap;
  std::vector<std::pair<Tick, int>> cal_fired;
  std::vector<std::pair<Tick, int>> heap_fired;
  Tick now = 0;
  int id = 0;
  for (int round = 0; round < 2000; ++round) {
    const int pushes = static_cast<int>(rng.NextBelow(4));
    for (int p = 0; p < pushes; ++p) {
      const std::uint64_t pick = rng.NextBelow(100);
      Tick delay = kUs;
      if (pick >= 50 && pick < 80) {
        delay = 81 * kUs;
      } else if (pick >= 80 && pick < 95) {
        delay = 0;  // same-tick chains
      } else if (pick >= 95 && pick < 99) {
        delay = 2600 * kUs;
      } else if (pick >= 99) {
        delay = 6 * kMs;
      }
      const bool daemon = rng.NextBelow(16) == 0;
      const Tick when = now + delay;
      const int tag = id++;
      cal.Push(when, [&cal_fired, when, tag] { cal_fired.push_back({when, tag}); }, daemon);
      heap.Push(when, [&heap_fired, when, tag] { heap_fired.push_back({when, tag}); }, daemon);
    }
    if (!cal.empty() && rng.NextBelow(3) != 0) {
      ASSERT_FALSE(heap.empty());
      ASSERT_EQ(cal.NextTime(), heap.NextTime());
      ASSERT_EQ(cal.OnlyDaemonsLeft(), heap.OnlyDaemonsLeft());
      Tick cw = 0;
      Tick hw = 0;
      cal.Pop(&cw)();
      heap.Pop(&hw)();
      ASSERT_EQ(cw, hw);
      now = cw;
    }
  }
  while (!cal.empty()) {
    Tick cw = 0;
    Tick hw = 0;
    cal.Pop(&cw)();
    ASSERT_FALSE(heap.empty());
    heap.Pop(&hw)();
    ASSERT_EQ(cw, hw);
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(cal_fired, heap_fired);
}

}  // namespace
}  // namespace fabacus
