// The discrete-event queue, ordered by (time, sequence): sequence numbers
// break ties so same-tick events fire in scheduling order, which keeps runs
// deterministic.
//
// CalendarEventQueue is a calendar queue (R. Brown, CACM '88) over
// non-allocating EventFn callbacks. Events hash into time buckets of
// power-of-two width; pushes are a sorted insert into one small bucket and
// pops walk a cursor across bucket windows, so both are O(1) amortized for
// the clustered event spacings a flash simulation produces (1 us command
// overheads, 81 us tR, 2.6 ms tPROG — see NandConfig). The bucket count and
// width adapt to the live event population, and a full-rotation fallback
// handles sparse far-future horizons (erase completions, Storengine daemon
// ticks). tests/event_queue_test.cc checks it against a binary-heap oracle.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/log.h"
#include "src/sim/time.h"

namespace fabacus {

// Calendar-queue engine. See the file comment for the design. NextTime() is
// non-const: it advances the internal bucket cursor, caching the found event
// so the following Pop is O(1).
class CalendarEventQueue {
 public:
  using Callback = EventFn;

  CalendarEventQueue() { InitBuckets(kInitBucketShift, kInitWidthShift); }

  // Schedules `fn` to run at absolute time `when`. Daemon events model
  // background housekeeping (e.g. Storengine's periodic ticks): they fire in
  // time order like any event, but a queue holding only daemons counts as
  // drained, so a run loop does not spin on self-rescheduling maintenance.
  void Push(Tick when, Callback fn, bool daemon = false) {
    const std::uint64_t tag = (next_seq_++ << 1) | static_cast<std::uint64_t>(daemon);
    if (size_ == 0 || when < cur_window_) {
      // Rewind (or initialize) the cursor so the scan invariant — no pending
      // event earlier than cur_window_ — keeps holding. This happens when a
      // drained or deadline-parked queue accepts an event behind the cursor.
      // Either way the new event precedes everything pending, so it is also
      // the known next-to-fire.
      SeatCursorAt(when);
      cached_next_ = cur_bucket_;
    } else if (cached_next_ != kNoBucket &&
               when < buckets_[cached_next_].front().when) {
      // The new event beats the cached front, making it the new global
      // minimum: move the cursor (forward — `when >= cur_window_` here) and
      // the cache straight to it.
      SeatCursorAt(when);
      cached_next_ = cur_bucket_;
    }
    Bucket& b = buckets_[BucketIndex(when)];
    // Hot path: simulated delays are non-decreasing within a window, so the
    // common insert position is the end — O(1), no memmove.
    if (b.ev.empty() || b.ev.back().when < when ||
        (b.ev.back().when == when && b.ev.back().seq_daemon < tag)) {
      b.ev.emplace_back(when, tag, std::move(fn));
    } else {
      const auto pos = std::upper_bound(
          b.ev.begin() + static_cast<std::ptrdiff_t>(b.head), b.ev.end(),
          std::make_pair(when, tag), [](const auto& key, const Event& e) {
            return key.first != e.when ? key.first < e.when : key.second < e.seq_daemon;
          });
      b.ev.insert(pos, Event(when, tag, std::move(fn)));
    }
    ++size_;
    if (!daemon) {
      ++non_daemon_count_;
    }
    // Note the cache was NOT invalidated above in the common case: a
    // same-tick push sorts behind the cached front (seq is monotonic, and
    // same tick means same bucket) and a later push cannot displace the
    // minimum. In the dominant pop→handler→push(now + delay) pattern the
    // next Pop therefore skips the cursor scan entirely.
    if (size_ >= (buckets_.size() << 1) && buckets_.size() < (1u << kMaxBucketShift)) {
      Rebuild();
    }
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // True when no non-daemon events are pending.
  bool OnlyDaemonsLeft() const { return non_daemon_count_ == 0; }

  Tick NextTime() {
    FAB_CHECK(size_ > 0);
    return buckets_[FindNext()].front().when;
  }

  Callback Pop(Tick* when) {
    FAB_CHECK(size_ > 0);
    Bucket& b = buckets_[FindNext()];
    Event& e = b.front();
    *when = e.when;
    Callback fn = std::move(e.fn);
    if ((e.seq_daemon & 1u) == 0) {
      FAB_CHECK_GT(non_daemon_count_, 0u);
      --non_daemon_count_;
    }
    b.PopFront();
    --size_;
    // FindNext left the cursor on this bucket, so if the new front is still
    // inside the cursor window it remains the global minimum (all in-window
    // events live in this one bucket, sorted) — keep the cache.
    if (b.empty() || b.front().when >= cur_window_ + bucket_width()) {
      cached_next_ = kNoBucket;
    }
    if (size_ * 8 < buckets_.size() && buckets_.size() > (1u << kMinBucketShift)) {
      Rebuild();
    }
    return fn;
  }

  void Clear();

  std::size_t bucket_count() const { return buckets_.size(); }
  Tick bucket_width() const { return Tick{1} << width_shift_; }

 private:
  struct Event {
    Event(Tick w, std::uint64_t s, EventFn&& f)
        : when(w), seq_daemon(s), fn(std::move(f)) {}

    Tick when;
    // (seq << 1) | daemon: packs the tie-break sequence and the daemon flag
    // into one word while preserving the (when, seq) total order.
    std::uint64_t seq_daemon;
    EventFn fn;
  };
  // A sorted run of events with a consumed prefix: popping advances `head`
  // instead of memmoving the vector (erase(begin()) on an 80-byte Event is
  // what makes a naive calendar bucket O(k) per pop). The storage resets
  // once the bucket fully drains, so dead prefixes never outlive a window.
  struct Bucket {
    std::vector<Event> ev;
    std::size_t head = 0;

    bool empty() const { return head == ev.size(); }
    Event& front() { return ev[head]; }
    const Event& front() const { return ev[head]; }
    void PopFront() {
      if (++head == ev.size()) {
        ev.clear();
        head = 0;
      }
    }
  };

  static constexpr int kInitBucketShift = 6;   // 64 buckets
  static constexpr int kMinBucketShift = 4;    // >= 16 buckets
  static constexpr int kMaxBucketShift = 16;   // <= 65536 buckets
  // Width floor AND the initial width: ~1 us, the ONFi command granularity
  // (tR/tPROG completions land 81 us / 2.6 ms out; command + crossbar
  // overheads cluster at ~1 us). Rebuild only ever widens from here.
  static constexpr int kInitWidthShift = 10;
  static constexpr int kMaxWidthShift = 21;    // ~2 ms: tPROG/tBERS scale
  static constexpr std::size_t kNoBucket = static_cast<std::size_t>(-1);

  std::size_t BucketIndex(Tick when) const {
    return static_cast<std::size_t>(when >> width_shift_) & bucket_mask_;
  }

  void SeatCursorAt(Tick when) {
    cur_window_ = (when >> width_shift_) << width_shift_;
    cur_bucket_ = BucketIndex(when);
    cached_next_ = kNoBucket;
  }

  void InitBuckets(int bucket_shift, int width_shift) {
    // clear+resize rather than assign: assign's fill path wants copyable
    // elements, and Event is move-only.
    buckets_.clear();
    buckets_.resize(std::size_t{1} << bucket_shift);
    bucket_mask_ = buckets_.size() - 1;
    width_shift_ = width_shift;
    cur_bucket_ = 0;
    cur_window_ = 0;
    cached_next_ = kNoBucket;
  }

  // Positions the cursor on the bucket holding the next event in (when, seq)
  // order and returns its index. Amortized O(1): the forward scan only ever
  // advances the cursor, and the full-rotation fallback runs once per sparse
  // time jump.
  std::size_t FindNext();

  // Re-tunes bucket count to the live population and bucket width to the
  // observed event spacing, then redistributes. Deterministic: driven purely
  // by queue content.
  void Rebuild();

  std::vector<Bucket> buckets_;
  std::size_t bucket_mask_ = 0;
  int width_shift_ = kInitWidthShift;
  std::size_t cur_bucket_ = 0;
  Tick cur_window_ = 0;
  std::size_t cached_next_ = kNoBucket;
  std::size_t size_ = 0;
  std::size_t non_daemon_count_ = 0;
  std::uint64_t next_seq_ = 0;
};

// The queue the Simulator owns.
using EventQueue = CalendarEventQueue;

}  // namespace fabacus

#endif  // SRC_SIM_EVENT_QUEUE_H_
