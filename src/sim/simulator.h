// The simulation kernel: owns the clock and the event queue, and runs events
// in (when, seq) order until the queue drains (or a time/event budget is hit).
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "src/sim/event_queue.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace fabacus {

class Simulator : public Snapshottable {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Tick Now() const { return now_; }

  // Schedules `fn` to run `delay` ns from now.
  void Schedule(Tick delay, EventQueue::Callback fn) {
    queue_.Push(now_ + delay, std::move(fn));
  }

  // Schedules `fn` at absolute time `when` (must not be in the past).
  void ScheduleAt(Tick when, EventQueue::Callback fn);

  // Background housekeeping: fires like a normal event, but pending daemons
  // alone do not keep Run() alive (see EventQueue). Periodic services
  // (Storengine ticks) use this so the simulation drains naturally.
  void ScheduleDaemon(Tick delay, EventQueue::Callback fn) {
    queue_.Push(now_ + delay, std::move(fn), /*daemon=*/true);
  }

  // Runs until only daemon events (or nothing) remain. Returns the final time.
  Tick Run();

  // Runs until the queue is empty or the clock would pass `deadline`.
  // Events at exactly `deadline` still fire. Returns the final time.
  Tick RunUntil(Tick deadline);

  // Runs a single event if one is pending; returns false when idle.
  bool Step();

  // Drops every pending event (daemons included) without running it. The
  // clock keeps its value. Models an abrupt power failure: whatever was in
  // flight simply never completes. Callers must Reset/rebuild any component
  // whose invariants depend on a scheduled continuation (queues, daemons).
  void Halt() { queue_.Clear(); }

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_executed() const { return events_executed_; }

  // Safety valve: aborts the run loop after this many events (guards against
  // accidental event storms in tests). Default effectively unlimited.
  void set_max_events(std::uint64_t n) { max_events_ = n; }

  // True when only daemon events remain — the quiescence condition for
  // checkpointing. Event callbacks are closures and are never serialized;
  // snapshots happen at points where every pending event is an inert
  // housekeeping tick that re-arms from component state (docs/SNAPSHOT.md).
  bool OnlyDaemonsPending() const { return queue_.OnlyDaemonsLeft(); }

  // Snapshottable: the kernel's plain state (clock + event counter). The
  // queue itself is rebuilt empty on restore; re-pushed events re-derive
  // their ordering from the (when, seq) contract.
  std::string StateName() const override { return "sim"; }
  void SaveState(StateWriter& w) const override {
    w.U64(now_);
    w.U64(events_executed_);
  }
  void LoadState(StateReader& r) override {
    now_ = r.U64();
    events_executed_ = r.U64();
  }

 private:
  EventQueue queue_;
  Tick now_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t max_events_ = std::numeric_limits<std::uint64_t>::max();
};

}  // namespace fabacus

#endif  // SRC_SIM_SIMULATOR_H_
