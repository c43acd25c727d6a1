// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call the benchmark makes into a simulator module: a
// name, start and end on the host's steady clock, the span that was open
// when it began (its parent) and the id of the simulation run it belongs to.
// Spans stay in memory while the run measures and are written out once, as a
// Chrome/Perfetto trace, when it ends. A disabled recorder keeps nothing and
// reads no clock, so the untraced runs pay only a branch per call site.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static string: a module-qualified layer name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into SpanTrace::spans(), -1 for a root
  int run_id = 0;
};

class SpanTrace {
 public:
  explicit SpanTrace(bool enabled);

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index, or -1 when
  // disabled. Spans close in reverse order of opening.
  int Begin(const char* name, int run_id);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: the summed duration, and the summed self time (duration
  // minus the time its child spans cover), both in seconds.
  std::map<std::string, double> TotalSeconds() const;
  std::map<std::string, double> SelfSeconds() const;

  // Writes every span as a Chrome trace "X" event; returns false on I/O
  // failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null or disabled trace records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, const char* name, int run_id)
      : trace_(trace), index_(trace != nullptr ? trace->Begin(name, run_id) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) {
      trace_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
