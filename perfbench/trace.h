// Benchmark-side span tracer. Spans are recorded only around the
// benchmark's own calls into the program (adapter.cc), kept in memory per
// thread, and summarized or written out when the run ends. With no tracer
// installed a ScopedSpan costs one relaxed atomic load.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< Static storage: a string literal.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;    ///< Index into Tracer::Collect(); -1 for a root.
  uint64_t request = 0;   ///< Shared by every span of one operation.
  double work = 0;        ///< Units the span covered (areas, rows, events).
  int thread = 0;
};

/// Per-name totals over a set of spans. Self time is a span's duration
/// minus the time its child spans cover (children of one thread nest).
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
  double work = 0;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer, or nullptr for an untraced run.
  static Tracer* active() { return active_.load(std::memory_order_relaxed); }
  /// Installs `tracer` (nullptr uninstalls). Call between phases, with no
  /// traced call in flight.
  static void Install(Tracer* tracer);

  /// Every span of every thread, parents remapped to global indices.
  std::vector<Span> Collect() const;
  static std::map<std::string, SpanTotals> Summarize(
      const std::vector<Span>& spans);
  /// Chrome trace-event JSON (loads in chrome://tracing and Perfetto).
  static bool WriteJson(const std::vector<Span>& spans,
                        const std::string& path);

 private:
  friend class ScopedSpan;
  struct ThreadLog {
    int thread = 0;
    std::vector<Span> spans;
    std::vector<int64_t> open;  ///< Stack of open span indices.
  };
  ThreadLog* LogForThisThread();

  static std::atomic<Tracer*> active_;
  const uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by mu_
};

/// Records one span on the calling thread when a tracer is installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, double work = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_work(double work);

 private:
  Tracer::ThreadLog* log_ = nullptr;
  int64_t index_ = -1;
};

/// Sets the request id that spans opened on this thread carry until the
/// scope ends (one id per benchmark operation: a tick, a query, an
/// iteration).
class ScopedRequest {
 public:
  explicit ScopedRequest(uint64_t request);
  ~ScopedRequest();
  ScopedRequest(const ScopedRequest&) = delete;
  ScopedRequest& operator=(const ScopedRequest&) = delete;

 private:
  uint64_t prev_;
};

int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
