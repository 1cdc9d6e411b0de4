// Lock-cheap tracing of nested spans, exported as Chrome trace_event JSON
// (load the dump at chrome://tracing or https://ui.perfetto.dev).
//
// Model: a TraceRecorder owns one buffer per recording thread; a Span is an
// RAII guard that, on destruction, appends one complete event ("ph":"X")
// to the current thread's buffer. Which recorder is "current" is a
// thread-local pointer installed by ScopedTraceInstall — when none is
// installed (the default), a Span is two reads and two branches: no
// allocation, no clock read, no atomic.
//
// Nesting is implicit: Chrome's viewer (and tests/test_obs.cpp) reconstruct
// the span tree from time containment per thread, so no parent links are
// recorded. ThreadPool::parallel_for forwards the submitting thread's
// recorder to its helpers, so spans opened inside pool tasks land in the
// same trace as the request that spawned them.
//
// Hot-path cost when enabled: one thread-local buffer lookup (amortized —
// the (recorder, buffer) pair is cached per thread and revalidated by the
// recorder's unique id, so recorder churn can never serve a stale buffer),
// one relaxed fetch_add for the event cap, one vector push_back. The
// per-recorder mutex is taken only when a thread records its first event.
//
// Memory is bounded: past `max_events` the recorder counts drops instead
// of growing (a 50k-part compile records one span per part).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace epg {

class TraceRecorder;

namespace obs_detail {
/// The thread's current recorder (null = tracing disabled on this thread).
/// Exposed so Span's disabled path inlines to a pointer test; install via
/// ScopedTraceInstall, never by assignment.
extern thread_local TraceRecorder* tls_recorder;
}  // namespace obs_detail

/// One complete ("ph":"X") event: [ts, ts+dur) on thread `tid`, times in
/// microseconds relative to the recorder's construction.
struct TraceEvent {
  std::string name;
  std::string cat;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;       ///< dense per-recorder thread index
  std::string args_json;       ///< rendered `{"k":v,...}` body, or empty
};

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t max_events = 262144);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Microseconds since this recorder was constructed.
  double now_us() const;

  /// Append one event to the calling thread's buffer (drops past the cap).
  /// Threads record concurrently without contention after their first
  /// event; reading (events/write_chrome_trace) is only safe once the
  /// recorded work has completed (e.g. after parallel_for returned).
  void record(TraceEvent event);

  /// All events, merged across threads and sorted by (ts, -dur) so a
  /// parent sorts before the children it contains.
  std::vector<TraceEvent> events() const;

  std::size_t event_count() const;
  std::size_t dropped() const { return dropped_.load(); }

  /// Chrome trace_event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}.
  void write_chrome_trace(std::ostream& os) const;

  /// Unique per-recorder id (validates per-thread buffer caches).
  std::uint64_t id() const { return id_; }

 private:
  struct ThreadLog {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  ThreadLog& log_for_this_thread();

  const std::uint64_t id_;
  const std::size_t max_events_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::size_t> recorded_{0};
  std::atomic<std::size_t> dropped_{0};
  mutable std::mutex mu_;  ///< guards logs_ registration, not appends
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::unordered_map<std::thread::id, ThreadLog*> by_thread_;
};

/// Install `rec` as the calling thread's current recorder for the scope
/// (null reinstalls "disabled"). Restores the previous recorder on exit.
class ScopedTraceInstall {
 public:
  explicit ScopedTraceInstall(TraceRecorder* rec)
      : prev_(obs_detail::tls_recorder) {
    obs_detail::tls_recorder = rec;
  }
  ~ScopedTraceInstall() { obs_detail::tls_recorder = prev_; }
  ScopedTraceInstall(const ScopedTraceInstall&) = delete;
  ScopedTraceInstall& operator=(const ScopedTraceInstall&) = delete;

 private:
  TraceRecorder* prev_;
};

/// The calling thread's current recorder (null = disabled).
inline TraceRecorder* current_trace_recorder() {
  return obs_detail::tls_recorder;
}

/// RAII span. Name/category must outlive the span (string literals and
/// the pipeline's static stage names qualify). Args are rendered eagerly
/// but only when a recorder is installed.
class Span {
 public:
  Span(std::string_view name, std::string_view cat)
      : rec_(obs_detail::tls_recorder), name_(name), cat_(cat) {
    if (rec_ != nullptr) start_us_ = rec_->now_us();
  }
  ~Span() {
    if (rec_ != nullptr) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return rec_ != nullptr; }

  /// Attach a numeric / string argument (no-ops when inactive).
  void arg(std::string_view key, double value);
  void arg(std::string_view key, std::uint64_t value);
  void arg(std::string_view key, std::string_view value);

 private:
  void finish();

  TraceRecorder* rec_;
  std::string_view name_;
  std::string_view cat_;
  double start_us_ = 0.0;
  std::string args_;  ///< accumulated `"k":v` pairs, comma-joined
};

}  // namespace epg
