// Small helpers shared by the perfbench program: wall time, order
// statistics, process memory and the in-memory span recorder of the traced
// run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall time in nanoseconds.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// The q-quantile (0..1) of `values` by nearest rank; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Resident set size right now, in bytes (/proc/self/statm).
std::uint64_t current_rss_bytes();
/// Peak resident set size of the process so far, in bytes (getrusage).
std::uint64_t peak_rss_bytes();

/// Median cost of one back-to-back now_ns() pair, subtracted from per-call
/// timings so that they report the call and not the clock.
double clock_overhead_ns();

/// Spans recorded in memory during the traced run and written out as JSON
/// lines when it ends. A span is one timed call into a layer: its name, its
/// own id, the id of the span that caused it (0 for a root), the request
/// index it serves (0 when it serves none) and its start and end in
/// nanoseconds since the tracer was made. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(now_ns()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span now and returns its id (0 when disabled).
  std::uint64_t open(const char* name, std::uint64_t parent = 0, std::uint64_t request = 0);
  /// Closes span `id` now; ignores id 0.
  void close(std::uint64_t id);
  /// Records a span whose bounds the caller already measured.
  std::uint64_t add(const char* name, std::uint64_t parent, std::uint64_t request,
                    std::uint64_t start, std::uint64_t end);

  /// Makes room for `more` spans, so that recording them does not reallocate.
  void reserve_more(std::size_t more) {
    if (enabled_) spans_.reserve(spans_.size() + more);
  }
  /// Throws std::runtime_error when the file cannot be written.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t parent;
    std::uint64_t request;
    std::uint64_t start;
    std::uint64_t end;
  };
  bool enabled_;
  std::uint64_t origin_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
