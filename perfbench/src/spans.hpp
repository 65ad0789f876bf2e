// In-memory span log for the traced run. Spans are recorded from the
// benchmark's own code around calls into the library's public functions;
// nothing inside the library is instrumented. The log is written out once,
// when the run ends, and the per-layer metrics are aggregated from it, so
// the dump and the printed numbers cannot disagree.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t op = 0;      ///< the op this span belongs to
  Clock::time_point start;
  Clock::time_point end;
  double amount = 0.0;  ///< work done: bytes, points or queries, per name

  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/// Totals of every span of one name.
struct SpanTotal {
  std::size_t count = 0;
  double seconds = 0.0;
  double amount = 0.0;
};

class SpanLog {
 public:
  /// Reserves an id, so children can name a parent that has not ended.
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  void record(Span span);

  std::map<std::string, SpanTotal> totals() const;

  /// Writes {"spans": [...]}, times in microseconds of the steady clock.
  void write_json(std::ostream& out) const;

 private:
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span when it ends (explicitly or at scope exit). A null log
/// makes it inert, which is how the untraced run pays nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t parent,
             std::uint64_t op);
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  void set_amount(double amount) { span_.amount = amount; }
  void rename(std::string name) { span_.name = std::move(name); }
  /// Ends the span; returns its duration in seconds.
  double end();

 private:
  SpanLog* log_;
  Span span_;
  bool ended_ = false;
};

}  // namespace perfbench
