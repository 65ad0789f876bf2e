#include "spans.hpp"

#include <cstdio>

namespace perfbench {

void SpanLog::record(Span span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::map<std::string, SpanTotal> SpanLog::totals() const {
  const std::lock_guard lock(mutex_);
  std::map<std::string, SpanTotal> out;
  for (const Span& span : spans_) {
    SpanTotal& total = out[span.name];
    ++total.count;
    total.seconds += span.seconds();
    total.amount += span.amount;
  }
  return out;
}

void SpanLog::write_json(std::ostream& out) const {
  const std::lock_guard lock(mutex_);
  auto micros = [](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t.time_since_epoch())
        .count();
  };
  out << "{\"spans\": [";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                  "\"op\": %llu, \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"amount\": %.17g}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op), micros(s.start),
                  micros(s.end), s.amount);
    out << line;
  }
  out << "\n]}";
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::uint64_t parent,
                       std::uint64_t op)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.name = std::move(name);
  span_.id = log_->next_id();
  span_.parent = parent;
  span_.op = op;
  span_.start = Clock::now();
}

double ScopedSpan::end() {
  if (log_ == nullptr || ended_) return span_.seconds();
  ended_ = true;
  span_.end = Clock::now();
  log_->record(span_);
  return span_.seconds();
}

}  // namespace perfbench
