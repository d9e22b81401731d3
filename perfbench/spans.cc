#include "spans.h"

#include "common/chrome_trace.h"

namespace perfbench {

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint32_t SpanRecorder::open(const char* name, std::uint32_t cell,
                                 std::uint32_t parent) {
  Span span;
  span.name = name;
  span.cell = cell;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return span.id;
}

void SpanRecorder::close(std::uint32_t id) { spans_[id - 1].end_ns = now_ns(); }

double duration_s(const Span& span) {
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

std::vector<double> self_times_s(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] += duration_s(spans[i]);
    if (spans[i].parent != 0) self[spans[i].parent - 1] -= duration_s(spans[i]);
  }
  return self;
}

double total_s(const std::vector<Span>& spans, const std::string& name,
               bool self) {
  const std::vector<double> self_s = self ? self_times_s(spans)
                                          : std::vector<double>{};
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) {
      total += self ? self_s[i] : duration_s(spans[i]);
    }
  }
  return total;
}

std::vector<std::string> validate_spans(const std::vector<Span>& spans) {
  std::vector<std::string> issues;
  const auto where = [](const Span& s) {
    return std::string(s.name) + " #" + std::to_string(s.id) + " (cell " +
           std::to_string(s.cell) + ")";
  };
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) {
      issues.push_back(where(s) + ": not closed or ends before it starts");
      continue;
    }
    if (s.parent == 0) continue;
    if (s.parent >= s.id) {
      issues.push_back(where(s) + ": parent opened after the child");
      continue;
    }
    const Span& p = spans[s.parent - 1];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      issues.push_back(where(s) + ": outside its parent " + where(p));
    }
    if (s.cell != p.cell) {
      issues.push_back(where(s) + ": cell differs from its parent " +
                       where(p));
    }
  }
  const std::vector<double> self = self_times_s(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (self[i] < 0.0) {
      issues.push_back(where(spans[i]) + ": negative self time");
    }
  }
  return issues;
}

std::string chrome_trace(const std::vector<Span>& spans) {
  std::vector<moca::ChromeTraceEvent> events;
  events.reserve(spans.size());
  for (const Span& s : spans) {
    moca::ChromeTraceEvent ev;
    ev.name = s.name;
    ev.category = "perfbench";
    ev.phase = 'X';
    // The trace format's timestamps are picoseconds; host ns scale up.
    ev.ts = static_cast<moca::TimePs>(s.start_ns) * 1000;
    ev.dur = static_cast<moca::TimePs>(s.end_ns - s.start_ns) * 1000;
    ev.tid = s.cell;
    ev.args = {{"span", s.id}, {"parent", s.parent}, {"cell", s.cell}};
    events.push_back(std::move(ev));
  }
  return moca::chrome_trace_json(events);
}

}  // namespace perfbench
