// Host-time spans recorded by the benchmark around its calls into the
// simulator's public functions (the traced run only).
//
// Spans live in memory while the benchmark runs and are written out once at
// exit as a Chrome trace (common/chrome_trace). Each span has a name, a
// start and end on the host steady clock, the span that caused it, and the
// id of the simulation cell it belongs to, shared by every span of a cell.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     // static string: a layer boundary name
  std::uint32_t cell = 0;    // cell id, shared by every span of one cell
  std::uint32_t id = 0;      // 1-based position in the recorder
  std::uint32_t parent = 0;  // 0 = root span
  std::int64_t start_ns = 0;  // host time since the recorder was created
  std::int64_t end_ns = -1;   // -1 while the span is open
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its id.
  std::uint32_t open(const char* name, std::uint32_t cell,
                     std::uint32_t parent);
  void close(std::uint32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction. A null
/// recorder records nothing, so untraced code paths pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint32_t cell,
             std::uint32_t parent)
      : recorder_(recorder),
        id_(recorder == nullptr ? 0 : recorder->open(name, cell, parent)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::uint32_t id_;
};

/// Duration of `span` in seconds.
[[nodiscard]] double duration_s(const Span& span);

/// Self time of every span (index-aligned with `spans`): its duration minus
/// the durations of its direct children, in seconds.
[[nodiscard]] std::vector<double> self_times_s(const std::vector<Span>& spans);

/// Sum of the durations (`self` = false) or self times (`self` = true) of
/// every span named `name`.
[[nodiscard]] double total_s(const std::vector<Span>& spans,
                             const std::string& name, bool self = false);

/// Checks that every span is closed, lies within its parent, belongs to
/// its parent's cell and has a self time >= 0. Returns one line per
/// violation; empty when the trace is valid.
[[nodiscard]] std::vector<std::string> validate_spans(
    const std::vector<Span>& spans);

/// Chrome-trace JSON of `spans` (complete events, one thread per cell; the
/// span, parent and cell ids ride along as event args).
[[nodiscard]] std::string chrome_trace(const std::vector<Span>& spans);

}  // namespace perfbench
