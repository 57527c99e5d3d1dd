// Spans the benchmark records around its calls into the program's layers.
//
// A span has a name ("<layer>.<call>"), a start and an end on the
// obs::wall_now() clock (the same axis the program's own obs::Tracer
// uses), the span that encloses it, and the id of the op it belongs to:
// every span of one op shares that id. Each caller thread records into
// its own SpanLane, so recording takes no lock; the lanes are read only
// after their threads have been joined.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = "";     // string literal, "<layer>.<call>"
  int thread = 0;
  std::uint64_t id = 0;      // unique and non-zero
  std::uint64_t parent = 0;  // 0 for a root span
  std::uint64_t op = 0;      // request id shared by every span of one op
  double start = 0.0;        // seconds, obs::wall_now()
  double end = 0.0;

  [[nodiscard]] double duration() const { return end - start; }
};

class SpanLane {
 public:
  explicit SpanLane(int thread) : thread_(thread) {}

  void begin(const char* name, std::uint64_t op);
  void end();

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] int thread() const { return thread_; }

 private:
  int thread_;
  std::uint64_t next_seq_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  // indices into spans_, innermost last
};

// Scoped span; a null lane records nothing, so untraced code paths run the
// same statements as traced ones.
class Span {
 public:
  Span(SpanLane* lane, const char* name, std::uint64_t op) : lane_(lane) {
    if (lane_ != nullptr) lane_->begin(name, op);
  }
  ~Span() {
    if (lane_ != nullptr) lane_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLane* lane_;
};

// The layer a span belongs to: its name up to the first '.'.
std::string layer_of(const std::string& name);

// Self time of every span, in input order: its duration minus the part of
// its interval that the union of its children's intervals covers.
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

struct LayerSelfTime {
  std::string layer;
  double seconds = 0.0;  // summed self time
  std::size_t spans = 0;
};
// Self time summed per layer, sorted by layer name.
std::vector<LayerSelfTime> layer_self_times(const std::vector<SpanRecord>& spans);

// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev): the
// benchmark's spans as complete events on pid 1 (one tid per caller
// thread, args carry op / span / parent ids) and the program's own
// obs events on pid 2. Timestamps are microseconds from the earliest event.
void write_chrome_trace(std::ostream& out, const std::vector<SpanRecord>& spans,
                        const lbs::obs::TraceLog& program);

}  // namespace perfbench
