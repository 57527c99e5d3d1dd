#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

void SpanLane::begin(const char* name, std::uint64_t op) {
  SpanRecord record;
  record.name = name;
  record.thread = thread_;
  record.id = (static_cast<std::uint64_t>(thread_ + 1) << 40) | ++next_seq_;
  record.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  record.op = op;
  open_.push_back(spans_.size());
  record.start = lbs::obs::wall_now();
  spans_.push_back(record);
}

void SpanLane::end() {
  if (open_.empty()) throw std::logic_error("SpanLane::end without an open span");
  spans_[open_.back()].end = lbs::obs::wall_now();
  open_.pop_back();
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent == 0) continue;
    auto it = index.find(span.parent);
    if (it != index.end()) children[it->second].emplace_back(span.start, span.end);
  }

  std::vector<double> result(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double cursor = span.start;  // end of the union swept so far
    for (auto [start, end] : intervals) {
      start = std::max(start, cursor);
      end = std::min(end, span.end);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    result[i] = std::max(0.0, span.duration() - covered);
  }
  return result;
}

std::vector<LayerSelfTime> layer_self_times(const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, LayerSelfTime> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = layer_of(spans[i].name);
    LayerSelfTime& row = layers[layer];
    row.layer = layer;
    row.seconds += self[i];
    ++row.spans;
  }
  std::vector<LayerSelfTime> result;
  for (auto& [name, row] : layers) result.push_back(row);
  return result;
}

namespace {

void put_number(std::ostream& out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", value);
  out << buffer;
}

}  // namespace

void write_chrome_trace(std::ostream& out, const std::vector<SpanRecord>& spans,
                        const lbs::obs::TraceLog& program) {
  double origin = std::numeric_limits<double>::infinity();
  for (const SpanRecord& span : spans) origin = std::min(origin, span.start);
  for (const auto& event : program.events) origin = std::min(origin, event.start);
  if (spans.empty() && program.events.empty()) origin = 0.0;

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"benchmark spans"}})";
  out << ",\n"
      << R"({"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"program obs events"}})";
  for (const SpanRecord& span : spans) {
    out << ",\n{\"name\":\"" << span.name << "\",\"cat\":\"" << layer_of(span.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread << ",\"ts\":";
    put_number(out, (span.start - origin) * 1e6);
    out << ",\"dur\":";
    put_number(out, span.duration() * 1e6);
    out << ",\"args\":{\"op\":" << span.op << ",\"span\":" << span.id
        << ",\"parent\":" << span.parent << "}}";
  }
  for (const auto& event : program.events) {
    out << ",\n{\"name\":\"" << lbs::obs::to_string(event.type)
        << "\",\"cat\":\"program\",\"ph\":\"" << (event.instant ? "i" : "X")
        << "\",\"pid\":2,\"tid\":" << (event.rank + 1) << ",\"ts\":";
    put_number(out, (event.start - origin) * 1e6);
    if (event.instant) {
      out << ",\"s\":\"t\"";
    } else {
      out << ",\"dur\":";
      put_number(out, event.duration * 1e6);
    }
    out << ",\"args\":{\"arg0\":" << event.arg0 << ",\"arg1\":" << event.arg1
        << ",\"arg2\":" << event.arg2 << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
