// The one quantile helper every workload reports its timings through.
//
// A timing is reported as its median and one tail percentile, and only
// when at least kMinBeyondTail samples lie beyond that tail: fewer than
// that and the tail is a handful of outliers, which is how a percentile
// ends up reading a different op class from one run to the next.
//
// Latencies go into a fixed-size log-linear histogram, so the benchmark's
// own memory does not grow with the number of ops it times (peak RSS is a
// reported metric).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyondTail = 10;

// Nanosecond buckets: exact below 1024 ns, then 512 buckets per power of
// two, so a bucket is at most 0.2% of its values wide.
class LatencyHistogram {
 public:
  void record(double seconds);
  void merge(const LatencyHistogram& other);
  [[nodiscard]] std::uint64_t count() const { return total_; }

  // The value of the sample of 0-based rank `k` (< count()), taking the
  // samples of a bucket as spread evenly across it. Seconds.
  [[nodiscard]] double value_at(std::uint64_t k) const;

  static constexpr int kExactBits = 10;

 private:
  static std::size_t bucket_of(std::uint64_t nanoseconds);
  static void bounds(std::size_t bucket, double& low, double& width);

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// Linear interpolation between closest ranks (the "type 7" estimator).
// `sorted` must be ascending and non-empty; q in [0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q);

struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;      // seconds
  double tail_q = 0.0;   // the tail percentile as a fraction, e.g. 0.9
  double tail = 0.0;     // seconds
  std::size_t beyond_tail = 0;  // samples strictly greater than `tail`

  [[nodiscard]] bool tail_supported() const { return beyond_tail >= kMinBeyondTail; }
  // e.g. "p99"
  [[nodiscard]] std::string tail_label() const;
};

// Type-7 quantiles over the histogram's samples. An empty histogram gives
// a zero Summary, which never supports its tail.
Summary summarize(const LatencyHistogram& histogram, double tail_q);

// Plain median (0 for an empty input); used for per-layer rows.
double median(std::vector<double> samples);

}  // namespace perfbench
