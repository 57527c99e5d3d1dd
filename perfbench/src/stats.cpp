#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kExact = std::size_t{1} << LatencyHistogram::kExactBits;
constexpr std::size_t kPerOctave = kExact / 2;
constexpr std::size_t kBuckets = kExact + kPerOctave * (64 - LatencyHistogram::kExactBits);

}  // namespace

std::size_t LatencyHistogram::bucket_of(std::uint64_t ns) {
  if (ns < kExact) return static_cast<std::size_t>(ns);
  // ns >> shift lands in [kPerOctave, kExact).
  const int shift = static_cast<int>(std::bit_width(ns)) - kExactBits;
  return kExact + static_cast<std::size_t>(shift - 1) * kPerOctave +
         static_cast<std::size_t>((ns >> shift) - kPerOctave);
}

void LatencyHistogram::bounds(std::size_t bucket, double& low, double& width) {
  if (bucket < kExact) {
    low = static_cast<double>(bucket);
    width = 1.0;
    return;
  }
  const std::size_t octave = (bucket - kExact) / kPerOctave;
  const std::size_t sub = (bucket - kExact) % kPerOctave + kPerOctave;
  width = std::ldexp(1.0, static_cast<int>(octave) + 1);
  low = static_cast<double>(sub) * width;
}

void LatencyHistogram::record(double seconds) {
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  const double ns = std::max(0.0, seconds * 1e9);
  const auto clamped = ns >= 1.8e19 ? ~std::uint64_t{0} : static_cast<std::uint64_t>(ns);
  ++counts_[bucket_of(clamped)];
  ++total_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.total_ == 0) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
}

double LatencyHistogram::value_at(std::uint64_t k) const {
  if (k >= total_) throw std::out_of_range("histogram rank beyond its count");
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (k < before + counts_[b]) {
      double low = 0, width = 0;
      bounds(b, low, width);
      const double position =
          (static_cast<double>(k - before) + 0.5) / static_cast<double>(counts_[b]);
      return (low + position * width) * 1e-9;
    }
    before += counts_[b];
  }
  throw std::logic_error("histogram counts do not add up");
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("quantile outside [0, 1]");
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, sorted.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return sorted[lower] + fraction * (sorted[upper] - sorted[lower]);
}

std::string Summary::tail_label() const {
  return "p" + std::to_string(static_cast<int>(std::lround(tail_q * 100.0)));
}

Summary summarize(const LatencyHistogram& histogram, double tail_q) {
  Summary summary;
  summary.tail_q = tail_q;
  const std::uint64_t n = histogram.count();
  if (n == 0) return summary;
  auto quantile = [&](double q, std::uint64_t& lower) {
    const double position = q * static_cast<double>(n - 1);
    lower = static_cast<std::uint64_t>(std::floor(position));
    const std::uint64_t upper = std::min(lower + 1, n - 1);
    const double low = histogram.value_at(lower);
    return low + (position - static_cast<double>(lower)) * (histogram.value_at(upper) - low);
  };
  std::uint64_t lower = 0;
  summary.count = static_cast<std::size_t>(n);
  summary.p50 = quantile(0.5, lower);
  summary.tail = quantile(tail_q, lower);
  // Histogram samples are distinct points, so exactly those above rank
  // `lower` lie beyond the tail value.
  summary.beyond_tail = static_cast<std::size_t>(n - 1 - lower);
  return summary;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, 0.5);
}

}  // namespace perfbench
