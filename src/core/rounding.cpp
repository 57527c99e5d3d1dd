#include "core/rounding.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/error.hpp"

namespace lbs::core {

Distribution round_distribution(std::span<const double> shares, long long items) {
  LBS_CHECK_MSG(!shares.empty(), "rounding an empty distribution");
  LBS_CHECK(items >= 0);
  double total = 0.0;
  for (double share : shares) {
    LBS_CHECK_MSG(share >= -1e-9, "negative rational share");
    total += share;
  }
  LBS_CHECK_MSG(std::abs(total - static_cast<double>(items)) < 0.5,
                "rational shares do not sum to n");

  std::size_t p = shares.size();
  Distribution result;
  result.counts.assign(p, 0);
  std::vector<char> done(p, 0);

  // Each share's distance to its floor and to its ceiling, as the scan
  // computes them, sorted once each with ties to the smaller index. The
  // pick nearest its rounding target is then the first undone entry of
  // one order: the ceiling order while e < 0, the floor order while e > 0,
  // and while e == 0 whichever head is nearer (|round(s) - s| is the
  // smaller of the two distances, bit for bit).
  using Entry = std::pair<double, std::size_t>;
  std::vector<Entry> by_floor(p);
  std::vector<Entry> by_ceil(p);
  for (std::size_t i = 0; i < p; ++i) {
    double share = std::max(shares[i], 0.0);
    by_floor[i] = {std::abs(std::floor(share) - share), i};
    by_ceil[i] = {std::abs(std::ceil(share) - share), i};
  }
  std::sort(by_floor.begin(), by_floor.end());
  std::sort(by_ceil.begin(), by_ceil.end());
  std::size_t floor_head = 0;
  std::size_t ceil_head = 0;

  // error = (assigned so far) - (rational so far); the paper's e.
  double error = 0.0;
  for (std::size_t step = 0; step + 1 < p; ++step) {
    while (done[by_floor[floor_head].second]) ++floor_head;
    while (done[by_ceil[ceil_head].second]) ++ceil_head;
    const Entry& lower = by_floor[floor_head];
    const Entry& upper = by_ceil[ceil_head];
    const std::size_t best = error < 0.0   ? upper.second
                             : error > 0.0 ? lower.second
                                           : std::min(lower, upper).second;
    const double share = std::max(shares[best], 0.0);
    const double value = error < 0.0   ? std::ceil(share)
                         : error > 0.0 ? std::floor(share)
                                       : std::round(share);
    done[best] = 1;
    result.counts[best] = static_cast<long long>(value);
    error += value - shares[best];
  }

  // Last share absorbs the residual: n'_k = n_k - e (so the total is exact).
  std::size_t last = p;
  for (std::size_t i = 0; i < p; ++i) {
    if (!done[i]) last = i;
  }
  LBS_CHECK(last < p);
  long long assigned = 0;
  for (std::size_t i = 0; i < p; ++i) {
    if (i != last) assigned += result.counts[i];
  }
  long long remainder = items - assigned;
  LBS_CHECK_MSG(remainder >= 0, "rounding produced a negative share");
  LBS_CHECK_MSG(std::abs(static_cast<double>(remainder) - shares[last]) < 1.0 + 1e-6,
                "rounding drifted more than one item");
  result.counts[last] = remainder;
  return result;
}

namespace {

// The Section 3.3 scheme in exact arithmetic, generic over the rational
// type (128-bit Rational or arbitrary-precision BigRational).
template <typename Rat>
Distribution round_exact_impl(std::span<const Rat> shares, long long items) {
  using Rational = Rat;
  LBS_CHECK_MSG(!shares.empty(), "rounding an empty distribution");
  LBS_CHECK(items >= 0);
  Rational total;
  for (const auto& share : shares) {
    LBS_CHECK_MSG(!share.is_negative(), "negative rational share");
    total += share;
  }
  LBS_CHECK_MSG(total == Rational(items), "rational shares do not sum to n");

  std::size_t p = shares.size();
  Distribution result;
  result.counts.assign(p, 0);
  std::vector<bool> done(p, false);

  Rational error;  // (assigned so far) - (rational so far)
  for (std::size_t step = 0; step + 1 < p; ++step) {
    std::size_t best = p;
    Rational best_distance;
    Rational best_value;
    for (std::size_t i = 0; i < p; ++i) {
      if (done[i]) continue;
      Rational target;
      if (error.is_negative()) {
        target = shares[i].ceil();
      } else if (error > Rational(0)) {
        target = shares[i].floor();
      } else {
        target = shares[i].round();
      }
      Rational distance = (target - shares[i]).abs();
      if (best == p || distance < best_distance) {
        best_distance = distance;
        best = i;
        best_value = target;
      }
    }
    LBS_CHECK(best < p);
    done[best] = true;
    result.counts[best] = best_value.to_int64();
    error += best_value - shares[best];
  }

  std::size_t last = p;
  for (std::size_t i = 0; i < p; ++i) {
    if (!done[i]) last = i;
  }
  LBS_CHECK(last < p);
  // n'_last = n_last - e: exact, integer by construction.
  Rational final_share = shares[last] - error;
  LBS_CHECK_MSG(final_share.is_integer(), "exact rounding lost integrality");
  long long final_count = final_share.to_int64();
  LBS_CHECK_MSG(final_count >= 0, "exact rounding produced a negative share");
  LBS_CHECK_MSG((final_share - shares[last]).abs() < Rational(1),
                "exact rounding drifted a full item");
  result.counts[last] = final_count;
  return result;
}

}  // namespace

Distribution round_distribution_exact(std::span<const support::Rational> shares,
                                      long long items) {
  return round_exact_impl(shares, items);
}

Distribution round_distribution_exact(std::span<const support::BigRational> shares,
                                      long long items) {
  return round_exact_impl(shares, items);
}

double rounding_guarantee_slack(const model::Platform& platform) {
  double comm_sum = 0.0;
  double comp_max = 0.0;
  for (int i = 0; i < platform.size(); ++i) {
    comm_sum += platform[i].comm(1);
    comp_max = std::max(comp_max, platform[i].comp(1));
  }
  return comm_sum + comp_max;
}

double affine_rounding_guarantee_slack(const model::Platform& platform) {
  double comm_sum = 0.0;
  double comp_fixed_max = 0.0;
  double comp_slope_max = 0.0;
  for (int i = 0; i < platform.size(); ++i) {
    comm_sum += platform[i].comm(1);
    auto comp = platform[i].comp.affine();
    LBS_CHECK_MSG(comp.has_value(),
                  "affine_rounding_guarantee_slack requires affine costs");
    comp_fixed_max = std::max(comp_fixed_max, comp->fixed);
    comp_slope_max = std::max(comp_slope_max, comp->per_item);
  }
  return comm_sum + comp_fixed_max + comp_slope_max;
}

}  // namespace lbs::core
