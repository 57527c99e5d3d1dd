#include "core/heuristic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "core/rounding.hpp"
#include "support/error.hpp"

namespace lbs::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One linear piece of a value function: `slope` more items per extra
// second of budget. In the low deque `extent` is the piece's end (stored
// coordinates); in the high deque it is the piece's length, and both
// fields are raw (see ValueFunction).
struct Piece {
  double slope = 0.0;
  double extent = 0.0;
};

// G_i(u) of LP (3): the most items processors i..p-1 can take when the
// root starts sending to processor i with u seconds left before T, every
// row j >= i holding. G_i is concave, non-decreasing and piecewise linear
// on [start, inf), so it is its value at `start` plus pieces of decreasing
// slope. A budget u is stored as u - shift_, so the b_i shift between
// stages is one addition. The low deque holds the pieces a stage leaves
// alone; the high deque holds the rest, front last, under a lazy map:
// slope = scale_ * raw + offset_ and length = raw / scale_.
class ValueFunction {
 public:
  explicit ValueFunction(std::size_t processors) {
    low_.reserve(processors + 2);
    high_.reserve(processors + 2);
    high_.push_back({0.0, kInf});  // G_p = 0 on every budget
  }

  // Turns G_{i+1} into G_i. Returns the budget split t_i: with w = u - b_i
  // left after processor i's fixed send, n_i = clamp((w - t_i) / beta_i,
  // 0, (w - c_i) / (alpha_i + beta_i)).
  double add_processor(const model::AffineCoeffs& comm, const model::AffineCoeffs& comp) {
    const double beta = comm.per_item;
    const double alpha = comp.per_item;
    const double fixed = comp.fixed;
    // Row i must hold at n_i = 0: budgets below c_i are infeasible.
    if (start_ + shift_ < fixed) cut_below(fixed);
    // Where beta_i * slope >= 1, an item for i costs the later processors
    // at least what it adds, so n_i = 0: those pieces form the low part.
    while (low_count() > 0 && !(beta * low_.back().slope >= 1.0)) lower_to_high();
    while (!high_.empty() && beta * high_slope(high_.back()) >= 1.0) high_to_low();
    const double split = low_end() + shift_;
    if (high_.empty()) {
      // The low part covers every budget: Theorem 2 drops processor i.
    } else if (alpha == 0.0) {
      // Row i never caps n_i: i takes every item beyond the split.
      high_.assign(1, Piece{1.0 / beta, kInf});
      scale_ = 1.0;
      offset_ = 0.0;
    } else {
      // Where row i caps n_i, a piece of slope s becomes (1 + alpha s) /
      // (alpha + beta), Theorem 2's recurrence, and (alpha + beta) / alpha
      // times longer; between the two parts n_i grows at slope 1/beta.
      // With beta = 0, i fills its row even at the least budget.
      if (beta == 0.0) value_ += (split - fixed) / alpha;
      const double ratio = alpha / (alpha + beta);
      scale_ *= ratio;
      offset_ = ratio * offset_ + 1.0 / (alpha + beta);
      const double length = beta * (split - fixed) / alpha;
      if (length > 0.0) high_.push_back({(1.0 / beta - offset_) / scale_, length * scale_});
      if (scale_ < 0x1p-500) flush();
    }
    shift_ += comm.fixed;
    return split;
  }

  // The least T at which the platform finishes `items`: min{u : G(u) >= items}.
  [[nodiscard]] double budget_for(double items) const {
    double need = items - value_;
    double begin = start_;
    if (need <= 0.0) return begin + shift_;
    for (std::size_t k = low_begin_; k < low_.size(); ++k) {
      const Piece& piece = low_[k];
      const double gain = piece.slope * (piece.extent - begin);
      if (gain >= need) return begin + need / piece.slope + shift_;
      need -= gain;
      begin = piece.extent;
    }
    for (std::size_t k = high_.size(); k-- > 0;) {
      const double slope = high_slope(high_[k]);
      const double length = high_[k].extent / scale_;
      if (slope * length >= need) return begin + need / slope + shift_;
      need -= slope * length;
      begin += length;
    }
    LBS_CHECK_MSG(false, "scatter LP: value function ends below n");
    return kInf;
  }

 private:
  [[nodiscard]] std::size_t low_count() const { return low_.size() - low_begin_; }
  [[nodiscard]] double high_slope(const Piece& raw) const {
    return scale_ * raw.slope + offset_;
  }
  [[nodiscard]] double low_end() const {
    return low_count() > 0 ? low_.back().extent : start_;
  }

  // Drops the budgets below `bound`, adding what they held to value_.
  void cut_below(double bound) {
    const double cut = bound - shift_;
    if (std::isinf(start_)) {  // G_p is flat: nothing to add
      start_ = cut;
      return;
    }
    for (; low_count() > 0; ++low_begin_) {
      const Piece& front = low_[low_begin_];
      if (front.extent > cut) {
        value_ += front.slope * (cut - start_);
        start_ = cut;
        return;
      }
      value_ += front.slope * (front.extent - start_);
      start_ = front.extent;
    }
    low_.clear();
    low_begin_ = 0;
    for (;;) {
      Piece& front = high_.back();
      const double slope = high_slope(front);
      const double length = front.extent / scale_;
      if (start_ + length > cut) {
        value_ += slope * (cut - start_);
        front.extent -= (cut - start_) * scale_;
        start_ = cut;
        return;
      }
      value_ += slope * length;
      start_ += length;
      high_.pop_back();
    }
  }

  void lower_to_high() {
    const Piece piece = low_.back();
    low_.pop_back();
    if (high_.empty()) {
      scale_ = 1.0;
      offset_ = 0.0;
    }
    high_.push_back({(piece.slope - offset_) / scale_, (piece.extent - low_end()) * scale_});
  }

  void high_to_low() {
    const Piece raw = high_.back();
    high_.pop_back();
    low_.push_back({high_slope(raw), low_end() + raw.extent / scale_});
  }

  // Applies the lazy map before its scale underflows the raw lengths.
  void flush() {
    for (Piece& raw : high_) raw = {high_slope(raw), raw.extent / scale_};
    scale_ = 1.0;
    offset_ = 0.0;
  }

  double start_ = -kInf;
  double value_ = 0.0;  // G(start)
  double shift_ = 0.0;
  std::vector<Piece> low_;
  std::size_t low_begin_ = 0;
  std::vector<Piece> high_;
  double scale_ = 1.0;
  double offset_ = 0.0;
};

// LP (3)'s optimum: the result's rational shares and rational makespan.
HeuristicResult solve_scatter_lp(std::span<const model::AffineCoeffs> comm,
                                 std::span<const model::AffineCoeffs> comp, long long items) {
  const std::size_t p = comm.size();
  const auto n = static_cast<double>(items);
  HeuristicResult optimum;
  optimum.rational_shares.assign(p, 0.0);

  // A processor with both slopes zero takes any number of items for free:
  // T is then the least at which every row holds with zero shares.
  for (std::size_t i = 0; i < p; ++i) {
    if (comm[i].per_item != 0.0 || comp[i].per_item != 0.0) continue;
    double port = 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      port += comm[j].fixed;
      optimum.rational_makespan = std::max(optimum.rational_makespan, port + comp[j].fixed);
    }
    optimum.rational_shares[i] = n;
    return optimum;
  }

  ValueFunction value(p);
  std::vector<double> split(p);
  for (std::size_t i = p; i-- > 0;) split[i] = value.add_processor(comm[i], comp[i]);
  optimum.rational_makespan = value.budget_for(n);

  double budget = optimum.rational_makespan;
  double left = n;
  for (std::size_t i = 0; i < p; ++i) {
    const double beta = comm[i].per_item;
    const double after_fixed = budget - comm[i].fixed;
    const double cap = (after_fixed - comp[i].fixed) / (comp[i].per_item + beta);
    double share = beta > 0.0 ? std::min((after_fixed - split[i]) / beta, cap) : cap;
    share = std::min(std::max(share, 0.0), left);
    optimum.rational_shares[i] = share;
    left = std::max(left - share, 0.0);
    budget = after_fixed - beta * share;
  }
  return optimum;
}

}  // namespace

HeuristicResult lp_heuristic(const model::Platform& platform, long long items) {
  LBS_CHECK_MSG(platform.size() >= 1, "empty platform");
  LBS_CHECK_MSG(items >= 0, "negative item count");
  LBS_CHECK_MSG(platform.all_costs_affine(),
                "the LP heuristic requires affine cost functions");

  int p = platform.size();
  std::vector<model::AffineCoeffs> comm(static_cast<std::size_t>(p));
  std::vector<model::AffineCoeffs> comp(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    comm[static_cast<std::size_t>(i)] = *platform[i].comm.affine();
    comp[static_cast<std::size_t>(i)] = *platform[i].comp.affine();
  }
  HeuristicResult result = solve_scatter_lp(comm, comp, items);
  result.distribution = round_distribution(result.rational_shares, items);
  result.makespan = makespan(platform, result.distribution);
  result.guarantee_slack = affine_rounding_guarantee_slack(platform);
  return result;
}

std::optional<std::vector<double>> affine_equal_finish_shares(
    const model::Platform& platform, long long items) {
  LBS_CHECK(platform.all_costs_affine());
  int p = platform.size();
  LBS_CHECK(p >= 1);

  // n_i = u_i + v_i · n_p, backward from n_p (u_p = 0, v_p = 1):
  //   α_i n_i + c_i = (β_{i+1} + α_{i+1}) n_{i+1} + b_{i+1} + c_{i+1}.
  std::vector<double> u(static_cast<std::size_t>(p), 0.0);
  std::vector<double> v(static_cast<std::size_t>(p), 0.0);
  u[static_cast<std::size_t>(p - 1)] = 0.0;
  v[static_cast<std::size_t>(p - 1)] = 1.0;
  for (int i = p - 2; i >= 0; --i) {
    auto comm_next = *platform[i + 1].comm.affine();
    auto comp_next = *platform[i + 1].comp.affine();
    auto comp_here = *platform[i].comp.affine();
    if (comp_here.per_item <= 0.0) return std::nullopt;
    double slope = comm_next.per_item + comp_next.per_item;
    double constant = comm_next.fixed + comp_next.fixed - comp_here.fixed;
    u[static_cast<std::size_t>(i)] =
        (slope * u[static_cast<std::size_t>(i + 1)] + constant) / comp_here.per_item;
    v[static_cast<std::size_t>(i)] =
        slope * v[static_cast<std::size_t>(i + 1)] / comp_here.per_item;
  }

  double sum_u = 0.0;
  double sum_v = 0.0;
  for (int i = 0; i < p; ++i) {
    sum_u += u[static_cast<std::size_t>(i)];
    sum_v += v[static_cast<std::size_t>(i)];
  }
  if (sum_v <= 0.0) return std::nullopt;
  double last = (static_cast<double>(items) - sum_u) / sum_v;

  std::vector<double> shares(static_cast<std::size_t>(p), 0.0);
  for (int i = 0; i < p; ++i) {
    shares[static_cast<std::size_t>(i)] =
        u[static_cast<std::size_t>(i)] + v[static_cast<std::size_t>(i)] * last;
    if (!(shares[static_cast<std::size_t>(i)] > 0.0) ||
        !std::isfinite(shares[static_cast<std::size_t>(i)])) {
      return std::nullopt;
    }
  }
  return shares;
}

}  // namespace lbs::core
