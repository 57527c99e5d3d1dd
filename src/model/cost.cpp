#include "model/cost.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "support/error.hpp"

namespace lbs::model {

namespace {

// FNV-1a over 64-bit words; doubles are hashed by bit pattern so that
// distinct parameters (including -0.0 vs 0.0) produce distinct streams.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_mix(std::uint64_t h, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return hash_mix(h, bits);
}

// t(0) = 0 for every kind: writes it when `out` starts at x = 0 and
// returns the index of the first entry left to fill.
std::size_t fill_origin(long long first, std::span<double> out) {
  LBS_CHECK(first >= 0);
  if (first == 0 && !out.empty()) {
    out[0] = 0.0;
    return 1;
  }
  return 0;
}

CostPiece one_piece(long long x, double slope, long long period = 0) {
  LBS_CHECK(x >= 1);
  return CostPiece{1, CostPiece::kUnbounded, slope, period};
}

class ZeroCost final : public CostFunction {
 public:
  bool is_increasing() const override { return true; }
  std::optional<AffineCoeffs> affine() const override {
    return AffineCoeffs{0.0, 0.0};
  }
  std::string describe() const override { return "zero"; }
  std::uint64_t fingerprint() const override { return hash_mix(kFnvOffset, std::uint64_t{1}); }
  CostSpec spec() const override { return CostSpec{}; }
  void fill(long long first, std::span<double> out) const override {
    LBS_CHECK(first >= 0);
    std::fill(out.begin(), out.end(), 0.0);
  }
  CostPiece piece(long long x) const override {
    return one_piece(x, 0.0);
  }
};

class LinearCost final : public CostFunction {
 public:
  explicit LinearCost(double per_item) : per_item_(per_item) {
    LBS_CHECK_MSG(per_item >= 0.0, "negative cost slope");
  }
  bool is_increasing() const override { return true; }
  std::optional<AffineCoeffs> affine() const override {
    return AffineCoeffs{0.0, per_item_};
  }
  std::string describe() const override {
    std::ostringstream out;
    out << per_item_ << "*x";
    return out.str();
  }
  std::uint64_t fingerprint() const override {
    return hash_mix(hash_mix(kFnvOffset, std::uint64_t{2}), per_item_);
  }
  CostSpec spec() const override {
    CostSpec out;
    out.kind = CostSpec::Kind::Linear;
    out.a = per_item_;
    return out;
  }
  void fill(long long first, std::span<double> out) const override {
    LBS_CHECK(first >= 0);
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] = per_item_ * static_cast<double>(first + static_cast<long long>(j));
    }
  }
  CostPiece piece(long long x) const override {
    return one_piece(x, per_item_);
  }

 private:
  double per_item_;
};

class AffineCost final : public CostFunction {
 public:
  AffineCost(double fixed, double per_item) : fixed_(fixed), per_item_(per_item) {
    LBS_CHECK_MSG(fixed >= 0.0 && per_item >= 0.0, "negative affine cost");
  }
  bool is_increasing() const override { return true; }
  std::optional<AffineCoeffs> affine() const override {
    return AffineCoeffs{fixed_, per_item_};
  }
  std::string describe() const override {
    std::ostringstream out;
    out << fixed_ << " + " << per_item_ << "*x";
    return out.str();
  }
  std::uint64_t fingerprint() const override {
    return hash_mix(hash_mix(hash_mix(kFnvOffset, std::uint64_t{3}), fixed_), per_item_);
  }
  CostSpec spec() const override {
    CostSpec out;
    out.kind = CostSpec::Kind::Affine;
    out.a = per_item_;
    out.b = fixed_;
    return out;
  }
  void fill(long long first, std::span<double> out) const override {
    for (std::size_t j = fill_origin(first, out); j < out.size(); ++j) {
      out[j] = fixed_ + per_item_ * static_cast<double>(first + static_cast<long long>(j));
    }
  }
  CostPiece piece(long long x) const override {
    return one_piece(x, per_item_);
  }

 private:
  double fixed_;
  double per_item_;
};

class TabulatedCost final : public CostFunction {
 public:
  explicit TabulatedCost(std::vector<std::pair<long long, double>> samples)
      : samples_(std::move(samples)) {
    LBS_CHECK_MSG(!samples_.empty(), "tabulated cost needs samples");
    long long prev_x = 0;
    double prev_y = 0.0;
    increasing_ = true;
    for (const auto& [x, y] : samples_) {
      LBS_CHECK_MSG(x > prev_x || (prev_x == 0 && x > 0),
                    "tabulated samples must have strictly increasing x > 0");
      LBS_CHECK_MSG(y >= 0.0, "negative cost sample");
      if (y < prev_y) increasing_ = false;
      prev_x = x;
      prev_y = y;
    }
  }

  bool is_increasing() const override { return increasing_; }
  std::optional<AffineCoeffs> affine() const override { return std::nullopt; }
  std::string describe() const override {
    std::ostringstream out;
    out << "tabulated[" << samples_.size() << " samples]";
    return out.str();
  }
  std::uint64_t fingerprint() const override {
    std::uint64_t h = hash_mix(kFnvOffset, std::uint64_t{4});
    for (const auto& [x, y] : samples_) {
      h = hash_mix(hash_mix(h, static_cast<std::uint64_t>(x)), y);
    }
    return h;
  }
  CostSpec spec() const override {
    CostSpec out;
    out.kind = CostSpec::Kind::Tabulated;
    out.samples = samples_;
    return out;
  }

  // Linear interpolation through the samples, (0,0) implied, and the
  // last segment's slope past the last sample.
  void fill(long long first, std::span<double> out) const override {
    std::size_t j = fill_origin(first, out);
    if (j == out.size()) return;
    // The segment holding the first item: the first sample at or past it.
    auto segment = std::lower_bound(
        samples_.begin(), samples_.end(), first + static_cast<long long>(j),
        [](const std::pair<long long, double>& sample, long long x) {
          return sample.first < x;
        });
    for (; segment != samples_.end() && j < out.size(); ++segment) {
      const bool at_origin = segment == samples_.begin();
      const long long x0 = at_origin ? 0 : std::prev(segment)->first;
      const double y0 = at_origin ? 0.0 : std::prev(segment)->second;
      const auto& [x1, y1] = *segment;
      const double dx = static_cast<double>(x1 - x0);
      const double dy = y1 - y0;
      for (; j < out.size() && first + static_cast<long long>(j) <= x1; ++j) {
        const double t = static_cast<double>(first + static_cast<long long>(j) - x0) / dx;
        out[j] = y0 + t * dy;
      }
    }
    const auto& [xl, yl] = samples_.back();
    const double slope = tail_slope();
    for (; j < out.size(); ++j) {
      out[j] = yl + slope * static_cast<double>(first + static_cast<long long>(j) - xl);
    }
  }

  CostPiece piece(long long x) const override {
    LBS_CHECK(x >= 1);
    const auto segment = std::lower_bound(
        samples_.begin(), samples_.end(), x,
        [](const std::pair<long long, double>& sample, long long item) {
          return sample.first < item;
        });
    if (segment == samples_.end()) {
      return {samples_.back().first + 1, CostPiece::kUnbounded, tail_slope()};
    }
    const bool at_origin = segment == samples_.begin();
    const long long x0 = at_origin ? 0 : std::prev(segment)->first;
    const double y0 = at_origin ? 0.0 : std::prev(segment)->second;
    const auto& [x1, y1] = *segment;
    return {x0 + 1, x1 + 1, (y1 - y0) / static_cast<double>(x1 - x0)};
  }

 private:
  // Slope of the extrapolated tail: the last segment's.
  double tail_slope() const {
    const auto& [xl, yl] = samples_.back();
    if (samples_.size() < 2) return yl / static_cast<double>(xl);
    const auto& [xp, yp] = samples_[samples_.size() - 2];
    return (yl - yp) / static_cast<double>(xl - xp);
  }

  std::vector<std::pair<long long, double>> samples_;
  bool increasing_ = true;
};

class ChunkedCost final : public CostFunction {
 public:
  ChunkedCost(double per_item, long long chunk, double step)
      : per_item_(per_item), chunk_(chunk), step_(step) {
    LBS_CHECK_MSG(per_item >= 0.0 && step >= 0.0, "negative chunked cost");
    LBS_CHECK_MSG(chunk > 0, "chunk size must be positive");
  }
  bool is_increasing() const override { return true; }
  std::optional<AffineCoeffs> affine() const override {
    if (step_ == 0.0) return AffineCoeffs{0.0, per_item_};
    return std::nullopt;
  }
  std::string describe() const override {
    std::ostringstream out;
    out << per_item_ << "*x + " << step_ << "*floor(x/" << chunk_ << ")";
    return out.str();
  }
  std::uint64_t fingerprint() const override {
    std::uint64_t h = hash_mix(kFnvOffset, std::uint64_t{5});
    h = hash_mix(h, per_item_);
    h = hash_mix(h, static_cast<std::uint64_t>(chunk_));
    return hash_mix(h, step_);
  }
  CostSpec spec() const override {
    CostSpec out;
    out.kind = CostSpec::Kind::Chunked;
    out.a = per_item_;
    out.b = step_;
    out.chunk = chunk_;
    return out;
  }
  // per_item * x + step * floor(x / chunk), one chunk at a time.
  void fill(long long first, std::span<double> out) const override {
    std::size_t j = fill_origin(first, out);
    while (j < out.size()) {
      const long long x = first + static_cast<long long>(j);
      const double term = step_ * static_cast<double>(x / chunk_);
      const std::size_t stop =
          j + static_cast<std::size_t>(std::min<long long>(
                  chunk_ - x % chunk_, static_cast<long long>(out.size() - j)));
      for (; j < stop; ++j) {
        out[j] = per_item_ * static_cast<double>(first + static_cast<long long>(j)) + term;
      }
    }
  }
  CostPiece piece(long long x) const override {
    return one_piece(x, per_item_, step_ == 0.0 ? 0 : chunk_);
  }

 private:
  double per_item_;
  long long chunk_;
  double step_;
};

class ScaledCost final : public CostFunction {
 public:
  ScaledCost(Cost inner, double factor) : inner_(std::move(inner)), factor_(factor) {
    LBS_CHECK_MSG(factor > 0.0, "cost scale factor must be positive");
  }
  bool is_increasing() const override { return inner_.is_increasing(); }
  std::optional<AffineCoeffs> affine() const override {
    auto coeffs = inner_.affine();
    if (!coeffs) return std::nullopt;
    return AffineCoeffs{factor_ * coeffs->fixed, factor_ * coeffs->per_item};
  }
  std::string describe() const override {
    std::ostringstream out;
    out << factor_ << " * (" << inner_.describe() << ")";
    return out.str();
  }
  std::uint64_t fingerprint() const override {
    return hash_mix(hash_mix(hash_mix(kFnvOffset, std::uint64_t{6}), factor_),
                    inner_.fingerprint());
  }
  CostSpec spec() const override {
    CostSpec out;
    out.kind = CostSpec::Kind::Scaled;
    out.a = factor_;
    out.inner = std::make_shared<const CostSpec>(inner_.spec());
    return out;
  }
  void fill(long long first, std::span<double> out) const override {
    inner_.fill(first, out);
    for (double& value : out) value = factor_ * value;
  }
  CostPiece piece(long long x) const override {
    CostPiece out = inner_.piece(x);
    out.slope = factor_ * out.slope;
    return out;
  }

 private:
  Cost inner_;
  double factor_;
};

}  // namespace

Cost::Cost() : fn_(std::make_shared<ZeroCost>()) {}

Cost Cost::linear(double per_item) {
  return Cost(std::make_shared<LinearCost>(per_item));
}

Cost Cost::affine(double fixed, double per_item) {
  if (fixed == 0.0) return linear(per_item);
  return Cost(std::make_shared<AffineCost>(fixed, per_item));
}

Cost Cost::zero() {
  return Cost(std::make_shared<ZeroCost>());
}

Cost Cost::tabulated(std::vector<std::pair<long long, double>> samples) {
  return Cost(std::make_shared<TabulatedCost>(std::move(samples)));
}

Cost Cost::chunked(double per_item, long long chunk, double step) {
  return Cost(std::make_shared<ChunkedCost>(per_item, chunk, step));
}

Cost Cost::from_bandwidth(double megabits_per_s, std::size_t item_bytes,
                          double latency_s) {
  LBS_CHECK_MSG(megabits_per_s > 0.0, "non-positive bandwidth");
  LBS_CHECK_MSG(item_bytes > 0, "zero item size");
  double per_item =
      static_cast<double>(item_bytes) * 8.0 / (megabits_per_s * 1e6);
  return affine(latency_s, per_item);
}

Cost Cost::scaled(Cost inner, double factor) {
  if (factor == 1.0) return inner;
  return Cost(std::make_shared<ScaledCost>(std::move(inner), factor));
}

Cost Cost::from_spec(const CostSpec& spec) {
  switch (spec.kind) {
    case CostSpec::Kind::Zero: return zero();
    case CostSpec::Kind::Linear: return linear(spec.a);
    case CostSpec::Kind::Affine: return affine(spec.b, spec.a);
    case CostSpec::Kind::Tabulated: return tabulated(spec.samples);
    case CostSpec::Kind::Chunked: return chunked(spec.a, spec.chunk, spec.b);
    case CostSpec::Kind::Scaled:
      LBS_CHECK_MSG(spec.inner != nullptr, "scaled cost spec without inner");
      return scaled(from_spec(*spec.inner), spec.a);
  }
  LBS_CHECK_MSG(false, "unknown cost spec kind");
  return zero();  // unreachable
}

double Cost::per_item_slope() const {
  auto coeffs = fn_->affine();
  LBS_CHECK_MSG(coeffs.has_value(), "per_item_slope on non-affine cost");
  return coeffs->per_item;
}

}  // namespace lbs::model
