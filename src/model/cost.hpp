// Cost-function model: Tcomm(i, x) and Tcomp(i, x).
//
// The paper's framework (Section 3.1) characterizes each processor by two
// cost functions of the number of data items x:
//   - Tcomp(i, x): time for P_i to compute x items,
//   - Tcomm(i, x): time for the root to send x items to P_i.
// Algorithm 1 only requires them to be non-negative and null at x = 0;
// Algorithm 2 additionally requires them to be increasing; the LP heuristic
// requires them to be affine. This header provides a small closed hierarchy
// covering all of those cases plus measured (tabulated) costs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace lbs::model {

// Coefficients of an affine cost t(x) = fixed + per_item * x for x > 0,
// t(0) = 0. ("fixed" models per-message latency; the paper's experiments
// use fixed = 0, i.e. the linear case, because "the network latency is
// negligible compared to the sending time of the data blocks".)
struct AffineCoeffs {
  double fixed = 0.0;
  double per_item = 0.0;
};

// Exact structural description of a built-in cost function — the value
// a Cost serializes to and reconstructs from. Round-tripping through
// Cost::spec() / Cost::from_spec() preserves the function bit-for-bit
// (same coefficients, same fingerprint), which is what lets the planning
// service ship platforms over a wire and still key its plan cache on
// Cost::fingerprint with no loss. Field meaning per kind:
//   Zero:      no fields
//   Linear:    a = per_item
//   Affine:    a = per_item, b = fixed (b != 0; b == 0 normalizes to Linear)
//   Tabulated: samples = the (items, seconds) breakpoints
//   Chunked:   a = per_item, b = step, chunk = chunk size
//   Scaled:    a = factor, inner = the wrapped spec
struct CostSpec {
  enum class Kind : std::uint8_t {
    Zero = 0,
    Linear = 1,
    Affine = 2,
    Tabulated = 3,
    Chunked = 4,
    Scaled = 5,
  };

  Kind kind = Kind::Zero;
  double a = 0.0;
  double b = 0.0;
  long long chunk = 0;
  std::vector<std::pair<long long, double>> samples;
  std::shared_ptr<const CostSpec> inner;  // Scaled only
};

// One piece of a cost function: on items begin <= x < end it is
// slope * x plus a term that is constant on each block of `period` items
// (the blocks [m * period, (m + 1) * period) cut at begin and end) and
// does not fall from one block to the next; period 0 means one block, so
// the piece is affine. Every built-in kind has a few such pieces (see
// CostFunction::piece); t(0) = 0 lies outside every piece, since x = 0 is
// where an affine cost drops its fixed term.
struct CostPiece {
  static constexpr long long kUnbounded = std::numeric_limits<long long>::max();

  long long begin = 1;
  long long end = kUnbounded;  // exclusive
  double slope = 0.0;
  long long period = 0;
};

class CostFunction {
 public:
  virtual ~CostFunction() = default;

  // Time in seconds to handle `items` items; items >= 0. It is 0 for
  // items == 0 (paper's framework). One value of fill().
  [[nodiscard]] double at(long long items) const {
    double value = 0.0;
    fill(items, std::span<double>(&value, 1));
    return value;
  }

  // True when the function is non-decreasing in x (required by Algorithm 2
  // and by the simultaneous-endings analysis).
  [[nodiscard]] virtual bool is_increasing() const = 0;

  // The affine coefficients when the function is exactly affine (the LP
  // heuristic path); nullopt otherwise.
  [[nodiscard]] virtual std::optional<AffineCoeffs> affine() const = 0;

  [[nodiscard]] virtual std::string describe() const = 0;

  // Structural hash over the exact parameters (bit patterns of the
  // coefficients / samples): two costs with equal fingerprints evaluate
  // identically for every x, up to 64-bit hash collisions. This is what
  // core::PlanKey (and so the plan cache) keys plans on.
  [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;

  // The serializable description of this function (see CostSpec).
  [[nodiscard]] virtual CostSpec spec() const = 0;

  // out[j] = t(first + j) for first >= 0: the one evaluation path of each
  // kind, run segment by segment with no per-value dispatch or search.
  virtual void fill(long long first, std::span<double> out) const = 0;

  // The piece holding item x >= 1. Zero, linear, affine and chunked costs
  // are one piece over every x >= 1 (a chunked cost's blocks are its
  // chunks, unless its step is 0); a tabulated cost has one per sample
  // segment plus the extrapolated tail; a scaled cost its inner cost's
  // pieces, scaled.
  [[nodiscard]] virtual CostPiece piece(long long x) const = 0;
};

// Value-semantic handle to an immutable cost function.
class Cost {
 public:
  Cost();  // zero cost

  // t(x) = per_item * x. The paper's linear case (Section 4).
  static Cost linear(double per_item);

  // t(x) = fixed + per_item * x for x > 0, t(0) = 0.
  static Cost affine(double fixed, double per_item);

  // t(x) = 0 for all x (e.g. Tcomm of the root processor to itself).
  static Cost zero();

  // Piecewise-linear interpolation through measured (items, seconds)
  // samples, extrapolating the last segment's slope; (0,0) is implied.
  // Samples must have strictly increasing item counts.
  static Cost tabulated(std::vector<std::pair<long long, double>> samples);

  // t(x) = per_item * x + step * floor(x / chunk): models chunked
  // transfers where every `chunk` items pay an extra round-trip. Increasing
  // but *not* affine — exercises the general DP path.
  static Cost chunked(double per_item, long long chunk, double step);

  // Communication cost from network terms: a link of `megabits_per_s`
  // moving items of `item_bytes` with per-message `latency_s`. Yields
  // affine(latency_s, 8 * item_bytes / (megabits_per_s * 1e6)) — the
  // translation used when describing grids by NIC specs instead of
  // measured betas (e.g. merlin's 10 Mbit/s hub).
  static Cost from_bandwidth(double megabits_per_s, std::size_t item_bytes,
                             double latency_s = 0.0);

  // t(x) = factor * inner(x), factor > 0: a uniformly slowed (or sped-up)
  // version of an existing cost — how a degraded link enters the planner.
  // Preserves monotonicity; affine coefficients scale through.
  static Cost scaled(Cost inner, double factor);

  // Reconstructs a Cost from its serialized description. The inverse of
  // spec(): from_spec(c.spec()) evaluates and fingerprints identically to
  // c for every built-in kind. Throws lbs::Error on malformed specs (the
  // factory preconditions apply).
  static Cost from_spec(const CostSpec& spec);

  [[nodiscard]] double operator()(long long items) const { return fn_->at(items); }
  [[nodiscard]] double at(long long items) const { return fn_->at(items); }
  [[nodiscard]] bool is_increasing() const { return fn_->is_increasing(); }
  [[nodiscard]] std::optional<AffineCoeffs> affine() const { return fn_->affine(); }
  [[nodiscard]] std::string describe() const { return fn_->describe(); }
  [[nodiscard]] std::uint64_t fingerprint() const { return fn_->fingerprint(); }
  [[nodiscard]] CostSpec spec() const { return fn_->spec(); }
  void fill(long long first, std::span<double> out) const { fn_->fill(first, out); }
  [[nodiscard]] CostPiece piece(long long x) const { return fn_->piece(x); }

  // Per-item slope when affine/linear; throws otherwise.
  [[nodiscard]] double per_item_slope() const;

 private:
  explicit Cost(std::shared_ptr<const CostFunction> fn) : fn_(std::move(fn)) {}
  std::shared_ptr<const CostFunction> fn_;
};

}  // namespace lbs::model
