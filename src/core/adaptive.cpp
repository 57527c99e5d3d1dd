#include "core/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/error.hpp"

namespace lbs::core {

namespace {

model::OnlineFitOptions fit_options(const AdaptiveOptions& options) {
  model::OnlineFitOptions fit;
  fit.forgetting = options.forgetting;
  fit.intercept_tolerance = options.intercept_tolerance;
  fit.min_samples = options.min_samples;
  return fit;
}

// A fit anchored at the processor's construction-time cost when that cost
// is affine-representable; unanchored otherwise (tabulated/chunked costs
// have no two-coefficient prior to offer — the fit simply starts cold and
// replaces them once ready).
model::OnlineAffineFit make_fit(const model::Cost& prior,
                                const AdaptiveOptions& options) {
  if (prior.affine().has_value()) {
    return model::OnlineAffineFit(prior, options.prior_weight,
                                  fit_options(options));
  }
  return model::OnlineAffineFit(fit_options(options));
}

}  // namespace

AdaptivePlanner::AdaptivePlanner(model::Platform initial,
                                 AdaptiveOptions options)
    : options_(std::move(options)),
      state_(std::make_shared<State>()),
      cache_(std::make_shared<ShardedPlanCache>(1, options_.cache_capacity)) {
  LBS_CHECK_MSG(initial.size() >= 1, "adaptive planner needs a platform");
  LBS_CHECK_MSG(options_.drift_threshold > 0.0, "drift threshold must be > 0");
  LBS_CHECK_MSG(options_.cooldown >= 0.0, "negative cooldown");
  state_->platform = std::move(initial);
  state_->fits.reserve(static_cast<std::size_t>(state_->platform.size()));
  for (int i = 0; i < state_->platform.size(); ++i) {
    state_->fits.push_back(RankFits{
        make_fit(state_->platform[i].comm, options_),
        make_fit(state_->platform[i].comp, options_),
    });
  }
  if (options_.metrics != nullptr) {
    cache_->set_metrics(options_.metrics);
  }
  if (options_.tracer != nullptr) {
    cache_->set_tracer(options_.tracer);
  }
  // One engine for every replan: fault recoveries and drift replans both
  // run through make_ft_replanner over the live platform, sharing the
  // same cache plan() probes — so a drift replan's solve is the next
  // plan() call's hit, and a recovery after a refit uses the fresh costs.
  auto state = state_;
  ft_replanner_ = make_ft_replanner(
      [state] {
        std::lock_guard lock(state->mu);
        return state->platform;
      },
      options_.algorithm, cache_);
}

model::Platform AdaptivePlanner::snapshot_platform() const {
  std::lock_guard lock(state_->mu);
  return state_->platform;
}

ScatterPlan AdaptivePlanner::plan(long long items) {
  auto platform = snapshot_platform();
  if (!options_.enabled) {
    // Adaptation off: the exact main-line planner call, no cache in the
    // way — the differential suite asserts bit-identity with plan_scatter.
    PlannerOptions plain;
    plain.algorithm = options_.algorithm;
    plain.tracer = options_.tracer;
    plain.metrics = options_.metrics;
    return plan_scatter(platform, items, plain);
  }
  PlannerOptions opts;
  opts.algorithm = options_.algorithm;
  opts.cache = cache_.get();
  opts.tracer = options_.tracer;
  opts.metrics = options_.metrics;
  return plan_scatter(platform, items, opts);
}

void AdaptivePlanner::record_drift(double drift, bool detected, double now) {
  obs::Tracer* tracer =
      options_.tracer != nullptr ? options_.tracer : obs::global_tracer();
  if (tracer != nullptr) {
    obs::TraceEvent event;
    event.type = obs::EventType::AdaptiveDrift;
    event.clock = options_.clock;
    event.instant = true;
    event.start = now;
    event.arg0 = std::llround(drift * 1e6);  // parts-per-million
    event.arg1 = detected ? 1 : 0;
    tracer->record(event);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->histogram("adaptive.drift").observe(drift);
    if (detected) {
      options_.metrics->counter("adaptive.drift_detected").add();
    }
  }
}

AdaptiveOutcome AdaptivePlanner::observe_round(
    const ScatterPlan& plan, std::span<const RankObservation> observations,
    double now) {
  AdaptiveOutcome outcome;
  if (!options_.enabled) {
    return outcome;
  }

  std::unique_lock lock(state_->mu);
  auto& state = *state_;
  const int p = state.platform.size();
  LBS_CHECK_MSG(static_cast<int>(observations.size()) == p,
                "observe_round needs one observation per platform position");
  LBS_CHECK_MSG(static_cast<int>(plan.predicted_finish.size()) == p,
                "plan does not match the platform");
  state.stats.rounds += 1;

  // Sort observations into platform position order and feed the fits.
  std::vector<const RankObservation*> by_rank(static_cast<std::size_t>(p),
                                              nullptr);
  for (const auto& obs : observations) {
    LBS_CHECK_MSG(obs.rank >= 0 && obs.rank < p,
                  "observation references unknown rank");
    LBS_CHECK_MSG(by_rank[static_cast<std::size_t>(obs.rank)] == nullptr,
                  "duplicate observation for a rank");
    by_rank[static_cast<std::size_t>(obs.rank)] = &obs;
  }
  for (int i = 0; i < p; ++i) {
    const auto& obs = *by_rank[static_cast<std::size_t>(i)];
    if (obs.items <= 0) continue;  // t(0) = 0 carries no signal
    auto& fits = state.fits[static_cast<std::size_t>(i)];
    // The root (last position) sends to itself for free — its comm cost
    // is structurally zero and is never refitted.
    if (i != p - 1) {
      fits.comm.observe(obs.items, std::max(obs.comm_seconds, 0.0));
      state.stats.samples += 1;
    }
    fits.comp.observe(obs.items, std::max(obs.comp_seconds, 0.0));
    state.stats.samples += 1;
  }

  // Drift signal: the observed Eq. 1 finish times (prefix comm sums plus
  // own compute) against the plan's predictions, as a fraction of the
  // predicted makespan.
  double predicted_makespan = 0.0;
  for (double t : plan.predicted_finish) {
    predicted_makespan = std::max(predicted_makespan, t);
  }
  const double scale = std::max(predicted_makespan, 1e-12);
  double comm_prefix = 0.0;
  double drift = 0.0;
  for (int i = 0; i < p; ++i) {
    const auto& obs = *by_rank[static_cast<std::size_t>(i)];
    comm_prefix += std::max(obs.comm_seconds, 0.0);
    double observed_finish = comm_prefix + std::max(obs.comp_seconds, 0.0);
    double error = std::abs(observed_finish -
                            plan.predicted_finish[static_cast<std::size_t>(i)]);
    drift = std::max(drift, error / scale);
  }
  outcome.drift = drift;
  outcome.drift_detected = drift > options_.drift_threshold;
  if (outcome.drift_detected) {
    state.stats.drift_detected += 1;
  }

  bool cooled_down = !state.replanned_once ||
                     now - state.last_replan_time >= options_.cooldown;
  if (outcome.drift_detected && !cooled_down) {
    outcome.suppressed = true;
    state.stats.suppressed += 1;
    if (options_.metrics != nullptr) {
      options_.metrics->counter("adaptive.suppressed").add();
    }
  }

  bool should_refit = outcome.drift_detected && cooled_down;
  int refitted_ranks = 0;
  if (should_refit) {
    for (int i = 0; i < p; ++i) {
      auto& fits = state.fits[static_cast<std::size_t>(i)];
      auto& processor = state.platform.processors[static_cast<std::size_t>(i)];
      bool changed = false;
      if (i != p - 1 && fits.comm.ready()) {
        auto fitted = fits.comm.cost();
        if (fitted.fingerprint() != processor.comm.fingerprint()) {
          processor.comm = fitted;
          changed = true;
        }
      }
      if (fits.comp.ready()) {
        auto fitted = fits.comp.cost();
        if (fitted.fingerprint() != processor.comp.fingerprint()) {
          processor.comp = fitted;
          changed = true;
        }
      }
      if (changed) ++refitted_ranks;
    }
  }

  if (refitted_ranks > 0) {
    state.version += 1;
    state.stats.refits += 1;
    outcome.refit = true;
  }
  outcome.platform_version = state.version;

  long long items = plan.distribution.total();
  if (outcome.refit) {
    state.last_replan_time = now;
    state.replanned_once = true;
    state.stats.replans += 1;
  }
  lock.unlock();

  record_drift(drift, outcome.drift_detected, now);

  if (!outcome.refit) {
    return outcome;
  }

  obs::Tracer* tracer =
      options_.tracer != nullptr ? options_.tracer : obs::global_tracer();
  if (tracer != nullptr) {
    obs::TraceEvent refit_event;
    refit_event.type = obs::EventType::AdaptiveRefit;
    refit_event.clock = options_.clock;
    refit_event.start = now;
    refit_event.duration = 0.0;  // zero caller-clock time (degenerate span)
    refit_event.arg0 = refitted_ranks;
    refit_event.arg1 = static_cast<long long>(outcome.platform_version);
    tracer->record(refit_event);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counter("adaptive.refits").add();
  }

  // Mid-run replan on the refreshed model, through the same
  // make_ft_replanner path fault recovery uses, with every position
  // alive. The refreshed fingerprints make this a clean cache miss; the
  // next plan() call then hits the entry this solve installs.
  std::vector<int> all_alive(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) all_alive[static_cast<std::size_t>(i)] = i;
  auto counts = ft_replanner_(all_alive, items);
  outcome.replanned = true;
  LBS_CHECK_MSG(static_cast<int>(counts.size()) == p,
                "replanner returned wrong arity");

  if (tracer != nullptr) {
    obs::TraceEvent replan_event;
    replan_event.type = obs::EventType::RecoveryReplan;
    replan_event.clock = options_.clock;
    replan_event.instant = true;
    replan_event.start = now;
    replan_event.arg0 = items;
    replan_event.arg1 = static_cast<long long>(outcome.platform_version);
    tracer->record(replan_event);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counter("adaptive.replans").add();
  }
  return outcome;
}

model::Platform AdaptivePlanner::platform() const { return snapshot_platform(); }

std::uint64_t AdaptivePlanner::platform_version() const {
  std::lock_guard lock(state_->mu);
  return state_->version;
}

std::function<std::vector<long long>(const std::vector<int>&, long long)>
AdaptivePlanner::replanner() const {
  return ft_replanner_;
}

AdaptivePlanner::Stats AdaptivePlanner::stats() const {
  std::lock_guard lock(state_->mu);
  return state_->stats;
}

}  // namespace lbs::core
