#include "core/sharded_plan_cache.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace lbs::core {

ShardedPlanCache::ShardedPlanCache(int shards, std::size_t capacity_per_shard)
    : capacity_per_shard_(capacity_per_shard) {
  LBS_CHECK_MSG(shards >= 1, "sharded plan cache needs >= 1 shard");
  LBS_CHECK_MSG(shards <= 1024, "sharded plan cache: implausible shard count");
  LBS_CHECK_MSG(capacity_per_shard >= 1, "plan cache shard needs capacity >= 1");
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

int ShardedPlanCache::shard_for(const PlanKey& key) const {
  // The low hash bits also pick the unordered_map bucket inside the shard;
  // fold the high half in so shard choice uses independent bits.
  std::uint64_t h = PlanKeyHash{}(key);
  h ^= h >> 32;
  h *= 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return static_cast<int>(h % shards_.size());
}

void ShardedPlanCache::set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

void ShardedPlanCache::set_metrics(obs::Metrics* metrics) {
  if (metrics == nullptr) {
    hits_counter_ = nullptr;
    misses_counter_ = nullptr;
    evictions_counter_ = nullptr;
    for (auto& shard : shards_) {
      shard->hits_counter = nullptr;
      shard->misses_counter = nullptr;
    }
    return;
  }
  hits_counter_ = &metrics->counter("plan_cache.hits");
  misses_counter_ = &metrics->counter("plan_cache.misses");
  evictions_counter_ = &metrics->counter("plan_cache.evictions");
  // A lone shard's counters would only repeat the totals.
  if (shards_.size() == 1) return;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::string prefix = "plan_cache.shard" + std::to_string(i);
    shards_[i]->hits_counter = &metrics->counter(prefix + ".hits");
    shards_[i]->misses_counter = &metrics->counter(prefix + ".misses");
  }
}

void ShardedPlanCache::record_probe(bool hit, long long items) {
  obs::Tracer* tracer = tracer_ != nullptr ? tracer_ : obs::global_tracer();
  if (tracer != nullptr) {
    obs::TraceEvent event;
    event.type = hit ? obs::EventType::CacheHit : obs::EventType::CacheMiss;
    event.instant = true;
    event.start = obs::wall_now();
    event.arg0 = items;
    tracer->record(event);
  }
  obs::Counter* counter = hit ? hits_counter_ : misses_counter_;
  if (counter != nullptr) counter->add();
}

std::optional<ScatterPlan> ShardedPlanCache::lookup(const PlanKey& key) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_for(key))];
  std::optional<ScatterPlan> found;
  {
    std::lock_guard lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.stats.misses;
      if (shard.misses_counter != nullptr) shard.misses_counter->add();
    } else {
      ++shard.stats.hits;
      if (shard.hits_counter != nullptr) shard.hits_counter->add();
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      found = it->second->plan;
    }
  }
  record_probe(found.has_value(), key.items);
  return found;
}

void ShardedPlanCache::insert(const PlanKey& key, const ScatterPlan& plan) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_for(key))];
  std::lock_guard lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->plan = plan;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, plan});
  shard.index.emplace(shard.lru.front().key, shard.lru.begin());
  if (shard.lru.size() > capacity_per_shard_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.stats.evictions;
    if (evictions_counter_ != nullptr) evictions_counter_->add();
  }
}

ScatterPlan ShardedPlanCache::plan(const model::Platform& platform, long long items,
                                   Algorithm algorithm, const DpOptions& dp) {
  PlannerOptions options;
  options.algorithm = algorithm;
  options.dp = dp;
  options.cache = this;
  return plan_scatter(platform, items, options);
}

ShardedPlanCache::Stats ShardedPlanCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
  }
  return total;
}

std::vector<ShardedPlanCache::Stats> ShardedPlanCache::shard_stats() const {
  std::vector<Stats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    out.push_back(shard->stats);
  }
  return out;
}

std::size_t ShardedPlanCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

std::size_t ShardedPlanCache::capacity() const {
  return shards_.size() * capacity_per_shard_;
}

std::vector<std::pair<PlanKey, ScatterPlan>> ShardedPlanCache::export_entries() const {
  std::vector<std::pair<PlanKey, ScatterPlan>> out;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    // Least-recent first: replaying through insert() ends with the same
    // front-of-LRU ordering this shard has now.
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it) {
      out.emplace_back(it->key, it->plan);
    }
  }
  return out;
}

void ShardedPlanCache::restore_entries(
    const std::vector<std::pair<PlanKey, ScatterPlan>>& entries) {
  for (const auto& [key, plan] : entries) {
    insert(key, plan);
  }
}

void ShardedPlanCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->stats = {};
  }
}

}  // namespace lbs::core
