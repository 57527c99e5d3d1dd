// LRU caching of scatter plans, lock-striped for concurrent planners.
//
// The cache maps a PlanKey (plan_cache.hpp) to the full ScatterPlan the
// planner produced for it (O(p) memory per entry). The key space is split
// over N independent LRU shards — shard choice is a pure function of
// PlanKeyHash, so a key always lands on the same shard and two probes
// contend only when they collide on a shard. Each shard evicts its
// least-recently-used entry beyond capacity_per_shard.
//
// One shard is a plain single-mutex LRU: the right geometry for a
// per-owner cache (recovery replanners, AdaptivePlanner). The planning
// service, with dozens of connections and a pool of DP workers probing at
// once, uses several. The shard count never changes an answer: cached
// values are the planner's outputs either way; only eviction *timing*
// differs, and an evicted entry merely costs a re-plan of the same pure
// function.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/plan_cache.hpp"

namespace lbs::obs {
class Counter;
class Metrics;
class Tracer;
}

namespace lbs::core {

class ShardedPlanCache {
 public:
  // `shards` lock stripes, each an LRU of `capacity_per_shard` plans.
  explicit ShardedPlanCache(int shards = 8, std::size_t capacity_per_shard = 128);

  // Callers build the key once (make_plan_key) and reuse it: the planner
  // for its probe and fill, the service also for its coalescing map.
  [[nodiscard]] std::optional<ScatterPlan> lookup(const PlanKey& key);
  void insert(const PlanKey& key, const ScatterPlan& plan);

  // Lookup-or-plan convenience: plan_scatter with this cache attached.
  ScatterPlan plan(const model::Platform& platform, long long items,
                   Algorithm algorithm = Algorithm::Auto,
                   const DpOptions& dp = {});

  // Observability hooks; call during setup, before concurrent use. A null
  // tracer falls back to obs::global_tracer(): every probe then emits a
  // cache.hit / cache.miss instant (arg0 = items probed). set_metrics
  // binds the "plan_cache.hits" / ".misses" / ".evictions" counters in
  // `metrics` (resolved once here, so probes stay a couple of atomic
  // adds) and, with more than one shard, per-shard counters
  // "plan_cache.shard<K>.hits" / ".misses" so cross-shard balance is
  // visible.
  void set_tracer(obs::Tracer* tracer);
  void set_metrics(obs::Metrics* metrics);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const;                   // summed over shards
  [[nodiscard]] std::vector<Stats> shard_stats() const;

  [[nodiscard]] int shards() const { return static_cast<int>(shards_.size()); }
  [[nodiscard]] std::size_t size() const;              // entries, all shards
  [[nodiscard]] std::size_t capacity() const;          // shards * per-shard
  [[nodiscard]] std::size_t capacity_per_shard() const { return capacity_per_shard_; }

  // The shard a key lands on (pure function of the key; exposed so tests
  // can craft per-shard workloads).
  [[nodiscard]] int shard_for(const PlanKey& key) const;

  void clear();

  // Persistence hooks (service/snapshot.hpp turns these into a
  // checksummed file). export_entries walks every shard least-recent
  // first, so replaying the returned sequence through restore_entries —
  // or plain insert — reproduces both the contents and the LRU recency
  // order. Each shard is locked only while it is being copied; a snapshot
  // taken under live traffic is a consistent-per-shard view, which is
  // sound because plans are pure functions of their key (a racing insert
  // merely is or isn't included).
  [[nodiscard]] std::vector<std::pair<PlanKey, ScatterPlan>> export_entries() const;
  // Inserts every entry in order (re-sharding by key, evicting beyond
  // capacity as usual). Counts neither hits nor misses.
  void restore_entries(const std::vector<std::pair<PlanKey, ScatterPlan>>& entries);

 private:
  struct Entry {
    PlanKey key;
    ScatterPlan plan;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> index;
    Stats stats;
    obs::Counter* hits_counter = nullptr;
    obs::Counter* misses_counter = nullptr;
  };

  void record_probe(bool hit, long long items);

  std::size_t capacity_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
};

}  // namespace lbs::core
