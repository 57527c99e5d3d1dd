#include "core/plan_cache.hpp"

namespace lbs::core {

std::vector<std::uint64_t> cost_fingerprints(const model::Platform& platform) {
  std::vector<std::uint64_t> prints;
  prints.reserve(static_cast<std::size_t>(platform.size()));
  for (int i = 0; i < platform.size(); ++i) {
    // Rotate-and-xor keeps (comm, comp) ordered, unlike plain xor.
    std::uint64_t comm = platform[i].comm.fingerprint();
    std::uint64_t comp = platform[i].comp.fingerprint();
    prints.push_back(comm ^ (comp << 1 | comp >> 63));
  }
  return prints;
}

std::size_t PlanKeyHash::operator()(const PlanKey& key) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  for (std::uint64_t c : key.costs) mix(c);
  mix(static_cast<std::uint64_t>(key.items));
  mix(static_cast<std::uint64_t>(key.algorithm));
  return static_cast<std::size_t>(h);
}

PlanKey make_plan_key(const model::Platform& platform, long long items,
                      Algorithm algorithm) {
  return PlanKey{cost_fingerprints(platform), items, algorithm};
}

}  // namespace lbs::core
