#include "service/admin.hpp"

#include <utility>

#include "service/client.hpp"
#include "support/error.hpp"

namespace lbs::service::admin {

namespace {

ClientOptions control_options(const Endpoint& target, std::uint32_t timeout_ms) {
  ClientOptions options;
  options.endpoint = target;
  options.control_timeout_ms = timeout_ms;
  return options;
}

// One dial, one MembershipUpdate round-trip, hang up. Returns the peer's
// post-adopt view; records a "<endpoint>: reason" error on any failure.
std::optional<MembershipView> exchange_once(const Endpoint& target,
                                            const MembershipView& view,
                                            std::uint32_t timeout_ms,
                                            std::vector<std::string>& errors) {
  try {
    Client client(control_options(target, timeout_ms));
    std::optional<MembershipView> reply = client.membership_exchange(view);
    if (!reply.has_value()) {
      errors.push_back(target.to_string() + ": no membership ack");
    }
    return reply;
  } catch (const lbs::Error& error) {
    errors.push_back(target.to_string() + ": " + error.what());
    return std::nullopt;
  }
}

std::vector<Endpoint> member_endpoints(const MembershipView& view) {
  std::vector<Endpoint> out;
  out.reserve(view.members.size());
  for (const Member& member : view.members) out.push_back(member.endpoint);
  return out;
}

}  // namespace

std::optional<MembershipView> fetch_view(const Endpoint& target,
                                         std::uint32_t timeout_ms) {
  std::vector<std::string> sink;
  return exchange_once(target, MembershipView{}, timeout_ms, sink);
}

PushResult push_view(const MembershipView& view,
                     const std::vector<Endpoint>& targets,
                     std::uint32_t timeout_ms) {
  PushResult result;
  result.view = view;
  for (const Endpoint& target : targets) {
    if (exchange_once(target, view, timeout_ms, result.errors).has_value()) {
      ++result.acked;
    }
  }
  return result;
}

PushResult join_fleet(const MembershipView& base, const Endpoint& joiner,
                      std::uint32_t timeout_ms) {
  LBS_CHECK_MSG(joiner.valid(), "join: joiner endpoint is empty");
  LBS_CHECK_MSG(base.find(joiner) == nullptr, "join: already a member");

  // Phase 1: announce. The joiner is named but not route-eligible, so no
  // client re-rings and no key can land on a cold cache.
  MembershipView announce = base;
  announce.epoch = base.epoch + 1;
  announce.members.push_back(Member{joiner, ReplicaState::Joining});
  validate_view(announce);
  PushResult result = push_view(announce, member_endpoints(announce), timeout_ms);

  // Phase 2: promote. The joiner hears FIRST — its adopt pulls its
  // partition from every serving peer before the new epoch is published,
  // so it goes route-eligible already warm.
  MembershipView promote = announce;
  promote.epoch = announce.epoch + 1;
  promote.find(joiner)->state = ReplicaState::Serving;
  std::vector<Endpoint> targets;
  targets.push_back(joiner);
  for (const Member& member : promote.members) {
    if (!(member.endpoint == joiner)) targets.push_back(member.endpoint);
  }
  PushResult phase2 = push_view(promote, targets, timeout_ms);

  result.view = std::move(phase2.view);
  result.acked += phase2.acked;
  result.errors.insert(result.errors.end(), phase2.errors.begin(),
                       phase2.errors.end());
  return result;
}

PushResult drain_replica(const MembershipView& base, const Endpoint& target,
                         std::uint32_t timeout_ms) {
  const Member* member = base.find(target);
  LBS_CHECK_MSG(member != nullptr, "drain: not a member");
  LBS_CHECK_MSG(member->state == ReplicaState::Serving,
                "drain: target is not serving");

  MembershipView next = base;
  next.epoch = base.epoch + 1;
  next.find(target)->state = ReplicaState::Draining;
  validate_view(next);

  // Survivors first: each pulls the target's partition while the target
  // still serves everything under the old epoch. The target hears last.
  std::vector<Endpoint> targets;
  for (const Member& m : next.members) {
    if (!(m.endpoint == target)) targets.push_back(m.endpoint);
  }
  targets.push_back(target);
  return push_view(next, targets, timeout_ms);
}

PushResult remove_replica(const MembershipView& base, const Endpoint& target,
                          std::uint32_t timeout_ms) {
  LBS_CHECK_MSG(base.find(target) != nullptr, "remove: not a member");

  MembershipView next;
  next.epoch = base.epoch + 1;
  for (const Member& member : base.members) {
    if (!(member.endpoint == target)) next.members.push_back(member);
  }
  LBS_CHECK_MSG(!next.members.empty(), "remove: would empty the fleet");
  validate_view(next);

  std::vector<Endpoint> targets = member_endpoints(next);
  targets.push_back(target);  // best effort — it may already be gone
  return push_view(next, targets, timeout_ms);
}

}  // namespace lbs::service::admin
