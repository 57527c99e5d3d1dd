// Membership orchestration — the control-plane verbs behind
// `lbsctl join|drain|remove`.
//
// A membership change is just "mint a strictly newer MembershipView and
// tell everyone", but the ORDER of telling is what makes resharding
// lossless (docs/service.md#elasticity has the full protocol):
//
//   join (two phases):
//     1. epoch E+1: the joiner appears as Joining. Broadcast. Nobody
//        re-rings (Joining members are not route-eligible); the fleet
//        merely learns the name. A Joining replica serves cache hits but
//        WrongEpochs new solves, so no key can land there prematurely.
//     2. epoch E+2: the joiner flips to Serving. Pushed to the JOINER
//        FIRST — adopting the view that makes it eligible triggers its
//        snapshot pull (SnapshotRange) from every serving peer, and
//        adopt_view publishes the new epoch only after the pull, so by
//        the time anyone routes to it, its cache already holds its
//        partition: zero re-solves. Then broadcast to the rest.
//
//   drain: epoch E+1 with the target Draining. Pushed to the SURVIVORS
//     FIRST — each adopts, sees a Serving→Draining transition, and pulls
//     the target's partition while the target still admits everything
//     under E. The target learns last and only then starts WrongEpoch-ing
//     new keys (in-flight and coalesced work still completes).
//
//   remove: epoch E+1 without the target. Survivors first, target last
//     (best effort — a crashed target cannot ack its own removal, which
//     is fine: the view does not require it).
//
// Every push is one MembershipUpdate round-trip (adopt-iff-newer +
// MembershipAck), so replaying any of these against a fleet that already
// converged is a no-op. Unreachable members are recorded, not fatal:
// convergence is finished by WrongEpoch redirects — the broadcast is an
// accelerant, not a requirement.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/membership.hpp"
#include "service/socket.hpp"

namespace lbs::service::admin {

struct PushResult {
  MembershipView view;               // the final view that was pushed
  int acked = 0;                     // round-trips that came back
  std::vector<std::string> errors;   // "<endpoint>: <reason>" per failure
};

// One epoch-0 MembershipUpdate round-trip: returns the target's current
// view without changing it, or nullopt when the target is unreachable.
[[nodiscard]] std::optional<MembershipView> fetch_view(
    const Endpoint& target, std::uint32_t timeout_ms = 2000);

// Pushes `view` to the given endpoints in order (adopt-iff-newer on each
// side). Counts acks; unreachable targets become errors.
PushResult push_view(const MembershipView& view,
                     const std::vector<Endpoint>& targets,
                     std::uint32_t timeout_ms = 2000);

// The two-phase join described above. `base` is the fleet's current view
// (fetch_view from any member, or synthesized epoch-0 for a fresh
// fleet); `joiner` must not already be a member. Returns the final
// (E+2) view.
PushResult join_fleet(const MembershipView& base, const Endpoint& joiner,
                      std::uint32_t timeout_ms = 2000);

// Marks `target` Draining at epoch+1, survivors first. Target must be a
// Serving member.
PushResult drain_replica(const MembershipView& base, const Endpoint& target,
                         std::uint32_t timeout_ms = 2000);

// Drops `target` from the view at epoch+1, survivors first, target last
// (best effort). Target must be a member in any state.
PushResult remove_replica(const MembershipView& base, const Endpoint& target,
                          std::uint32_t timeout_ms = 2000);

}  // namespace lbs::service::admin
