// Versioned fleet membership.
//
// A MembershipView is the fleet's routing authority: a monotonically
// increasing epoch plus the replica list, each member tagged with its
// lifecycle state (joining -> serving -> draining -> gone). Every party
// that routes keys — FleetClient, lbsd itself when deciding whether a
// request's epoch is stale, lbsctl when orchestrating a join — holds one
// view and converges through exactly one rule, adopt(): an update wins
// iff its epoch is strictly larger. That single comparison is what makes
// convergence delivery-order independent (the property test replays
// shuffled update sequences): whatever order updates arrive in, every
// holder ends at the max-epoch view and never flaps back.
//
// Only Serving members are route-eligible. ring_of() builds the
// consistent-hash ring from the serving subset, so a Joining replica
// (announced, warming up) and a Draining one (serving in-flight work,
// admitting nothing new) are both invisible to routing — the two-phase
// join and the drain handoff fall out of that one rule plus the ring's
// bounded-remap property (support/hash_ring.hpp).
//
// Views travel by the MembershipUpdate / MembershipAck wire frames
// (protocol.hpp) and inline in a WrongEpoch plan response, so a stale
// client learns the current view from the rejection itself. The text
// file format below is read once at start (lbsd --membership, or a
// FleetOptions::view seeded by read_view_file), so a cold restart
// rejoins at the fleet's epoch; lbsctl writes it.
//
// File format — line-oriented, '#' comments, written atomically
// (tmp + rename) so a reader never sees a torn view:
//
//   epoch 7
//   serving tcp:10.0.0.1:4077
//   serving tcp:10.0.0.2:4077
//   draining unix:/tmp/old-replica.sock
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/socket.hpp"
#include "support/hash_ring.hpp"

namespace lbs::service {

enum class ReplicaState : std::uint8_t {
  Joining = 0,   // announced; pulling its partition; not route-eligible
  Serving = 1,   // route-eligible ring member
  Draining = 2,  // serves in-flight work; admits no new unique solves
};

[[nodiscard]] const char* to_string(ReplicaState state);
// Accepts the lowercase state words used by the file format. Throws
// service::Error on anything else.
[[nodiscard]] ReplicaState parse_replica_state(const std::string& word);

struct Member {
  Endpoint endpoint;
  ReplicaState state = ReplicaState::Serving;

  friend bool operator==(const Member&, const Member&) = default;
};

struct MembershipView {
  // 0 means "unversioned": the pre-elasticity world where membership is
  // whatever the client was constructed with. Real views start at 1.
  std::uint64_t epoch = 0;
  std::vector<Member> members;

  [[nodiscard]] const Member* find(const Endpoint& endpoint) const;
  [[nodiscard]] Member* find(const Endpoint& endpoint);
  [[nodiscard]] std::vector<Endpoint> serving_endpoints() const;

  friend bool operator==(const MembershipView&, const MembershipView&) = default;
};

// Throws service::Error unless every member endpoint is valid and the
// endpoints are pairwise distinct (by canonical spec).
void validate_view(const MembershipView& view);

// The one convergence rule: `update` replaces `current` iff
// update.epoch > current.epoch. Returns true when it did. Equal epochs
// never replace — two distinct views must not share an epoch, and
// refusing ties is what keeps replay idempotent.
bool adopt(MembershipView& current, const MembershipView& update);

// Ring over the Serving members only (node ids are canonical endpoint
// specs). May be empty — callers decide whether that is an error.
// FleetClient routes and Server hands partitions off by this one ring
// (default geometry), so a reshard warms exactly where keys will go.
[[nodiscard]] support::HashRing ring_of(const MembershipView& view,
                                        int virtual_nodes = 128);

// Text format round-trip (see file header). parse_view throws
// service::Error on malformed input and validates the result.
[[nodiscard]] std::string serialize_view(const MembershipView& view);
[[nodiscard]] MembershipView parse_view(const std::string& text);

// File I/O. read_view_file throws service::Error when the file is
// missing or malformed. write_view_file writes tmp-then-rename so a
// concurrent reader sees either the old view or the new one, never a
// prefix.
[[nodiscard]] MembershipView read_view_file(const std::string& path);
void write_view_file(const std::string& path, const MembershipView& view);

}  // namespace lbs::service
