// Wire protocol of the planning service (lbsd).
//
// Framing: every message is one length-prefixed, checksummed frame
//
//   u32 payload_length (LE) | u32 crc32(payload) (LE) | payload
//
// (service/socket.hpp writes and checks the two header words), and
// every payload starts with `u8 version | u8 message_type | u64 id`.
// The id is chosen by the requester and echoed verbatim in the response,
// which is what lets a client pipeline many requests over one connection
// and match replies out of order. Frames above kMaxFrameBytes are a
// protocol violation (the peer is garbage or hostile) and close the
// connection.
//
// A plan request ships the *structural* platform — each processor's
// Tcomm/Tcomp as a model::CostSpec, root last, exactly the information
// core::make_plan_key hashes — plus the item count and requested
// algorithm. Labels and machine refs never cross the wire: two clients
// with structurally identical platforms share cache entries and coalesce
// onto the same in-flight solve.
//
// Responses carry a status (docs/service.md has the full semantics):
//   Ok       the plan: counts (root last), makespan, provenance flags
//   Rejected backpressure — the solve queue was full; retry_after_ms is
//            the server's hint for when to try again
//   Error    malformed/inadmissible request or a planner precondition
//            failure (e.g. forced lp-heuristic on non-affine costs)
//
// Integers are little-endian; doubles are IEEE-754 bit patterns shipped
// as u64, so costs round-trip bit-exactly and cache keys agree across
// client and server.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "model/cost.hpp"
#include "model/platform.hpp"
#include "service/membership.hpp"
#include "service/snapshot.hpp"

namespace lbs::service {

// v2: frames grew a CRC-32 integrity word (socket.hpp) — a v1 peer
// cannot even frame-align against a v2 stream, so the version byte exists
// to make the mismatch a clean decode error rather than garbage.
// v3: Ok plan responses carry the Eq. 4 optimality certificate (a flag
// bit plus the f64 gap), so fast-path plans arrive with their bound.
// v4: elastic fleets — plan requests carry the client's membership epoch,
// a stale epoch earns a WrongEpoch response embedding the server's
// current view, and four control frames move views and warm-start
// entries around: MembershipUpdate/MembershipAck (push a view / return
// the holder's view) and SnapshotRange/SnapshotRangeData (a joining
// replica pulls the cache entries it now owns, in snapshot-codec bytes).
inline constexpr std::uint8_t kProtocolVersion = 4;
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;  // 16 MiB
// Nested Scaled specs deeper than this are rejected at decode (a legit
// platform wraps a cost a handful of times; a hostile frame recurses).
inline constexpr int kMaxCostSpecDepth = 16;
// A fleet is tens of replicas, not millions: bounds a hostile member
// count before any allocation trusts it.
inline constexpr std::uint32_t kMaxViewMembers = 4096;

enum class MessageType : std::uint8_t {
  PlanRequest = 1,
  PlanResponse = 2,
  Ping = 3,
  Pong = 4,
  StatsRequest = 5,
  StatsResponse = 6,
  Shutdown = 7,
  ShutdownAck = 8,
  // v4 membership control plane. MembershipUpdate carries a view the
  // receiver adopt()s iff newer; the Ack always returns the receiver's
  // (possibly unchanged) view, so an update with epoch 0 doubles as a
  // pure membership query. SnapshotRange asks "send me the snapshot
  // entries that `owner` owns under this view's ring"; the RangeData
  // reply carries them in the snapshot codec's entry encoding.
  MembershipUpdate = 9,
  MembershipAck = 10,
  SnapshotRange = 11,
  SnapshotRangeData = 12,
};

enum class PlanStatus : std::uint8_t {
  Ok = 0,
  Rejected = 1,      // backpressure: queue full, retry later
  Error = 2,         // inadmissible request or planner failure
  Disconnected = 3,  // client-side only: connection died before the reply
  Timeout = 4,       // client-side only: request deadline passed first
  BreakerOpen = 5,   // client-side only: circuit breaker failing fast
  WrongEpoch = 6,    // request's membership epoch is stale; the response
                     // carries the server's current view — reroute, don't retry
};

struct PlanRequest {
  std::uint64_t id = 0;
  core::Algorithm algorithm = core::Algorithm::Auto;
  long long items = 0;
  // The membership epoch the client routed under. 0 = unversioned (a
  // pre-elasticity client, or one never handed a view): the server
  // serves it rather than strand legacy clients. A nonzero epoch older
  // than the server's view earns WrongEpoch instead of a plan.
  std::uint64_t epoch = 0;
  model::Platform platform;  // root last; labels synthesized on decode
};

struct PlanResponse {
  std::uint64_t id = 0;
  PlanStatus status = PlanStatus::Ok;

  // status == Ok:
  std::vector<long long> counts;  // aligned with the request's processors
  double predicted_makespan = 0.0;
  core::Algorithm algorithm_used = core::Algorithm::Auto;
  long long dp_cells_evaluated = 0;
  // Eq. 4 certificate (see core::ScatterPlan): when the flag is set,
  // predicted_makespan <= optimal + optimality_gap (0 for DP plans).
  bool has_optimality_bound = false;
  double optimality_gap = 0.0;
  bool cache_hit = false;   // served straight from the sharded cache
  bool coalesced = false;   // attached to another request's in-flight solve
  // Client-side only: this Ok was computed in-process by plan_scatter
  // because the circuit breaker was open (or retries were exhausted) —
  // it never touched the daemon. Not encoded on the wire.
  bool local_fallback = false;

  // status == Rejected:
  std::uint32_t retry_after_ms = 0;

  // status == WrongEpoch: the server's current membership view — the
  // redirect payload a stale client adopts before rerouting.
  MembershipView current_view;

  // status == Error (and the client-side statuses): human-readable cause.
  std::string message;

  // Prefix sums of counts — the displacements an MPI_Scatterv needs.
  [[nodiscard]] std::vector<long long> displacements() const;
};

// The Ok response for a plan: counts, makespan, algorithm, DP cells and
// the Eq. 4 certificate. Every path that answers with a plan — cache hit,
// fresh solve, client-side fallback — converts through this.
[[nodiscard]] PlanResponse plan_response(core::ScatterPlan plan);

// A decoded frame: exactly one of the optional bodies is set, matching
// `type` (control messages carry only the id; StatsResponse carries text).
struct Message {
  MessageType type = MessageType::Ping;
  std::uint64_t id = 0;
  std::optional<PlanRequest> plan_request;
  std::optional<PlanResponse> plan_response;
  // StatsResponse: metrics JSON. SnapshotRange: the requester's own
  // canonical endpoint spec (the ring node whose keys it wants).
  std::string text;
  // MembershipUpdate / MembershipAck / SnapshotRange: the view in play.
  std::optional<MembershipView> view;
  // SnapshotRangeData: the requested warm-start entries.
  std::vector<SnapshotEntry> entries;
};

// Bounds-checked little-endian reader over a received payload. All reads
// throw lbs::Error("wire: ...") on underrun or malformed data; the server
// and client treat that as a fatal protocol violation on the connection.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] long long read_i64();
  [[nodiscard]] double read_f64();
  [[nodiscard]] std::string read_string();  // u32 length + bytes

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  // Throws unless the payload was consumed exactly (trailing bytes mean a
  // mis-framed or corrupt message).
  void expect_end() const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Append-only little-endian writer building a payload.
class WireWriter {
 public:
  void put_u8(std::uint8_t value);
  void put_u32(std::uint32_t value);
  void put_u64(std::uint64_t value);
  void put_i64(long long value);
  void put_f64(double value);
  void put_string(const std::string& value);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

// Cost / platform serialization (exact round-trip; see model::CostSpec).
void encode_cost(WireWriter& out, const model::Cost& cost);
[[nodiscard]] model::Cost decode_cost(WireReader& in);
void encode_platform(WireWriter& out, const model::Platform& platform);
[[nodiscard]] model::Platform decode_platform(WireReader& in);

// Message encoding: complete payloads (version + type + id + body),
// ready for a length-prefixed frame.
[[nodiscard]] std::vector<std::uint8_t> encode_plan_request(const PlanRequest& request);
[[nodiscard]] std::vector<std::uint8_t> encode_plan_response(const PlanResponse& response);
[[nodiscard]] std::vector<std::uint8_t> encode_control(MessageType type, std::uint64_t id);
[[nodiscard]] std::vector<std::uint8_t> encode_stats_response(std::uint64_t id,
                                                              const std::string& json);

// v4 membership / handoff frames. Views encode as
// `u64 epoch | u32 member_count | per member: u8 state | string spec`.
void encode_membership_view(WireWriter& out, const MembershipView& view);
[[nodiscard]] MembershipView decode_membership_view(WireReader& in);
[[nodiscard]] std::vector<std::uint8_t> encode_membership_update(
    std::uint64_t id, const MembershipView& view);
[[nodiscard]] std::vector<std::uint8_t> encode_membership_ack(
    std::uint64_t id, const MembershipView& view);
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot_range(
    std::uint64_t id, const MembershipView& view, const std::string& owner);
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot_range_data(
    std::uint64_t id, const std::vector<SnapshotEntry>& entries);

// Decodes one payload. Throws lbs::Error on version mismatch, unknown
// type, truncation, or trailing bytes.
[[nodiscard]] Message decode_message(const std::uint8_t* data, std::size_t size);
[[nodiscard]] Message decode_message(const std::vector<std::uint8_t>& payload);

}  // namespace lbs::service
