#include "service/protocol.hpp"

#include <cstring>
#include <utility>

#include "support/error.hpp"

namespace lbs::service {

namespace {

constexpr std::uint32_t kMaxProcessors = 1u << 20;
constexpr std::uint32_t kMaxSamples = 1u << 20;

core::Algorithm decode_algorithm(std::uint8_t raw) {
  LBS_CHECK_MSG(raw <= static_cast<std::uint8_t>(core::Algorithm::Uniform),
                "wire: unknown algorithm id");
  return static_cast<core::Algorithm>(raw);
}

void encode_cost_spec(WireWriter& out, const model::CostSpec& spec, int depth) {
  LBS_CHECK_MSG(depth < kMaxCostSpecDepth, "wire: cost spec nests too deep");
  out.put_u8(static_cast<std::uint8_t>(spec.kind));
  switch (spec.kind) {
    case model::CostSpec::Kind::Zero:
      break;
    case model::CostSpec::Kind::Linear:
      out.put_f64(spec.a);
      break;
    case model::CostSpec::Kind::Affine:
      out.put_f64(spec.a);
      out.put_f64(spec.b);
      break;
    case model::CostSpec::Kind::Tabulated:
      out.put_u32(static_cast<std::uint32_t>(spec.samples.size()));
      for (const auto& [x, y] : spec.samples) {
        out.put_i64(x);
        out.put_f64(y);
      }
      break;
    case model::CostSpec::Kind::Chunked:
      out.put_f64(spec.a);
      out.put_f64(spec.b);
      out.put_i64(spec.chunk);
      break;
    case model::CostSpec::Kind::Scaled:
      LBS_CHECK_MSG(spec.inner != nullptr, "wire: scaled spec without inner");
      out.put_f64(spec.a);
      encode_cost_spec(out, *spec.inner, depth + 1);
      break;
  }
}

model::CostSpec decode_cost_spec(WireReader& in, int depth) {
  LBS_CHECK_MSG(depth < kMaxCostSpecDepth, "wire: cost spec nests too deep");
  std::uint8_t raw_kind = in.read_u8();
  LBS_CHECK_MSG(raw_kind <= static_cast<std::uint8_t>(model::CostSpec::Kind::Scaled),
                "wire: unknown cost kind");
  model::CostSpec spec;
  spec.kind = static_cast<model::CostSpec::Kind>(raw_kind);
  switch (spec.kind) {
    case model::CostSpec::Kind::Zero:
      break;
    case model::CostSpec::Kind::Linear:
      spec.a = in.read_f64();
      break;
    case model::CostSpec::Kind::Affine:
      spec.a = in.read_f64();
      spec.b = in.read_f64();
      break;
    case model::CostSpec::Kind::Tabulated: {
      std::uint32_t count = in.read_u32();
      LBS_CHECK_MSG(count <= kMaxSamples, "wire: implausible sample count");
      spec.samples.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        long long x = in.read_i64();
        double y = in.read_f64();
        spec.samples.emplace_back(x, y);
      }
      break;
    }
    case model::CostSpec::Kind::Chunked:
      spec.a = in.read_f64();
      spec.b = in.read_f64();
      spec.chunk = in.read_i64();
      break;
    case model::CostSpec::Kind::Scaled:
      spec.a = in.read_f64();
      spec.inner = std::make_shared<const model::CostSpec>(
          decode_cost_spec(in, depth + 1));
      break;
  }
  return spec;
}

void put_header(WireWriter& out, MessageType type, std::uint64_t id) {
  out.put_u8(kProtocolVersion);
  out.put_u8(static_cast<std::uint8_t>(type));
  out.put_u64(id);
}

}  // namespace

std::vector<long long> PlanResponse::displacements() const {
  std::vector<long long> out;
  out.reserve(counts.size());
  long long offset = 0;
  for (long long count : counts) {
    out.push_back(offset);
    offset += count;
  }
  return out;
}

PlanResponse plan_response(core::ScatterPlan plan) {
  PlanResponse response;
  response.status = PlanStatus::Ok;
  response.counts = std::move(plan.distribution.counts);
  response.predicted_makespan = plan.predicted_makespan;
  response.algorithm_used = plan.algorithm_used;
  response.dp_cells_evaluated = plan.dp_cells_evaluated;
  response.has_optimality_bound = plan.has_optimality_bound;
  response.optimality_gap = plan.optimality_gap;
  return response;
}

std::uint8_t WireReader::read_u8() {
  LBS_CHECK_MSG(pos_ + 1 <= size_, "wire: truncated message");
  return data_[pos_++];
}

std::uint32_t WireReader::read_u32() {
  LBS_CHECK_MSG(pos_ + 4 <= size_, "wire: truncated message");
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
             << (8 * i);
  }
  pos_ += 4;
  return value;
}

std::uint64_t WireReader::read_u64() {
  LBS_CHECK_MSG(pos_ + 8 <= size_, "wire: truncated message");
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
             << (8 * i);
  }
  pos_ += 8;
  return value;
}

long long WireReader::read_i64() {
  return static_cast<long long>(read_u64());
}

double WireReader::read_f64() {
  std::uint64_t bits = read_u64();
  double value;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string WireReader::read_string() {
  std::uint32_t length = read_u32();
  LBS_CHECK_MSG(pos_ + length <= size_, "wire: truncated string");
  std::string value(reinterpret_cast<const char*>(data_ + pos_), length);
  pos_ += length;
  return value;
}

void WireReader::expect_end() const {
  LBS_CHECK_MSG(pos_ == size_, "wire: trailing bytes after message");
}

void WireWriter::put_u8(std::uint8_t value) { buffer_.push_back(value); }

void WireWriter::put_u32(std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void WireWriter::put_u64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void WireWriter::put_i64(long long value) {
  put_u64(static_cast<std::uint64_t>(value));
}

void WireWriter::put_f64(double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  put_u64(bits);
}

void WireWriter::put_string(const std::string& value) {
  put_u32(static_cast<std::uint32_t>(value.size()));
  for (char c : value) buffer_.push_back(static_cast<std::uint8_t>(c));
}

void encode_cost(WireWriter& out, const model::Cost& cost) {
  encode_cost_spec(out, cost.spec(), 0);
}

model::Cost decode_cost(WireReader& in) {
  return model::Cost::from_spec(decode_cost_spec(in, 0));
}

void encode_platform(WireWriter& out, const model::Platform& platform) {
  out.put_u32(static_cast<std::uint32_t>(platform.size()));
  for (int i = 0; i < platform.size(); ++i) {
    encode_cost(out, platform[i].comm);
    encode_cost(out, platform[i].comp);
  }
}

model::Platform decode_platform(WireReader& in) {
  std::uint32_t count = in.read_u32();
  LBS_CHECK_MSG(count >= 1 && count <= kMaxProcessors,
                "wire: implausible processor count");
  model::Platform platform;
  platform.processors.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    model::Processor proc;
    proc.label = std::string("P").append(std::to_string(i));
    proc.comm = decode_cost(in);
    proc.comp = decode_cost(in);
    platform.processors.push_back(std::move(proc));
  }
  return platform;
}

std::vector<std::uint8_t> encode_plan_request(const PlanRequest& request) {
  WireWriter out;
  put_header(out, MessageType::PlanRequest, request.id);
  out.put_u8(static_cast<std::uint8_t>(request.algorithm));
  out.put_i64(request.items);
  out.put_u64(request.epoch);
  encode_platform(out, request.platform);
  return out.take();
}

std::vector<std::uint8_t> encode_plan_response(const PlanResponse& response) {
  WireWriter out;
  put_header(out, MessageType::PlanResponse, response.id);
  out.put_u8(static_cast<std::uint8_t>(response.status));
  switch (response.status) {
    case PlanStatus::Ok: {
      out.put_u8(static_cast<std::uint8_t>(response.algorithm_used));
      out.put_f64(response.predicted_makespan);
      out.put_i64(response.dp_cells_evaluated);
      std::uint8_t flags = 0;
      if (response.cache_hit) flags |= 1;
      if (response.coalesced) flags |= 2;
      if (response.has_optimality_bound) flags |= 4;
      out.put_u8(flags);
      out.put_f64(response.optimality_gap);
      out.put_u32(static_cast<std::uint32_t>(response.counts.size()));
      for (long long count : response.counts) out.put_i64(count);
      break;
    }
    case PlanStatus::Rejected:
      out.put_u32(response.retry_after_ms);
      break;
    case PlanStatus::WrongEpoch:
      encode_membership_view(out, response.current_view);
      break;
    case PlanStatus::Error:
    case PlanStatus::Disconnected:
    case PlanStatus::Timeout:
    case PlanStatus::BreakerOpen:
      out.put_string(response.message);
      break;
  }
  return out.take();
}

std::vector<std::uint8_t> encode_control(MessageType type, std::uint64_t id) {
  WireWriter out;
  put_header(out, type, id);
  return out.take();
}

std::vector<std::uint8_t> encode_stats_response(std::uint64_t id,
                                                const std::string& json) {
  WireWriter out;
  put_header(out, MessageType::StatsResponse, id);
  out.put_string(json);
  return out.take();
}

void encode_membership_view(WireWriter& out, const MembershipView& view) {
  out.put_u64(view.epoch);
  out.put_u32(static_cast<std::uint32_t>(view.members.size()));
  for (const Member& member : view.members) {
    out.put_u8(static_cast<std::uint8_t>(member.state));
    out.put_string(member.endpoint.to_string());
  }
}

MembershipView decode_membership_view(WireReader& in) {
  MembershipView view;
  view.epoch = in.read_u64();
  std::uint32_t count = in.read_u32();
  LBS_CHECK_MSG(count <= kMaxViewMembers, "wire: implausible member count");
  view.members.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Member member;
    std::uint8_t raw_state = in.read_u8();
    LBS_CHECK_MSG(raw_state <= static_cast<std::uint8_t>(ReplicaState::Draining),
                  "wire: unknown replica state");
    member.state = static_cast<ReplicaState>(raw_state);
    member.endpoint = Endpoint::parse(in.read_string());
    view.members.push_back(std::move(member));
  }
  validate_view(view);
  return view;
}

std::vector<std::uint8_t> encode_membership_update(std::uint64_t id,
                                                   const MembershipView& view) {
  WireWriter out;
  put_header(out, MessageType::MembershipUpdate, id);
  encode_membership_view(out, view);
  return out.take();
}

std::vector<std::uint8_t> encode_membership_ack(std::uint64_t id,
                                                const MembershipView& view) {
  WireWriter out;
  put_header(out, MessageType::MembershipAck, id);
  encode_membership_view(out, view);
  return out.take();
}

std::vector<std::uint8_t> encode_snapshot_range(std::uint64_t id,
                                                const MembershipView& view,
                                                const std::string& owner) {
  WireWriter out;
  put_header(out, MessageType::SnapshotRange, id);
  encode_membership_view(out, view);
  out.put_string(owner);
  return out.take();
}

std::vector<std::uint8_t> encode_snapshot_range_data(
    std::uint64_t id, const std::vector<SnapshotEntry>& entries) {
  LBS_CHECK_MSG(entries.size() <= kMaxSnapshotEntries,
                "wire: too many handoff entries");
  WireWriter out;
  put_header(out, MessageType::SnapshotRangeData, id);
  out.put_u32(static_cast<std::uint32_t>(entries.size()));
  for (const SnapshotEntry& entry : entries) encode_snapshot_entry(out, entry);
  return out.take();
}

Message decode_message(const std::uint8_t* data, std::size_t size) {
  WireReader in(data, size);
  std::uint8_t version = in.read_u8();
  LBS_CHECK_MSG(version == kProtocolVersion, "wire: protocol version mismatch");
  std::uint8_t raw_type = in.read_u8();
  LBS_CHECK_MSG(raw_type >= static_cast<std::uint8_t>(MessageType::PlanRequest) &&
                    raw_type <= static_cast<std::uint8_t>(MessageType::SnapshotRangeData),
                "wire: unknown message type");

  Message message;
  message.type = static_cast<MessageType>(raw_type);
  message.id = in.read_u64();

  switch (message.type) {
    case MessageType::PlanRequest: {
      PlanRequest request;
      request.id = message.id;
      request.algorithm = decode_algorithm(in.read_u8());
      request.items = in.read_i64();
      request.epoch = in.read_u64();
      request.platform = decode_platform(in);
      message.plan_request = std::move(request);
      break;
    }
    case MessageType::PlanResponse: {
      PlanResponse response;
      response.id = message.id;
      std::uint8_t raw_status = in.read_u8();
      LBS_CHECK_MSG(raw_status <= static_cast<std::uint8_t>(PlanStatus::WrongEpoch),
                    "wire: unknown plan status");
      response.status = static_cast<PlanStatus>(raw_status);
      switch (response.status) {
        case PlanStatus::Ok: {
          response.algorithm_used = decode_algorithm(in.read_u8());
          response.predicted_makespan = in.read_f64();
          response.dp_cells_evaluated = in.read_i64();
          std::uint8_t flags = in.read_u8();
          response.cache_hit = (flags & 1) != 0;
          response.coalesced = (flags & 2) != 0;
          response.has_optimality_bound = (flags & 4) != 0;
          response.optimality_gap = in.read_f64();
          std::uint32_t count = in.read_u32();
          LBS_CHECK_MSG(count <= kMaxProcessors, "wire: implausible count vector");
          response.counts.reserve(count);
          for (std::uint32_t i = 0; i < count; ++i) {
            response.counts.push_back(in.read_i64());
          }
          break;
        }
        case PlanStatus::Rejected:
          response.retry_after_ms = in.read_u32();
          break;
        case PlanStatus::WrongEpoch:
          response.current_view = decode_membership_view(in);
          break;
        case PlanStatus::Error:
        case PlanStatus::Disconnected:
        case PlanStatus::Timeout:
        case PlanStatus::BreakerOpen:
          response.message = in.read_string();
          break;
      }
      message.plan_response = std::move(response);
      break;
    }
    case MessageType::StatsResponse:
      message.text = in.read_string();
      break;
    case MessageType::MembershipUpdate:
    case MessageType::MembershipAck:
      message.view = decode_membership_view(in);
      break;
    case MessageType::SnapshotRange:
      message.view = decode_membership_view(in);
      message.text = in.read_string();
      break;
    case MessageType::SnapshotRangeData: {
      std::uint32_t count = in.read_u32();
      LBS_CHECK_MSG(count <= kMaxSnapshotEntries,
                    "wire: implausible handoff entry count");
      message.entries.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        message.entries.push_back(decode_snapshot_entry(in));
      }
      break;
    }
    case MessageType::Ping:
    case MessageType::Pong:
    case MessageType::StatsRequest:
    case MessageType::Shutdown:
    case MessageType::ShutdownAck:
      break;
  }
  in.expect_end();
  return message;
}

Message decode_message(const std::vector<std::uint8_t>& payload) {
  return decode_message(payload.data(), payload.size());
}

}  // namespace lbs::service
