#include "service/server.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <sstream>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/socket.hpp"
#include "support/error.hpp"

namespace lbs::service {

namespace {

// service.request span arg2: how the request was satisfied.
constexpr long long kServedFresh = 0;
constexpr long long kServedFromCache = 1;
constexpr long long kServedCoalesced = 2;

}  // namespace

bool Server::Connection::send(const std::vector<std::uint8_t>& payload) {
  std::lock_guard lock(write_mu);
  if (fd < 0) return false;
  IoStatus status = send_frame(fd, payload, deadline_after_ms(send_timeout_ms));
  if (status == IoStatus::TimedOut) {
    // A peer that cannot absorb one frame within the reply budget is
    // wedged or gone, and the stream may now end mid-frame: shut it
    // down. The connection thread reads EOF and closes the fd.
    ::shutdown(fd, SHUT_RDWR);
  }
  return status == IoStatus::Ok;
}

void Server::Connection::shutdown_read() {
  std::lock_guard lock(write_mu);
  if (fd >= 0) ::shutdown(fd, SHUT_RD);
}

void Server::Connection::close() {
  std::lock_guard lock(write_mu);
  close_fd(fd);
  fd = -1;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_shards, options_.cache_capacity_per_shard),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::global_metrics()),
      // The dispatcher participates in every for_range, so a pool of
      // (dp_workers - 1) background threads yields dp_workers-way solves.
      pool_((options_.dp_workers > 0 ? options_.dp_workers
                                     : support::default_parallelism()) -
            1),
      queue_(options_.max_queue) {
  if (!options_.endpoint.valid()) {
    LBS_CHECK_MSG(!options_.socket_path.empty(),
                  "server needs a socket path or an endpoint");
    options_.endpoint = Endpoint::unix_path(options_.socket_path);
  }
  LBS_CHECK_MSG(options_.max_queue >= 1, "server queue needs capacity >= 1");
  LBS_CHECK_MSG(options_.max_batch >= 1, "server batch size must be >= 1");
  LBS_CHECK_MSG(options_.max_processors >= 1, "max_processors must be >= 1");
  cache_.set_tracer(options_.tracer);
  cache_.set_metrics(metrics_);
}

Server::~Server() { stop(); }

obs::Tracer* Server::tracer() const {
  return options_.tracer != nullptr ? options_.tracer : obs::global_tracer();
}

void Server::start() {
  LBS_CHECK_MSG(!started_, "server already started");
  if (!options_.warm_start_path.empty()) warm_start();
  listen_fd_ = listen_endpoint(options_.endpoint);
  // Bootstrap membership AFTER the endpoint is resolved (a TCP port-0
  // listener learns its port above) so this replica can find itself in
  // the view. No pulls at bootstrap: there is no older view to reshard
  // from, and warm state comes from the snapshot file.
  if (!options_.membership_path.empty()) {
    try {
      (void)adopt_view(read_view_file(options_.membership_path),
                       /*allow_pull=*/false);
    } catch (const lbs::Error& error) {
      metrics_->counter("service.membership.file_rejected").add();
      std::fprintf(stderr, "lbsd: membership file rejected (%s): epoch 0\n",
                   error.what());
    }
  }
  started_ = true;
  {
    std::lock_guard lock(snapshot_wake_mu_);
    snapshot_stop_ = false;
  }
  accept_thread_ = std::thread(&Server::accept_loop, this);
  dispatch_thread_ = std::thread(&Server::dispatch_loop, this);
  if (!options_.snapshot_path.empty() && options_.snapshot_interval_ms > 0) {
    snapshot_thread_ = std::thread(&Server::snapshot_loop, this);
  }
}

void Server::stop() {
  if (!started_) return;
  {
    std::lock_guard lock(snapshot_wake_mu_);
    snapshot_stop_ = true;
  }
  snapshot_wake_cv_.notify_all();
  // shutdown(2) is the only stop signal: the accept loop sees -1, and
  // after it has exited the connection list is final.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // The dispatcher drains the closed queue before exiting: every accepted
  // solve is answered over its still-open connection. Requests read
  // meanwhile are answered from the cache or Rejected.
  queue_.close();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  {
    // Each connection thread then reads EOF, closes its own fd and exits;
    // writes stay open for the replies to requests it read before that.
    std::lock_guard lock(connections_mu_);
    for (auto& open : open_connections_) open.connection->shutdown_read();
    for (auto& open : open_connections_) {
      if (open.thread.joinable()) open.thread.join();
    }
    open_connections_.clear();
  }
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  if (!options_.snapshot_path.empty()) {
    // Final on-drain snapshot: the cache now holds every plan this run
    // solved, so a restart warm-starts with all of them.
    try {
      snapshot_now();
    } catch (const lbs::Error& error) {
      metrics_->counter("service.snapshot.write_failures").add();
      std::fprintf(stderr, "lbsd: final snapshot failed: %s\n", error.what());
    }
  }
  close_fd(listen_fd_);
  listen_fd_ = -1;
  if (options_.endpoint.kind == Endpoint::Kind::Unix) {
    ::unlink(options_.endpoint.path.c_str());
  }
  started_ = false;
}

void Server::record_snapshot_span(double start, const SnapshotStats& stats,
                                  bool restore) const {
  if (obs::Tracer* t = tracer()) {
    obs::TraceEvent event;
    event.type = obs::EventType::ServiceSnapshot;
    event.start = start;
    event.duration = obs::wall_now() - start;
    event.arg0 = static_cast<long long>(stats.entries);
    event.arg1 = static_cast<long long>(stats.bytes);
    event.arg2 = restore ? 1 : 0;
    t->record(event);
  }
}

void Server::warm_start() {
  const double started_at = obs::wall_now();
  std::vector<SnapshotEntry> entries;
  try {
    entries = read_snapshot(options_.warm_start_path);
  } catch (const lbs::Error& error) {
    // Any defect — missing file, torn write, foreign bytes, stale
    // version — means cold start, loudly. Warm state is an optimization;
    // it must never be able to take the service down or poison the cache.
    metrics_->counter("service.snapshot.rejected").add();
    std::fprintf(stderr, "lbsd: warm start rejected (%s): cold start\n",
                 error.what());
    return;
  }
  cache_.restore_entries(entries);
  metrics_->counter("service.snapshot.restores").add();
  metrics_->counter("service.snapshot.restored_entries")
      .add(static_cast<std::uint64_t>(entries.size()));
  SnapshotStats stats;
  stats.entries = entries.size();
  record_snapshot_span(started_at, stats, /*restore=*/true);
}

SnapshotStats Server::snapshot_now() {
  LBS_CHECK_MSG(!options_.snapshot_path.empty(),
                "snapshot_now needs options.snapshot_path");
  const double started_at = obs::wall_now();
  std::lock_guard lock(snapshot_write_mu_);
  SnapshotStats stats =
      write_snapshot(options_.snapshot_path, cache_.export_entries());
  metrics_->counter("service.snapshot.writes").add();
  metrics_->histogram("service.snapshot.entries")
      .observe(static_cast<double>(stats.entries));
  metrics_->histogram("service.snapshot.seconds")
      .observe(obs::wall_now() - started_at);
  record_snapshot_span(started_at, stats, /*restore=*/false);
  return stats;
}

void Server::snapshot_loop() {
  const auto interval = std::chrono::milliseconds(options_.snapshot_interval_ms);
  std::unique_lock lock(snapshot_wake_mu_);
  while (!snapshot_stop_) {
    if (snapshot_wake_cv_.wait_for(lock, interval,
                                   [this] { return snapshot_stop_; })) {
      break;  // stop(): the final on-drain snapshot supersedes this tick
    }
    lock.unlock();
    try {
      snapshot_now();
    } catch (const lbs::Error& error) {
      // Disk trouble must not kill the serving path; count it, log it,
      // and try again next tick.
      metrics_->counter("service.snapshot.write_failures").add();
      std::fprintf(stderr, "lbsd: snapshot failed: %s\n", error.what());
    }
    lock.lock();
  }
}

MembershipView Server::membership_view() const {
  std::lock_guard lock(view_mu_);
  return *view_;
}

bool Server::adopt_view(const MembershipView& update, bool allow_pull) {
  // adopt_mu_ serializes whole adoptions (compare, pull, publish) so two
  // racing updates cannot interleave their pulls; view_mu_ stays cheap.
  std::lock_guard adoption(adopt_mu_);
  MembershipView current;
  {
    std::lock_guard lock(view_mu_);
    current = *view_;
  }
  MembershipView next = current;
  if (!adopt(next, update)) return false;

  const double started_at = obs::wall_now();
  std::size_t pulled = 0;
  if (allow_pull) {
    const std::string self = options_.endpoint.to_string();
    const Member* self_now = next.find(options_.endpoint);
    const bool now_eligible =
        self_now != nullptr && self_now->state == ReplicaState::Serving;
    const Member* self_before = current.find(options_.endpoint);
    const bool was_eligible = current.epoch != 0 && self_before != nullptr &&
                              self_before->state == ReplicaState::Serving;
    std::vector<Endpoint> donors;
    if (now_eligible && !was_eligible) {
      // This replica just became route-eligible (a join's serving phase):
      // its new partition is scattered across every serving peer.
      for (const Member& member : next.members) {
        if (member.state == ReplicaState::Serving &&
            member.endpoint.to_string() != self) {
          donors.push_back(member.endpoint);
        }
      }
    } else if (now_eligible && current.epoch != 0) {
      // A peer moved serving -> draining: the keys it owned now land on
      // the survivors. Pull this replica's share while the drainer still
      // has its cache (the donor path is stateless, so it serves pulls
      // regardless of its own view).
      for (const Member& member : next.members) {
        if (member.state != ReplicaState::Draining) continue;
        const Member* before = current.find(member.endpoint);
        if (before != nullptr && before->state == ReplicaState::Serving) {
          donors.push_back(member.endpoint);
        }
      }
    }
    // Pulls happen BEFORE the view is published: until they finish this
    // replica keeps answering by the old epoch, and the moment the new
    // ring routes a key here the cache is already warm — zero re-solves.
    for (const Endpoint& donor : donors) pulled += pull_partition(next, donor);
  }
  {
    std::lock_guard lock(view_mu_);
    view_ = std::make_shared<const MembershipView>(next);
  }
  membership_updates_.fetch_add(1, std::memory_order_relaxed);
  metrics_->counter("service.membership.updates").add();
  if (obs::Tracer* t = tracer()) {
    obs::TraceEvent event;
    event.type = obs::EventType::ServiceMembership;
    event.start = started_at;
    event.duration = obs::wall_now() - started_at;
    event.arg0 = static_cast<long long>(next.epoch);
    event.arg1 = static_cast<long long>(next.members.size());
    event.arg2 = static_cast<long long>(pulled);
    t->record(event);
  }
  return true;
}

std::vector<SnapshotEntry> Server::entries_owned_by(
    const MembershipView& view, const std::string& owner) const {
  std::vector<SnapshotEntry> out;
  support::HashRing ring = ring_of(view);
  if (ring.node_count() == 0) return out;
  // Keep the encoded reply under the frame bound; a dropped tail costs
  // the joiner a few re-solves, not correctness.
  const std::size_t budget = kMaxFrameBytes - 4096;
  std::size_t used = 0;
  for (auto& entry : cache_.export_entries()) {
    const std::uint64_t hash = core::PlanKeyHash{}(entry.first);
    if (ring.node_for(hash) != owner) continue;
    const std::size_t bytes = 64 + entry.first.costs.size() * 8 +
                              entry.second.distribution.counts.size() * 8 +
                              entry.second.predicted_finish.size() * 8;
    if (used + bytes > budget) break;
    used += bytes;
    out.push_back(std::move(entry));
  }
  return out;
}

std::size_t Server::pull_partition(const MembershipView& view,
                                   const Endpoint& donor) {
  const double started_at = obs::wall_now();
  metrics_->counter("service.membership.handoff_pulls").add();
  const int fd = connect_endpoint(donor);
  if (fd < 0) {
    metrics_->counter("service.membership.handoff_failures").add();
    std::fprintf(stderr, "lbsd: handoff pull from %s failed: unreachable\n",
                 donor.to_string().c_str());
    return 0;
  }
  std::size_t restored = 0;
  try {
    const IoDeadline deadline = deadline_after_ms(options_.handoff_timeout_ms);
    const std::vector<std::uint8_t> request =
        encode_snapshot_range(1, view, options_.endpoint.to_string());
    if (send_frame(fd, request, deadline) != IoStatus::Ok) {
      throw lbs::Error("handoff: request not sent before the deadline");
    }
    std::vector<std::uint8_t> reply;
    if (recv_frame(fd, reply, deadline, 0) != IoStatus::Ok) {
      throw lbs::Error("handoff: no reply before the deadline");
    }
    Message message = decode_message(reply);
    LBS_CHECK_MSG(message.type == MessageType::SnapshotRangeData,
                  "handoff: unexpected reply type");
    cache_.restore_entries(message.entries);
    restored = message.entries.size();
    handoff_entries_.fetch_add(restored, std::memory_order_relaxed);
    metrics_->counter("service.membership.handoff_entries")
        .add(static_cast<std::uint64_t>(restored));
    metrics_->histogram("service.membership.handoff_seconds")
        .observe(obs::wall_now() - started_at);
  } catch (const lbs::Error& error) {
    // A failed pull degrades the warm start, never the reshard: the keys
    // involved just re-solve on first touch.
    metrics_->counter("service.membership.handoff_failures").add();
    std::fprintf(stderr, "lbsd: handoff pull from %s failed: %s\n",
                 donor.to_string().c_str(), error.what());
  }
  close_fd(fd);
  return restored;
}

void Server::request_stop() {
  {
    std::lock_guard lock(stop_request_mu_);
    stop_requested_ = true;
  }
  stop_request_cv_.notify_all();
}

bool Server::stop_requested() const {
  std::lock_guard lock(stop_request_mu_);
  return stop_requested_;
}

bool Server::wait_until_stop_requested_for(int timeout_ms) {
  std::unique_lock lock(stop_request_mu_);
  return stop_request_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                   [this] { return stop_requested_; });
}

void Server::accept_loop() {
  while (true) {
    int fd = accept_connection(listen_fd_);
    if (fd < 0) break;  // stop() shut the listener down
    connections_.fetch_add(1, std::memory_order_relaxed);
    metrics_->counter("service.connections").add();
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    connection->send_timeout_ms = options_.reply_timeout_ms;
    std::lock_guard lock(connections_mu_);
    reap_finished_connections();
    OpenConnection& open = open_connections_.emplace_back();
    open.connection = connection;
    open.thread = std::thread(&Server::connection_loop, this, std::move(connection));
  }
}

// Every finished connection thread keeps its stack mapped until joined,
// so a long-lived server whose clients re-dial joins them as it accepts.
void Server::reap_finished_connections() {
  std::erase_if(open_connections_, [](OpenConnection& open) {
    if (!open.connection->finished.load()) return false;
    open.thread.join();  // the thread has returned or is returning
    return true;
  });
}

// The only thread that closes connection->fd: every other thread writes
// under write_mu and, to end the connection, shuts it down.
void Server::connection_loop(std::shared_ptr<Connection> connection) {
  std::vector<std::uint8_t> payload;
  while (true) {
    IoStatus status = IoStatus::Closed;
    try {
      status = recv_frame(connection->fd, payload, no_deadline(),
                          options_.reply_timeout_ms);
    } catch (const lbs::Error&) {
      // Mis-framed or corrupted stream (bad length, checksum mismatch):
      // drop the connection.
      errors_.fetch_add(1, std::memory_order_relaxed);
      metrics_->counter("service.protocol_errors").add();
      break;
    }
    if (status != IoStatus::Ok) break;  // EOF, shutdown, or a stalled frame
    try {
      handle_message(connection, decode_message(payload));
    } catch (const lbs::Error&) {
      // Protocol violation (bad version, unknown type, truncated body):
      // nothing sensible to answer — close.
      errors_.fetch_add(1, std::memory_order_relaxed);
      metrics_->counter("service.protocol_errors").add();
      break;
    }
  }
  connection->close();
  connection->finished.store(true);
}

void Server::handle_message(const std::shared_ptr<Connection>& connection,
                            Message&& message) {
  switch (message.type) {
    case MessageType::PlanRequest:
      handle_plan(connection, *std::move(message.plan_request));
      return;
    case MessageType::Ping:
      (void)connection->send(encode_control(MessageType::Pong, message.id));
      return;
    case MessageType::StatsRequest:
      (void)connection->send(encode_stats_response(message.id, stats_json()));
      return;
    case MessageType::Shutdown:
      (void)connection->send(encode_control(MessageType::ShutdownAck, message.id));
      request_stop();
      return;
    case MessageType::MembershipUpdate:
      // Adopt iff newer (an epoch-0 update is a pure query); the Ack
      // always carries this replica's view, so the sender learns where
      // this replica converged either way.
      (void)adopt_view(*message.view, /*allow_pull=*/true);
      (void)connection->send(
          encode_membership_ack(message.id, membership_view()));
      return;
    case MessageType::SnapshotRange:
      // Donor side of a reshard: ship whatever cache entries `owner`
      // owns under the proposed view's ring. Stateless on purpose — a
      // draining replica (or one that has not adopted the view yet)
      // still donates, which is what makes the pull-before-publish
      // ordering on the puller deadlock-free.
      (void)connection->send(encode_snapshot_range_data(
          message.id, entries_owned_by(*message.view, message.text)));
      return;
    case MessageType::PlanResponse:
    case MessageType::Pong:
    case MessageType::StatsResponse:
    case MessageType::ShutdownAck:
    case MessageType::MembershipAck:
    case MessageType::SnapshotRangeData:
      // Server-to-client messages arriving at the server: protocol abuse.
      throw lbs::Error("wire: client sent a server-side message type");
  }
}

void Server::respond_plan(const Waiter& waiter, PlanResponse response) {
  response.id = waiter.request_id;
  if (response.status == PlanStatus::Ok) response.coalesced = waiter.coalesced;
  double now = obs::wall_now();

  // Span and metrics BEFORE the reply leaves: the reply is the client's
  // synchronization point, so anyone who has the response is guaranteed
  // the request's span is already recorded.
  if (obs::Tracer* t = tracer()) {
    obs::TraceEvent event;
    event.type = obs::EventType::ServiceRequest;
    event.start = waiter.received_at;
    event.duration = now - waiter.received_at;
    event.arg0 = response.counts.empty()
                     ? 0
                     : [&] {
                         long long total = 0;
                         for (long long c : response.counts) total += c;
                         return total;
                       }();
    event.arg1 = static_cast<long long>(response.status);
    event.arg2 = response.cache_hit ? kServedFromCache
                 : waiter.coalesced ? kServedCoalesced
                                    : kServedFresh;
    t->record(event);
  }
  metrics_->histogram("service.request_seconds")
      .observe(now - waiter.received_at);

  (void)waiter.connection->send(encode_plan_response(response));
}

void Server::handle_plan(const std::shared_ptr<Connection>& connection,
                         PlanRequest&& request) {
  const double received_at = obs::wall_now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  metrics_->counter("service.requests").add();
  Waiter waiter{connection, request.id, /*coalesced=*/false, received_at};

  // Epoch gate. A request routed under an older view gets the current
  // view back instead of a plan — the client re-rings and retries where
  // the key now lives. Epoch 0 (an unversioned client) is always served
  // by a serving replica. A draining (or view-absent) replica still
  // serves cache hits and coalesce-attaches — "in-flight work" — but
  // redirects anything that would admit a NEW unique solve.
  std::shared_ptr<const MembershipView> view;
  {
    std::lock_guard lock(view_mu_);
    view = view_;
  }
  bool drain_new_keys = false;
  if (view->epoch != 0) {
    // ANY nonzero mismatch redirects — including a request epoch NEWER
    // than this replica's view. Serving such a request would apply the
    // old ring to a key the client already routes by the new one (the
    // classic reshard race: the admin's sequential pushes let a client
    // learn epoch N+1 before this replica does). The redirect carries
    // this replica's older view; the client answers by gossiping its
    // newer one back (membership_exchange), which triggers this
    // replica's handoff pull before the retry lands.
    if (request.epoch != 0 && request.epoch != view->epoch) {
      wrong_epoch_.fetch_add(1, std::memory_order_relaxed);
      metrics_->counter("service.membership.wrong_epoch").add();
      PlanResponse response;
      response.status = PlanStatus::WrongEpoch;
      response.current_view = *view;
      respond_plan(waiter, std::move(response));
      return;
    }
    const Member* self = view->find(options_.endpoint);
    drain_new_keys = self == nullptr || self->state != ReplicaState::Serving;
  }

  // Admission control: answer implausible requests before they cost
  // anything. (The wire layer already bounds processor count at 2^20;
  // these are the operator's tighter limits.)
  if (request.platform.size() > options_.max_processors ||
      request.items < 0 || request.items > options_.max_items) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    metrics_->counter("service.errors").add();
    PlanResponse response;
    response.status = PlanStatus::Error;
    response.message = request.items < 0 ? "negative item count"
                       : request.items > options_.max_items
                           ? "item count exceeds server max_items"
                           : "processor count exceeds server max_processors";
    respond_plan(waiter, std::move(response));
    return;
  }

  core::PlanKey key =
      core::make_plan_key(request.platform, request.items, request.algorithm);

  if (auto cached = cache_.lookup(key)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    metrics_->counter("service.cache_hits").add();
    PlanResponse response = plan_response(*std::move(cached));
    response.cache_hit = true;
    respond_plan(waiter, std::move(response));
    return;
  }

  {
    std::unique_lock lock(inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      // An identical solve is already queued or running: attach. This
      // request will be answered by that solve's completion — k identical
      // concurrent requests cost exactly one dp.solve.
      waiter.coalesced = true;
      it->second->waiters.push_back(std::move(waiter));
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      metrics_->counter("service.coalesced").add();
      return;
    }

    if (drain_new_keys) {
      lock.unlock();
      wrong_epoch_.fetch_add(1, std::memory_order_relaxed);
      metrics_->counter("service.membership.wrong_epoch").add();
      PlanResponse response;
      response.status = PlanStatus::WrongEpoch;
      response.current_view = *view;
      respond_plan(waiter, std::move(response));
      return;
    }

    auto pending = std::make_shared<PendingSolve>();
    pending->key = key;
    pending->platform = std::move(request.platform);
    pending->items = request.items;
    pending->algorithm = request.algorithm;
    pending->waiters.push_back(std::move(waiter));
    pending->enqueued_at = obs::wall_now();
    pending->depth_at_enqueue = queue_.size();
    if (!queue_.try_push(pending)) {
      lock.unlock();
      rejected_.fetch_add(1, std::memory_order_relaxed);
      metrics_->counter("service.rejected").add();
      PlanResponse response;
      response.status = PlanStatus::Rejected;
      response.retry_after_ms = options_.retry_after_ms;
      respond_plan(pending->waiters.front(), std::move(response));
      return;
    }
    inflight_.emplace(std::move(key), std::move(pending));
  }
  metrics_->histogram("service.queue_depth")
      .observe(static_cast<double>(queue_.size()));
}

void Server::dispatch_loop() {
  std::vector<PendingPtr> batch;
  while (true) {
    batch.clear();
    std::size_t got = queue_.pop_batch(batch, static_cast<std::size_t>(options_.max_batch));
    if (got == 0) break;  // queue closed and fully drained

    const double batch_start = obs::wall_now();
    obs::Tracer* t = tracer();
    if (t != nullptr) {
      for (const auto& pending : batch) {
        obs::TraceEvent event;
        event.type = obs::EventType::ServiceQueue;
        event.start = pending->enqueued_at;
        event.duration = batch_start - pending->enqueued_at;
        event.arg0 = static_cast<long long>(pending->depth_at_enqueue);
        event.arg1 = pending->items;
        t->record(event);
      }
    }
    for (const auto& pending : batch) {
      metrics_->histogram("service.queue_seconds")
          .observe(batch_start - pending->enqueued_at);
    }

    metrics_->counter("service.batches").add();
    metrics_->histogram("service.batch_size")
        .observe(static_cast<double>(batch.size()));

    if (batch.size() == 1) {
      solve_one(*batch.front());
    } else {
      pool_.for_range(0, static_cast<long long>(batch.size()), 1,
                      [&](long long begin, long long end) {
                        for (long long i = begin; i < end; ++i) {
                          solve_one(*batch[static_cast<std::size_t>(i)]);
                        }
                      });
    }

    if (t != nullptr) {
      obs::TraceEvent event;
      event.type = obs::EventType::ServiceBatch;
      event.start = batch_start;
      event.duration = obs::wall_now() - batch_start;
      event.arg0 = static_cast<long long>(batch.size());
      t->record(event);
    }
  }
}

void Server::solve_one(PendingSolve& pending) {
  if (options_.solve_delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(options_.solve_delay_ms));
  }

  PlanResponse base;
  try {
    core::PlannerOptions planner_options;
    planner_options.algorithm = pending.algorithm;
    planner_options.dp.threads = options_.dp_threads_per_solve;
    planner_options.tracer = options_.tracer;
    planner_options.metrics = metrics_;
    // No cache attached: intake already probed it, and the in-flight map
    // guarantees this is the only solve for the key. Filled below —
    // *before* the key leaves the map, so a request arriving in between
    // hits the cache instead of starting a second solve.
    core::ScatterPlan plan =
        core::plan_scatter(pending.platform, pending.items, planner_options);
    cache_.insert(pending.key, plan);
    solved_.fetch_add(1, std::memory_order_relaxed);
    metrics_->counter("service.solved").add();
    base = plan_response(std::move(plan));
  } catch (const std::exception& error) {
    // Admission bounds the request, not the solve: a DP over n items
    // allocates O(n) columns, so an admitted n can still exhaust memory
    // (std::bad_alloc). That answers this request, never the daemon.
    errors_.fetch_add(1, std::memory_order_relaxed);
    metrics_->counter("service.errors").add();
    base.status = PlanStatus::Error;
    base.message = error.what();
  }

  std::vector<Waiter> waiters;
  {
    std::lock_guard lock(inflight_mu_);
    waiters = std::move(pending.waiters);
    pending.waiters.clear();
    inflight_.erase(pending.key);
  }
  for (const Waiter& waiter : waiters) {
    respond_plan(waiter, base);
  }
}

Server::Counters Server::counters() const {
  Counters out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.solved = solved_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.connections = connections_.load(std::memory_order_relaxed);
  out.membership_updates = membership_updates_.load(std::memory_order_relaxed);
  out.wrong_epoch = wrong_epoch_.load(std::memory_order_relaxed);
  out.handoff_entries = handoff_entries_.load(std::memory_order_relaxed);
  return out;
}

std::string Server::stats_json() const {
  Counters c = counters();
  core::ShardedPlanCache::Stats cache_stats = cache_.stats();
  MembershipView view = membership_view();
  const char* state = "serving";
  if (view.epoch != 0) {
    const Member* self = view.find(options_.endpoint);
    state = self != nullptr ? to_string(self->state) : "absent";
  }
  std::ostringstream out;
  out << "{\"service\": {"
      << "\"requests\": " << c.requests << ", \"cache_hits\": " << c.cache_hits
      << ", \"coalesced\": " << c.coalesced << ", \"solved\": " << c.solved
      << ", \"rejected\": " << c.rejected << ", \"errors\": " << c.errors
      << ", \"connections\": " << c.connections
      << ", \"queue_depth\": " << queue_.size() << "}, \"membership\": {"
      << "\"epoch\": " << view.epoch << ", \"state\": \"" << state
      << "\", \"members\": " << view.members.size()
      << ", \"updates\": " << c.membership_updates
      << ", \"wrong_epoch\": " << c.wrong_epoch
      << ", \"handoff_entries\": " << c.handoff_entries << "}, \"cache\": {"
      << "\"hits\": " << cache_stats.hits << ", \"misses\": " << cache_stats.misses
      << ", \"evictions\": " << cache_stats.evictions
      << ", \"size\": " << cache_.size() << ", \"shards\": " << cache_.shards()
      << "}, \"metrics\": " << metrics_->json_snapshot() << "}";
  return out.str();
}

}  // namespace lbs::service
