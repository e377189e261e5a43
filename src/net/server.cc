#include "src/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/fault_injection.h"

namespace tsunami {
namespace net {

namespace {

/// Seconds -> whole ticks (0 disables the timeout).
uint64_t ToTicks(double seconds, double tick_seconds) {
  if (seconds <= 0.0) return 0;
  const double ticks = seconds / tick_seconds;
  return ticks < 1.0 ? 1 : static_cast<uint64_t>(ticks + 0.5);
}

/// Bumps an eventfd's counter. Async-signal-safe.
void Wake(int fd) {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof(one));
}

}  // namespace

/// Tickets whose queries finished, appended by their continuations on
/// scheduler workers and taken in one swap by the loop on each wake. The
/// eventfd is written only when the list goes from empty to non-empty: the
/// loop always takes the whole list after reading the eventfd, so a ticket
/// pushed onto a non-empty list rides the wake already pending. Jointly
/// owned by the server and every query's continuation, and the eventfd
/// closes with the last owner — a late continuation never writes to a
/// descriptor number the kernel has since handed to a client socket.
class TsunamiServer::CompletionInbox {
 public:
  explicit CompletionInbox(int fd) : fd_(fd) {}
  ~CompletionInbox() { ::close(fd_); }

  CompletionInbox(const CompletionInbox&) = delete;
  CompletionInbox& operator=(const CompletionInbox&) = delete;

  void Push(QueryService::Ticket ticket) {
    bool was_empty;
    {
      std::lock_guard<std::mutex> lock(mu_);
      was_empty = tickets_.empty();
      tickets_.push_back(ticket);
    }
    if (was_empty) Wake(fd_);
  }

  /// Replaces `*out` with every ticket pushed since the last take.
  void TakeAll(std::vector<QueryService::Ticket>* out) {
    out->clear();
    std::lock_guard<std::mutex> lock(mu_);
    out->swap(tickets_);
  }

 private:
  const int fd_;
  std::mutex mu_;
  std::vector<QueryService::Ticket> tickets_;
};

namespace {

// Describes the first column `query` reads (a filter dim or an aggregate
// column) that an index of `dims` columns lacks; empty when none.
std::string MissingColumn(const Query& query, int dims) {
  for (const Predicate& p : query.filters) {
    if (p.dim >= dims) {
      return "filter column " + std::to_string(p.dim) + " not in the " +
             std::to_string(dims) + "-column index";
    }
  }
  for (int a = 0; a < query.num_aggs(); ++a) {
    const int column = query.agg_spec(a).column;
    if (column >= dims) {
      return "aggregate column " + std::to_string(column) + " not in the " +
             std::to_string(dims) + "-column index";
    }
  }
  return {};
}

}  // namespace

// The column count is read here, once: store() of a versioned index
// returns a reference into its current snapshot, which a concurrent fold
// may free, so the serving loop never calls it.
TsunamiServer::TsunamiServer(QueryService* service,
                             const ServerOptions& options)
    : service_(service),
      options_(options),
      dims_(service->index().store().dims()) {}

TsunamiServer::~TsunamiServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool TsunamiServer::Start(std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    inbox_.reset();
    listen_fd_ = wakeup_fd_ = epoll_fd_ = -1;
    return false;
  };
  if (started_) {
    if (error != nullptr) *error = "server already started";
    return false;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  wakeup_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakeup_fd_ < 0) return fail("eventfd");
  inbox_ = std::make_shared<CompletionInbox>(wakeup_fd_);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // Listener.
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return fail("epoll_ctl(listener)");
  }
  ev.data.u64 = 1;  // Wakeup eventfd.
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &ev) != 0) {
    return fail("epoll_ctl(wakeup)");
  }

  idle_ticks_ = ToTicks(options_.idle_timeout_seconds, options_.tick_seconds);
  stall_ticks_ =
      ToTicks(options_.write_stall_timeout_seconds, options_.tick_seconds);
  started_ = true;
  return true;
}

uint64_t TsunamiServer::NowTick() const {
  // Ticks count from 1: Conn::stall_since_tick uses 0 for "not stalled",
  // so a stall that began in the loop's first tick must not read as 0.
  return 1 + static_cast<uint64_t>(clock_.ElapsedSeconds() /
                                   options_.tick_seconds);
}

void TsunamiServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  if (wakeup_fd_ >= 0) Wake(wakeup_fd_);
}

void TsunamiServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wakeup_fd_ >= 0) Wake(wakeup_fd_);
}

ServerStats TsunamiServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return published_stats_;
}

void TsunamiServer::PublishStats() {
  if (options_.governor != nullptr) {
    // Gauge, not admission: per-connection buffers are already bounded by
    // the watermarks, so the governor just observes their aggregate to
    // complete the process-wide memory picture.
    int64_t buffered = 0;
    for (const auto& [id, c] : conns_) {
      buffered += static_cast<int64_t>(c->rbuf.size() + c->wbuf.size());
    }
    options_.governor->SetUsed(ResourcePool::kNetBuffers, buffered);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  published_stats_ = stats_;
}

void TsunamiServer::Run() {
  if (!started_) return;
  clock_.Reset();
  now_tick_ = NowTick();
  const uint64_t drain_ticks =
      ToTicks(options_.drain_timeout_seconds, options_.tick_seconds);
  const int timeout_ms =
      std::max(1, static_cast<int>(options_.tick_seconds * 1000.0));
  std::vector<epoll_event> events(256);

  while (true) {
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno != EINTR) break;
      n = 0;
    }
    now_tick_ = NowTick();
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      const uint32_t ev = events[i].events;
      if (id == 0) {
        HandleAccept();
        continue;
      }
      if (id == 1) {
        uint64_t drained;
        while (::read(wakeup_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // Closed earlier in this batch.
      Conn* c = it->second.get();
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(c);
        continue;
      }
      if ((ev & EPOLLOUT) != 0 && !FlushConn(c)) continue;
      if ((ev & EPOLLIN) != 0 && !HandleReadable(c)) continue;
    }

    now_tick_ = NowTick();
    DeliverCompletions();
    wheel_.Advance(now_tick_, [this](uint64_t id) { OnConnTimer(id); });

    if (stop_requested_.load(std::memory_order_acquire)) break;
    if (drain_requested_.load(std::memory_order_acquire) && !draining_active_) {
      EnterDrain();
    }
    if (draining_active_) {
      // A connection with no in-flight work and a flushed write buffer has
      // received everything it is owed. Half-close it (FIN) rather than
      // close(): a late frame from the client against a fully closed socket
      // would draw an RST that destroys the already-delivered responses
      // still sitting in the client's receive buffer. Reads continue until
      // the client's EOF, which closes the connection for real.
      for (auto& [id, c] : conns_) {
        if (!c->half_closed && c->inflight == 0 &&
            c->woff >= c->wbuf.size()) {
          ::shutdown(c->fd, SHUT_WR);
          c->half_closed = true;
        }
      }
      if (conns_.empty() && routes_.empty()) break;
      if (drain_ticks > 0 && now_tick_ - drain_start_tick_ >= drain_ticks) {
        break;  // Force: remaining tickets are Awaited below.
      }
    }
    PublishStats();
  }

  // Never leak a ticket: whatever is still in flight is Awaited (blocking)
  // and discarded, then every connection closes.
  AwaitAllRemaining();
  std::vector<uint64_t> remaining;
  remaining.reserve(conns_.size());
  for (const auto& [id, c] : conns_) remaining.push_back(id);
  for (uint64_t id : remaining) {
    auto it = conns_.find(id);
    if (it != conns_.end()) CloseConn(it->second.get());
  }
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  PublishStats();
}

void TsunamiServer::HandleAccept() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      ++stats_.accept_failures;
      break;
    }
    if (TSUNAMI_FAULT_FIRES("net.accept_fail", fd)) {
      ++stats_.accept_failures;
      ::close(fd);
      continue;
    }
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      ++stats_.refused_at_capacity;
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }

    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->epoll_events = EPOLLIN;
    conn->last_activity_tick = now_tick_;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ++stats_.accept_failures;
      ::close(fd);
      continue;
    }
    Conn* raw = conn.get();
    conns_.emplace(conn->id, std::move(conn));
    ++stats_.accepted;
    stats_.active_connections = static_cast<int64_t>(conns_.size());
    stats_.peak_connections =
        std::max(stats_.peak_connections, stats_.active_connections);
    ScheduleConnCheck(raw);
  }
}

bool TsunamiServer::HandleReadable(Conn* c) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      stats_.bytes_in += n;
      c->last_activity_tick = now_tick_;
      c->rbuf.append(buf, static_cast<size_t>(n));
      if (!ParseFrames(c)) return false;
      if (c->read_paused || c->closing) break;
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) {
      CloseConn(c);
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(c);
    return false;
  }
  return UpdateConn(c);
}

bool TsunamiServer::ParseFrames(Conn* c) {
  size_t off = 0;
  bool alive = true;
  while (alive && !c->closing) {
    const std::string_view view(c->rbuf.data() + off, c->rbuf.size() - off);
    FrameHeader header;
    const HeaderParse hp = ParseFrameHeader(view, &header);
    if (hp == HeaderParse::kNeedMore) break;
    if (hp == HeaderParse::kBadMagic) {
      // Stream sync is gone: nothing after this byte can be framed, and an
      // error frame would land mid-garbage. Close silently.
      ++stats_.bad_magic_closes;
      CloseConn(c);
      return false;
    }
    if (hp == HeaderParse::kBadVersion) {
      ++stats_.bad_version_frames;
      // Past the version check nothing in the header is trustworthy, so
      // the error carries request_id 0, then the connection closes.
      alive = SendError(c, 0, WireError::kBadVersion,
                        "unsupported wire protocol version");
      if (alive) alive = StartClose(c);
      break;
    }
    if (header.payload_len > options_.max_frame_payload ||
        header.payload_len > kMaxFramePayload) {
      ++stats_.oversized_frames;
      alive = SendError(c, header.request_id, WireError::kOversizedFrame,
                        "declared payload exceeds the server's frame cap");
      if (alive) alive = StartClose(c);
      break;
    }
    if (view.size() < kFrameHeaderSize + header.payload_len) break;
    ++stats_.frames_in;
    const std::string_view payload =
        view.substr(kFrameHeaderSize, header.payload_len);
    off += kFrameHeaderSize + header.payload_len;
    alive = HandleFrame(c, header, payload);
  }
  if (!alive) return false;
  if (off > 0) c->rbuf.erase(0, off);
  return true;
}

bool TsunamiServer::HandleFrame(Conn* c, const FrameHeader& header,
                                std::string_view payload) {
  if (c->half_closed) return true;  // Write side is gone; drain silently.
  switch (header.type) {
    case FrameType::kQuery:
      return HandleQuery(c, header, payload);
    case FrameType::kInsert:
      return HandleInsert(c, header, payload);
    case FrameType::kPing: {
      ++stats_.pings;
      FrameHeader pong;
      pong.type = FrameType::kPong;
      pong.request_id = header.request_id;
      return SendFrame(c, pong, {});
    }
    default:
      ++stats_.bad_type_frames;
      return SendError(c, header.request_id, WireError::kBadType,
                       "frame type not accepted by the server");
  }
}

bool TsunamiServer::HandleQuery(Conn* c, const FrameHeader& header,
                                std::string_view payload) {
  if (TSUNAMI_FAULT_FIRES("net.reset", static_cast<int64_t>(c->id))) {
    ++stats_.resets_injected;
    ResetConn(c);
    return false;
  }
  Query query;
  if (!DecodeQueryPayload(payload, &query)) {
    ++stats_.malformed_frames;
    return SendError(c, header.request_id, WireError::kMalformedFrame,
                     "query payload failed strict decode");
  }
  const std::string missing = MissingColumn(query, dims_);
  if (!missing.empty()) {
    ++stats_.malformed_frames;
    return SendError(c, header.request_id, WireError::kMalformedFrame,
                     missing);
  }
  // A frame may repeat a column's filter up to the wire cap; the scan runs
  // one pass per filter, so admit the per-column intersection instead.
  query.filters = MergedFilters(query.filters);
  if (draining_active_ || service_->draining()) {
    ++stats_.drain_rejected;
    return SendError(c, header.request_id, WireError::kDraining,
                     "server is draining");
  }
  if (c->inflight >= options_.max_inflight_per_conn) {
    return SendError(c, header.request_id, WireError::kClientBusy,
                     "per-connection in-flight cap reached");
  }

  SubmitOptions submit;
  submit.deadline_seconds =
      header.deadline_micros == 0
          ? 0.0
          : static_cast<double>(header.deadline_micros) * 1e-6;
  submit.priority = header.priority;
  submit.client_id = static_cast<int64_t>(c->id);
  // The continuation may fire inside Submit, before the ticket is routed
  // below. That is safe because the loop only reads the inbox on its own
  // thread, after this handler returns.
  submit.on_complete = [inbox = inbox_](QueryService::Ticket ticket) {
    inbox->Push(ticket);
  };
  const QueryService::Admission admission = service_->Submit(query, submit);
  if (!admission.admitted()) {
    WireError wire_error = WireError::kQueueFull;
    switch (admission.outcome) {
      case AdmissionOutcome::kDeadlineInfeasible:
        wire_error = WireError::kDeadlineInfeasible;
        break;
      case AdmissionOutcome::kClientBusy:
        wire_error = WireError::kClientBusy;
        break;
      case AdmissionOutcome::kDraining:
        wire_error = WireError::kDraining;
        break;
      default:
        break;
    }
    return SendError(c, header.request_id, wire_error,
                     ToString(admission.outcome));
  }
  ++stats_.queries_admitted;
  ++c->inflight;
  routes_[admission.ticket] = Route{c->id, header.request_id};
  stats_.inflight = static_cast<int64_t>(routes_.size());
  return true;
}

bool TsunamiServer::HandleInsert(Conn* c, const FrameHeader& header,
                                 std::string_view payload) {
  std::vector<std::vector<Value>> rows;
  if (!DecodeInsertPayload(payload, &rows)) {
    ++stats_.malformed_frames;
    ++stats_.inserts_rejected;
    return SendError(c, header.request_id, WireError::kMalformedFrame,
                     "insert payload failed strict decode");
  }
  if (!options_.insert_sink) {
    ++stats_.inserts_rejected;
    return SendError(c, header.request_id, WireError::kReadOnly,
                     "server has no writable store");
  }
  if (draining_active_ || service_->draining()) {
    ++stats_.drain_rejected;
    ++stats_.inserts_rejected;
    return SendError(c, header.request_id, WireError::kDraining,
                     "server is draining");
  }
  // The sink runs on the loop thread, and every connection waits while it
  // does. In memory that is cheap: a few cache-line writes per row into an
  // open delta chunk (compaction runs on the store's own background
  // thread). A durable sink (DurableIngestStore::TryInsertBatch with
  // durable acks) returns only after the WAL fsync'd the batch, so it
  // blocks the loop for one fsync per batch — hundreds of microseconds at
  // the median and milliseconds in the tail on an ext4 disk. A sink that
  // rejects the batch (wrong arity, store full) returns a negative count.
  InsertAckPayload ack;
  const int64_t accepted = options_.insert_sink(rows, &ack.store_version);
  if (accepted < 0) {
    ++stats_.inserts_rejected;
    if (accepted == ServerOptions::kSinkNotDurable) {
      return SendError(c, header.request_id, WireError::kDurabilityFailed,
                       "insert batch could not be made durable");
    }
    if (accepted == ServerOptions::kSinkResourceExhausted) {
      // Pre-admission refusal: nothing was applied or logged. The
      // connection stays open and the client may retry after backoff —
      // the store re-arms itself as backlog folds or disk space frees.
      ++stats_.inserts_resource_rejected;
      return SendError(c, header.request_id, WireError::kResourceExhausted,
                       "store under resource pressure; retry after backoff");
    }
    return SendError(c, header.request_id, WireError::kMalformedFrame,
                     "store rejected the insert batch");
  }
  ack.accepted = accepted;
  ++stats_.inserts_accepted;
  stats_.rows_inserted += accepted;
  FrameHeader reply;
  reply.type = FrameType::kInsertAck;
  reply.request_id = header.request_id;
  return SendFrame(c, reply, EncodeInsertAckPayload(ack));
}

void TsunamiServer::DeliverCompletions() {
  inbox_->TakeAll(&completed_);
  for (QueryService::Ticket ticket : completed_) {
    // Every inbox ticket has finished, so this Await never blocks. Only
    // routed tickets are ours to answer; ignore anything else.
    auto rit = routes_.find(ticket);
    if (rit == routes_.end()) continue;
    const Route route = rit->second;
    routes_.erase(rit);
    AwaitInfo info;
    QueryResult result = service_->Await(ticket, &info);
    Conn* c = nullptr;
    if (route.conn_id != 0) {
      auto cit = conns_.find(route.conn_id);
      if (cit != conns_.end()) c = cit->second.get();
    }
    if (c == nullptr) {
      ++stats_.orphaned_awaited;
      continue;
    }
    --c->inflight;
    ResultPayload payload;
    payload.outcome = info.outcome;
    payload.server_latency_seconds = info.latency_seconds;
    payload.result = std::move(result);
    FrameHeader header;
    header.type = FrameType::kResult;
    header.request_id = route.request_id;
    ++stats_.results_sent;
    SendFrame(c, header, EncodeResultPayload(payload));
  }
  stats_.inflight = static_cast<int64_t>(routes_.size());
}

bool TsunamiServer::SendFrame(Conn* c, const FrameHeader& header,
                              std::string_view payload) {
  AppendFrame(header, payload, &c->wbuf);
  ++stats_.frames_out;
  return FlushConn(c);
}

bool TsunamiServer::SendError(Conn* c, uint64_t request_id, WireError error,
                              std::string_view message) {
  ++stats_.errors_sent;
  FrameHeader header;
  header.type = FrameType::kError;
  header.request_id = request_id;
  return SendFrame(c, header, EncodeErrorPayload(error, message));
}

bool TsunamiServer::FlushConn(Conn* c) {
  while (c->woff < c->wbuf.size()) {
    size_t len = c->wbuf.size() - c->woff;
    if (TSUNAMI_FAULT_FIRES("net.short_write", static_cast<int64_t>(len))) {
      len = std::max<size_t>(1, len / 2);
    }
    const ssize_t n =
        ::send(c->fd, c->wbuf.data() + c->woff, len, MSG_NOSIGNAL);
    if (n > 0) {
      c->woff += static_cast<size_t>(n);
      stats_.bytes_out += n;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(c);
    return false;
  }
  if (c->woff >= c->wbuf.size()) {
    c->wbuf.clear();
    c->woff = 0;
    c->stall_since_tick = 0;
    if (c->closing) {
      CloseConn(c);
      return false;
    }
  } else {
    if (c->woff > (size_t{64} << 10)) {
      c->wbuf.erase(0, c->woff);
      c->woff = 0;
    }
    if (c->stall_since_tick == 0) {
      c->stall_since_tick = now_tick_;
      ScheduleConnCheck(c);
    }
  }
  return UpdateConn(c);
}

bool TsunamiServer::UpdateConn(Conn* c) {
  const size_t pending = c->wbuf.size() - c->woff;
  stats_.write_buffer_peak =
      std::max(stats_.write_buffer_peak, static_cast<int64_t>(pending));
  if (pending > options_.max_write_buffer) {
    ++stats_.evicted_stalled;
    CloseConn(c);
    return false;
  }
  if (!c->read_paused && pending > options_.pause_read_watermark) {
    c->read_paused = true;
  } else if (c->read_paused && pending <= options_.resume_read_watermark) {
    c->read_paused = false;
  }
  uint32_t want = 0;
  if (!c->read_paused && !c->closing) want |= EPOLLIN;
  if (pending > 0) want |= EPOLLOUT;
  if (want != c->epoll_events) {
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = c->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
    c->epoll_events = want;
  }
  return true;
}

bool TsunamiServer::StartClose(Conn* c) {
  c->closing = true;
  if (c->woff >= c->wbuf.size()) {
    CloseConn(c);
    return false;
  }
  return UpdateConn(c);
}

void TsunamiServer::CloseConn(Conn* c) {
  // Orphan this connection's in-flight tickets: they stay in routes_ and
  // are still Awaited when they complete (so the service never leaks a
  // ticket), but their answers are discarded.
  for (auto& [ticket, route] : routes_) {
    if (route.conn_id == c->id) route.conn_id = 0;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  conns_.erase(c->id);  // Frees *c.
  stats_.active_connections = static_cast<int64_t>(conns_.size());
}

void TsunamiServer::ResetConn(Conn* c) {
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;  // close() now sends RST, not FIN.
  ::setsockopt(c->fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  CloseConn(c);
}

void TsunamiServer::OnConnTimer(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();
  c->next_check_scheduled = false;
  const bool busy = c->inflight > 0 || c->woff < c->wbuf.size();
  if (stall_ticks_ > 0 && c->stall_since_tick > 0 &&
      now_tick_ - c->stall_since_tick >= stall_ticks_) {
    ++stats_.evicted_stalled;
    CloseConn(c);
    return;
  }
  if (idle_ticks_ > 0 && !busy &&
      now_tick_ - c->last_activity_tick >= idle_ticks_) {
    ++stats_.evicted_idle;
    CloseConn(c);
    return;
  }
  // Busy counts as activity: the idle clock restarts once work finishes.
  if (busy) c->last_activity_tick = now_tick_;
  ScheduleConnCheck(c);
}

void TsunamiServer::ScheduleConnCheck(Conn* c) {
  uint64_t due = UINT64_MAX;
  if (idle_ticks_ > 0) {
    due = std::min(due, c->last_activity_tick + idle_ticks_);
  }
  if (stall_ticks_ > 0 && c->stall_since_tick > 0) {
    due = std::min(due, c->stall_since_tick + stall_ticks_);
  }
  if (due == UINT64_MAX) return;
  if (due <= now_tick_) due = now_tick_ + 1;
  if (c->next_check_scheduled && c->next_check_tick <= due) return;
  c->next_check_scheduled = true;
  c->next_check_tick = due;
  wheel_.Schedule(c->id, due);
}

void TsunamiServer::EnterDrain() {
  // Requests already buffered on a socket arrived before the drain did, so
  // they count as in-flight: give every connection one read pass while
  // admission is still open. Without this, a connection whose queries are
  // sitting unread in the kernel buffer looks idle and would be
  // half-closed with its work silently discarded.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, c] : conns_) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it != conns_.end()) HandleReadable(it->second.get());
  }
  draining_active_ = true;
  drain_start_tick_ = now_tick_;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  service_->BeginDrain();
}

void TsunamiServer::AwaitAllRemaining() {
  for (const auto& [ticket, route] : routes_) {
    AwaitInfo info;
    service_->Await(ticket, &info);
    ++stats_.orphaned_awaited;
  }
  routes_.clear();
  stats_.inflight = 0;
}

}  // namespace net
}  // namespace tsunami
