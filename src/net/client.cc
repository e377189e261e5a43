#include "src/net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/common/fault_injection.h"
#include "src/common/stats.h"

namespace tsunami {
namespace net {

namespace {

/// poll() for `events` with a seconds timeout; true when the fd is ready.
bool PollFor(int fd, short events, double timeout_seconds) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  const int timeout_ms =
      std::max(1, static_cast<int>(timeout_seconds * 1000.0));
  while (true) {
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n > 0) return (pfd.revents & (events | POLLHUP | POLLERR)) != 0;
    if (n == 0) return false;  // Timeout.
    if (errno == EINTR) continue;
    return false;
  }
}

}  // namespace

TsunamiClient::TsunamiClient(const ClientOptions& options)
    : options_(options), rng_(options.rng_seed) {}

TsunamiClient::~TsunamiClient() { Close(); }

void TsunamiClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rbuf_.clear();
  // Stashed responses for already-answered pipelined requests stay valid.
}

bool TsunamiClient::Connect(std::string* error) {
  if (fd_ >= 0) return true;
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    Close();
    return false;
  };
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return fail("socket");
  if (options_.rcvbuf_bytes > 0) {
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &options_.rcvbuf_bytes,
                 sizeof(options_.rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) return fail("connect");
    if (!PollFor(fd_, POLLOUT, options_.connect_timeout_seconds)) {
      errno = ETIMEDOUT;
      return fail("connect");
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      errno = so_error != 0 ? so_error : errno;
      return fail("connect");
    }
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool TsunamiClient::SendAll(std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    size_t len = data.size() - off;
    if (TSUNAMI_FAULT_FIRES("net.short_write", static_cast<int64_t>(len))) {
      len = std::max<size_t>(1, len / 2);
    }
    const ssize_t n = ::send(fd_, data.data() + off, len, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (PollFor(fd_, POLLOUT, options_.io_timeout_seconds)) continue;
      return false;  // Write timeout: the peer stopped draining us.
    }
    return false;
  }
  return true;
}

uint64_t TsunamiClient::Submit(const Query& query, int priority,
                               double deadline_seconds) {
  if (fd_ < 0 && !Connect()) return 0;
  const uint64_t request_id = next_request_id_++;
  FrameHeader header;
  header.type = FrameType::kQuery;
  header.request_id = request_id;
  header.priority = priority;
  // A positive budget must survive the truncation to micros — 0 means
  // "no deadline", so clamp sub-microsecond remainders up to 1.
  header.deadline_micros =
      deadline_seconds <= 0.0
          ? 0
          : std::max<uint64_t>(
                1, static_cast<uint64_t>(deadline_seconds * 1e6));
  std::string frame;
  AppendFrame(header, EncodeQueryPayload(query), &frame);
  if (TSUNAMI_FAULT_FIRES("net.partial_frame",
                          static_cast<int64_t>(request_id))) {
    // Torn frame: deliver a prefix, then vanish. The server must discard
    // the fragment on EOF without ever seeing a parseable query; the
    // request was provably not admitted, so retrying it is safe.
    const std::string_view prefix(frame.data(),
                                  std::max<size_t>(1, frame.size() / 2));
    (void)SendAll(prefix);
    Close();
    return 0;
  }
  if (!SendAll(frame)) {
    Close();
    return 0;
  }
  return request_id;
}

bool TsunamiClient::ReadFrame(FrameHeader* header, std::string* payload) {
  while (true) {
    const HeaderParse hp = ParseFrameHeader(rbuf_, header);
    if (hp == HeaderParse::kBadMagic || hp == HeaderParse::kBadVersion) {
      Close();
      return false;
    }
    if (hp == HeaderParse::kOk) {
      if (header->payload_len > options_.max_frame_payload) {
        Close();
        return false;
      }
      if (rbuf_.size() >= kFrameHeaderSize + header->payload_len) {
        payload->assign(rbuf_, kFrameHeaderSize, header->payload_len);
        rbuf_.erase(0, kFrameHeaderSize + header->payload_len);
        return true;
      }
    }
    if (!PollFor(fd_, POLLIN, options_.io_timeout_seconds)) {
      Close();
      return false;
    }
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    Close();  // EOF or hard error (ECONNRESET on an injected RST).
    return false;
  }
}

bool TsunamiClient::StashResponse(const FrameHeader& header,
                                  std::string_view payload) {
  switch (header.type) {
    case FrameType::kResult: {
      ResultPayload decoded;
      if (!DecodeResultPayload(payload, &decoded)) return false;
      ClientResult r;
      r.transport_ok = true;
      r.error = WireError::kNone;
      r.outcome = decoded.outcome;
      r.server_latency_seconds = decoded.server_latency_seconds;
      r.result = std::move(decoded.result);
      ready_[header.request_id] = std::move(r);
      return true;
    }
    case FrameType::kError: {
      ClientResult r;
      r.transport_ok = true;
      if (!DecodeErrorPayload(payload, &r.error, &r.error_message)) {
        return false;
      }
      ready_[header.request_id] = std::move(r);
      return true;
    }
    case FrameType::kInsertAck: {
      InsertAckPayload decoded;
      if (!DecodeInsertAckPayload(payload, &decoded)) return false;
      ClientResult r;
      r.transport_ok = true;
      r.error = WireError::kNone;
      r.outcome = QueryOutcome::kCompleted;
      r.inserted = decoded.accepted;
      r.store_version = decoded.store_version;
      ready_[header.request_id] = std::move(r);
      return true;
    }
    case FrameType::kPong:
      ++pongs_;
      return true;
    case FrameType::kPing:
    case FrameType::kQuery:
    case FrameType::kInsert:
      return false;  // The server never sends these.
  }
  return false;
}

bool TsunamiClient::Await(uint64_t request_id, ClientResult* out) {
  while (true) {
    auto it = ready_.find(request_id);
    if (it != ready_.end()) {
      *out = std::move(it->second);
      ready_.erase(it);
      return true;
    }
    if (fd_ < 0) return false;
    FrameHeader header;
    std::string payload;
    if (!ReadFrame(&header, &payload)) return false;
    if (!StashResponse(header, payload)) {
      Close();  // Protocol violation; nothing further can be trusted.
      return false;
    }
  }
}

uint64_t TsunamiClient::SubmitInsert(
    const std::vector<std::vector<Value>>& rows) {
  if (fd_ < 0 && !Connect()) return 0;
  const uint64_t request_id = next_request_id_++;
  FrameHeader header;
  header.type = FrameType::kInsert;
  header.request_id = request_id;
  std::string frame;
  AppendFrame(header, EncodeInsertPayload(rows), &frame);
  if (!SendAll(frame)) {
    Close();
    return 0;
  }
  return request_id;
}

ClientResult TsunamiClient::Insert(
    const std::vector<std::vector<Value>>& rows) {
  ClientResult r;
  const uint64_t request_id = SubmitInsert(rows);
  if (request_id == 0) {
    r.error_message = "submit-insert: transport loss";
    return r;
  }
  if (!AwaitInsert(request_id, &r)) {
    r = ClientResult{};
    r.error_message = "await-insert: transport loss";
  }
  return r;
}

bool TsunamiClient::SendRaw(std::string_view bytes) {
  if (fd_ < 0 && !Connect()) return false;
  if (!SendAll(bytes)) {
    Close();
    return false;
  }
  return true;
}

bool TsunamiClient::Ping() {
  if (fd_ < 0 && !Connect()) return false;
  FrameHeader header;
  header.type = FrameType::kPing;
  header.request_id = next_request_id_++;
  std::string frame;
  AppendFrame(header, {}, &frame);
  if (!SendAll(frame)) {
    Close();
    return false;
  }
  const uint64_t before = pongs_;
  while (pongs_ == before) {
    if (fd_ < 0) return false;
    FrameHeader in;
    std::string payload;
    if (!ReadFrame(&in, &payload)) return false;
    if (!StashResponse(in, payload)) {
      Close();
      return false;
    }
  }
  return true;
}

void TsunamiClient::Backoff(int attempt, double remaining_seconds) {
  double delay = options_.backoff_initial_seconds;
  for (int i = 0; i < attempt && delay < options_.backoff_max_seconds; ++i) {
    delay *= 2.0;
  }
  delay = std::min(delay, options_.backoff_max_seconds);
  delay *= 0.5 + 0.5 * rng_.NextDouble();  // Jitter: decorrelate retriers.
  if (remaining_seconds > 0.0) delay = std::min(delay, remaining_seconds);
  if (delay <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
}

ClientResult TsunamiClient::Run(const Query& query, int priority,
                                double deadline_seconds) {
  Timer overall;
  ClientResult last;
  last.error_message = "no attempt made";
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    double remaining = 0.0;
    if (deadline_seconds > 0.0) {
      // The first attempt carries the whole budget and the server enforces
      // it, so even a budget shorter than this call's own overhead gets a
      // truthful server-side outcome. Retries carry what is left.
      remaining = attempt == 0 ? deadline_seconds
                               : deadline_seconds - overall.ElapsedSeconds();
      if (remaining <= 0.0) {
        last.transport_ok = false;
        last.outcome = QueryOutcome::kTimedOut;
        last.error_message = "client deadline budget exhausted";
        last.attempts = attempt + 1;
        return last;
      }
    }
    if (fd_ < 0) {
      std::string err;
      if (!Connect(&err)) {
        last = ClientResult{};
        last.error_message = "connect: " + err;
        last.attempts = attempt + 1;
        Backoff(attempt, remaining);
        continue;
      }
    }
    const uint64_t request_id = Submit(query, priority, remaining);
    if (request_id == 0) {
      last = ClientResult{};
      last.error_message = "submit: transport loss";
      last.attempts = attempt + 1;
      Backoff(attempt, remaining);
      continue;
    }
    ClientResult r;
    if (!Await(request_id, &r)) {
      last = ClientResult{};
      last.error_message = "await: transport loss";
      last.attempts = attempt + 1;
      Backoff(attempt, remaining);
      continue;
    }
    r.attempts = attempt + 1;
    if (r.error != WireError::kNone) {
      if (IsRetryable(r.error)) {
        last = std::move(r);
        Backoff(attempt, remaining);
        continue;
      }
      return r;  // kMalformedFrame etc.: retrying cannot help.
    }
    if (r.outcome == QueryOutcome::kShed) {
      // The service evicted it for higher-priority work — identity result,
      // provably not completed, safe to retry.
      last = std::move(r);
      Backoff(attempt, remaining);
      continue;
    }
    return r;  // kCompleted, kFailed, kTimedOut, ...: terminal.
  }
  return last;
}

}  // namespace net
}  // namespace tsunami
