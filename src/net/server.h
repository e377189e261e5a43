// TsunamiServer: the non-blocking network front end over QueryService.
//
// One epoll event loop owns every connection: accept, frame parse, query
// dispatch, and response flush all happen on the loop thread, while the
// queries themselves execute on the QueryService's work-stealing scheduler.
// The loop never blocks on a query — completion is *pushed*: each admitted
// query carries a continuation (SubmitOptions::on_complete) that appends
// its ticket to a completion inbox and wakes the loop through an eventfd,
// and the loop Awaits exactly the tickets it finds there. A slow query can
// never park the loop, a finished one is answered on the next wake rather
// than on the next tick, and a chunk killed mid-flight by fault injection
// still completes its ticket (failed jobs run their continuation too).
//
// Robustness model (the whole point of this layer):
//   - Bounded buffers everywhere. The read buffer holds at most one partial
//     frame plus a socket read; a declared payload above the cap is answered
//     with a typed kOversizedFrame error before a single payload byte is
//     buffered, then the connection closes. The write buffer has a hard cap
//     and watermarks: above `pause_read_watermark` the server *stops
//     reading* that connection (backpressure — a client that won't drain
//     its responses can't pipeline more work), and above
//     `max_write_buffer` the connection is evicted outright.
//   - Slow/idle eviction by timer wheel. A hashed timer wheel fires a
//     per-connection check: a writer stalled past
//     `write_stall_timeout_seconds` or a connection idle past
//     `idle_timeout_seconds` (with nothing in flight) is closed, so stalled
//     readers cannot pin memory or block drain forever.
//   - Per-connection in-flight cap (wire-level kClientBusy) layered on the
//     service's per-client cap (each connection submits with its own
//     client_id) and the service's global bounded admission.
//   - Malformed input is answered, never trusted: a payload that fails its
//     strict decode, or a query naming a column the index lacks, gets a
//     kMalformedFrame error and the connection lives on (frame sync held);
//     a bad magic closes silently (sync is gone).
//   - Graceful drain. RequestDrain() (async-signal-safe; wired to SIGTERM
//     by tsunami_serverd) stops accepting, puts the service into drain mode
//     (new submissions anywhere are rejected kDraining), answers every
//     in-flight query, flushes, and exits the loop. RequestStop() is the
//     hard variant: in-flight tickets are still Awaited (never leaked) but
//     unflushed responses are dropped.
//
// Fault-injection sites (-DTSUNAMI_FAULT_INJECTION=ON builds):
//   net.accept_fail  — an accepted connection is dropped immediately.
//   net.short_write  — socket writes are truncated (exercises partial-flush
//                      resume paths); also armed client-side.
//   net.reset        — a query frame's connection is closed with SO_LINGER
//                      zero (a real RST) instead of being served.
#ifndef TSUNAMI_NET_SERVER_H_
#define TSUNAMI_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/resource_governor.h"
#include "src/common/stats.h"
#include "src/net/wire.h"
#include "src/serve/query_service.h"

namespace tsunami {
namespace net {

struct ServerOptions {
  /// Bind address. Loopback by default: this is a benchmark/soak daemon,
  /// not an internet-facing service.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the chosen port back with port() after Start().
  int port = 0;
  int listen_backlog = 511;
  /// Accepts beyond this are closed immediately (counted, not served).
  int max_connections = 4096;
  /// Per-frame payload cap (may be below the protocol's kMaxFramePayload).
  uint32_t max_frame_payload = 1u << 20;
  /// Write-buffer watermarks: above pause, stop reading the connection
  /// (backpressure); at/below resume, start reading again; above the hard
  /// cap, evict the connection.
  size_t pause_read_watermark = 1u << 20;
  size_t resume_read_watermark = 256u << 10;
  size_t max_write_buffer = 8u << 20;
  /// Wire-level per-connection in-flight cap (kClientBusy beyond it).
  int max_inflight_per_conn = 64;
  /// SO_SNDBUF for accepted sockets (0 = kernel default). Tests shrink it
  /// to force write-buffer growth and exercise the stall-eviction path.
  int sndbuf_bytes = 0;
  /// A connection with nothing in flight and nothing buffered is evicted
  /// after this long without traffic. 0 disables.
  double idle_timeout_seconds = 60.0;
  /// A connection whose write buffer has not fully drained for this long
  /// (a stalled reader) is evicted. 0 disables.
  double write_stall_timeout_seconds = 10.0;
  /// Drain gives in-flight queries and response flushes this long before
  /// forcing shutdown.
  double drain_timeout_seconds = 30.0;
  /// Event-loop tick: epoll timeout and timer-wheel granularity, so it
  /// paces idle/stall eviction and the drain timeout. Query answers do not
  /// wait for it: completions wake the loop themselves.
  double tick_seconds = 0.01;
  /// Write path for kInsert frames: returns rows appended (all-or-nothing)
  /// and, via *version, the store version observed after the append.
  /// Unset (the default) makes the server read-only — kInsert answers
  /// kReadOnly. Negative returns reject the batch: kSinkRejected answers
  /// kMalformedFrame (wrong arity, store full); kSinkNotDurable answers
  /// kDurabilityFailed (durable mode: the WAL failed before the batch was
  /// fsync'd — the rows were NOT acked); kSinkResourceExhausted answers the
  /// retryable kResourceExhausted (the batch was refused *before*
  /// admission — governor budget or latched ENOSPC — nothing applied, the
  /// connection stays open). A std::function rather than an
  /// ingest::IngestStore* so the net layer stays independent of
  /// src/ingest; tsunami_serverd wires it to IngestStore::InsertBatch (or
  /// DurableIngestStore::TryInsertBatch with --wal-dir).
  std::function<int64_t(const std::vector<std::vector<Value>>& rows,
                        uint64_t* version)>
      insert_sink;
  /// insert_sink return codes (any other negative value maps to
  /// kSinkRejected).
  static constexpr int64_t kSinkRejected = -1;
  static constexpr int64_t kSinkNotDurable = -2;
  static constexpr int64_t kSinkResourceExhausted = -3;
  /// Optional process resource governor (borrowed; must outlive the
  /// server). The loop publishes its aggregate read/write buffer bytes
  /// into ResourcePool::kNetBuffers once per tick — a gauge, not
  /// admission: the buffers are already bounded per connection by the
  /// watermarks above, so the governor only *observes* them to complete
  /// the process-wide memory picture.
  ResourceGovernor* governor = nullptr;
};

/// Loop-thread counters, published once per tick; stats() may be called
/// from any thread and sees at most one tick of lag.
struct ServerStats {
  int64_t accepted = 0;
  int64_t accept_failures = 0;       // accept() errors + injected failures.
  int64_t refused_at_capacity = 0;   // Closed at max_connections.
  int64_t active_connections = 0;    // Gauge.
  int64_t peak_connections = 0;
  int64_t frames_in = 0;
  int64_t frames_out = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  int64_t queries_admitted = 0;
  int64_t inserts_accepted = 0;      // kInsert frames answered kInsertAck.
  int64_t rows_inserted = 0;         // Rows across those frames.
  int64_t inserts_rejected = 0;      // kInsert answered with a typed error.
  /// Subset of inserts_rejected answered with the retryable
  /// kResourceExhausted (governor budget / latched ENOSPC).
  int64_t inserts_resource_rejected = 0;
  int64_t results_sent = 0;
  int64_t errors_sent = 0;           // Typed kError frames.
  int64_t pings = 0;
  int64_t malformed_frames = 0;
  int64_t oversized_frames = 0;
  int64_t bad_version_frames = 0;
  int64_t bad_type_frames = 0;
  int64_t bad_magic_closes = 0;
  int64_t evicted_idle = 0;
  int64_t evicted_stalled = 0;       // Stall timeout + hard write-cap hits.
  int64_t resets_injected = 0;       // net.reset fires.
  int64_t drain_rejected = 0;        // kQuery frames refused mid-drain.
  /// Tickets whose connection died first: still Awaited (results
  /// discarded) so the service's ticket table never leaks.
  int64_t orphaned_awaited = 0;
  int64_t inflight = 0;              // Gauge: routed, not yet answered.
  int64_t write_buffer_peak = 0;     // High-water mark across connections.
};

/// Hashed timer wheel: O(1) schedule, entries hashed into `slots` buckets
/// by fire tick; an entry whose lap has not yet come re-queues for another
/// pass. Drives per-connection idle/stall checks without scanning every
/// connection every tick.
class TimerWheel {
 public:
  explicit TimerWheel(size_t slots = 256) : slots_(slots) {}

  void Schedule(uint64_t id, uint64_t fire_tick) {
    slots_[fire_tick % slots_.size()].push_back(Entry{id, fire_tick});
  }

  /// Advances to `now_tick`, invoking fn(id) for every due entry.
  template <typename Fn>
  void Advance(uint64_t now_tick, Fn&& fn) {
    while (last_tick_ < now_tick) {
      ++last_tick_;
      std::vector<Entry>& slot = slots_[last_tick_ % slots_.size()];
      scratch_.clear();
      scratch_.swap(slot);
      for (const Entry& e : scratch_) {
        if (e.fire_tick <= last_tick_) {
          fn(e.id);
        } else {
          slot.push_back(e);  // Not this lap.
        }
      }
    }
  }

 private:
  struct Entry {
    uint64_t id;
    uint64_t fire_tick;
  };
  std::vector<std::vector<Entry>> slots_;
  std::vector<Entry> scratch_;
  uint64_t last_tick_ = 0;
};

class TsunamiServer {
 public:
  /// `service` is borrowed and must outlive the server.
  explicit TsunamiServer(QueryService* service,
                         const ServerOptions& options = {});
  ~TsunamiServer();

  TsunamiServer(const TsunamiServer&) = delete;
  TsunamiServer& operator=(const TsunamiServer&) = delete;

  /// Binds, listens, and sets up epoll. Must be called (once) before Run().
  /// Returns false with `*error` set on failure.
  bool Start(std::string* error = nullptr);

  /// The bound port (after Start(); meaningful when options.port == 0).
  int port() const { return port_; }

  /// The blocking event loop; returns after drain completes or
  /// RequestStop(). Typically run on its own thread.
  void Run();

  /// Begin graceful drain: stop accepting, reject new queries with
  /// kDraining, finish and flush in-flight work, then exit Run().
  /// Async-signal-safe (atomic store + eventfd write) — call it from a
  /// SIGTERM handler. Idempotent.
  void RequestDrain();

  /// Hard stop: exit Run() now. In-flight tickets are still Awaited (and
  /// discarded) so the service never leaks; unflushed responses are
  /// dropped. Async-signal-safe.
  void RequestStop();

  bool draining() const {
    return drain_requested_.load(std::memory_order_acquire);
  }

  ServerStats stats() const;

 private:
  /// One client connection, owned by the loop thread.
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    std::string rbuf;          // At most one partial frame + a read chunk.
    std::string wbuf;          // Pending responses.
    size_t woff = 0;           // Flushed prefix of wbuf.
    bool read_paused = false;  // Backpressure: above pause watermark.
    bool closing = false;      // Flush remaining wbuf, then close.
    /// Drain half-close: the write side is shut down (client saw FIN after
    /// its last result) and reads continue until the client's EOF. A plain
    /// close() here would RST the socket if the client writes one more
    /// frame, destroying already-delivered responses in its receive buffer.
    bool half_closed = false;
    uint32_t epoll_events = 0;
    int inflight = 0;          // Tickets routed to this connection.
    uint64_t last_activity_tick = 0;
    uint64_t stall_since_tick = 0;  // 0 = write buffer empty or moving.
    /// Earliest outstanding timer-wheel check for this connection; used to
    /// suppress duplicate wheel entries.
    bool next_check_scheduled = false;
    uint64_t next_check_tick = 0;
  };

  /// Where a completed ticket's answer goes. conn_id 0 = orphaned (the
  /// connection died first); the ticket is still Awaited on completion.
  struct Route {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
  };

  uint64_t NowTick() const;
  void HandleAccept();
  /// All Handle*/flush helpers return false when they closed the
  /// connection (the Conn pointer is dead).
  bool HandleReadable(Conn* c);
  bool ParseFrames(Conn* c);
  bool HandleFrame(Conn* c, const FrameHeader& header,
                   std::string_view payload);
  bool HandleQuery(Conn* c, const FrameHeader& header,
                   std::string_view payload);
  bool HandleInsert(Conn* c, const FrameHeader& header,
                    std::string_view payload);
  bool SendFrame(Conn* c, const FrameHeader& header, std::string_view payload);
  bool SendError(Conn* c, uint64_t request_id, WireError error,
                 std::string_view message);
  bool FlushConn(Conn* c);
  /// Recomputes read-pause state and the epoll interest set.
  bool UpdateConn(Conn* c);
  /// Flush what's pending, then close (now if the buffer is empty).
  bool StartClose(Conn* c);
  void CloseConn(Conn* c);
  /// SO_LINGER{1,0} + close: an abrupt RST, for the net.reset site.
  void ResetConn(Conn* c);
  /// Finished-ticket inbox shared with the queries' continuations (see
  /// server.cc).
  class CompletionInbox;

  /// Awaits the tickets the inbox collected since the last wake and queues
  /// their response frames (or discards them, for orphans).
  void DeliverCompletions();
  /// Timer-wheel callback: evict stalled writers / idle connections,
  /// reschedule the rest.
  void OnConnTimer(uint64_t conn_id);
  void ScheduleConnCheck(Conn* c);
  void EnterDrain();
  /// Awaits every remaining routed ticket (blocking — loop exit only).
  void AwaitAllRemaining();
  void PublishStats();

  QueryService* service_;
  const ServerOptions options_;
  // The index's column count, read once: queries naming a column at or
  // past it are rejected before they reach the kernel.
  const int dims_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  /// The loop's eventfd, owned (and closed) by `inbox_`: a continuation can
  /// outlive the server, so the descriptor it writes must live as long as
  /// the last continuation that holds the inbox.
  int wakeup_fd_ = -1;
  std::shared_ptr<CompletionInbox> inbox_;
  int port_ = 0;
  bool started_ = false;

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};

  // --- Loop-thread state (no locking; Run() owns it). ---
  Timer clock_;
  uint64_t now_tick_ = 0;
  uint64_t idle_ticks_ = 0;
  uint64_t stall_ticks_ = 0;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wakeup eventfd.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::unordered_map<QueryService::Ticket, Route> routes_;
  std::vector<QueryService::Ticket> completed_;  // Scratch for the inbox.
  TimerWheel wheel_;
  bool draining_active_ = false;
  uint64_t drain_start_tick_ = 0;
  ServerStats stats_;

  /// Published snapshot for cross-thread stats() reads.
  mutable std::mutex stats_mu_;
  ServerStats published_stats_;
};

}  // namespace net
}  // namespace tsunami

#endif  // TSUNAMI_NET_SERVER_H_
