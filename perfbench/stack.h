// The serving stack of tsunami_serverd, booted inside the benchmark process
// (IngestStore or DurableIngestStore -> QueryService -> TsunamiServer on
// loopback), and the TsunamiClient load generators that drive it: closed
// loops of queries and an open loop of insert batches.
#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "src/common/resource_governor.h"
#include "src/durability/durable_store.h"
#include "src/ingest/ingest_store.h"
#include "src/net/server.h"
#include "src/serve/query_service.h"

namespace perfbench {

struct StackConfig {
  /// False: no server; the service is used in-process with the embedded
  /// defaults (unbounded admission).
  bool wire = true;
  /// QueryService scheduler workers.
  int service_threads = 2;
  /// Durable mode when non-empty: a DurableIngestStore logs to this
  /// directory with fsync'd acks and no commit delay.
  std::string wal_dir;
};

/// Options shared by every store the benchmark builds: tsunami_serverd's
/// (the workload's type labels are used instead of clustering), with a
/// cheaper optimizer budget.
tsunami::ingest::IngestOptions StoreOptions(
    tsunami::ResourceGovernor* governor);

/// Owns one running stack. Teardown order matches tsunami_serverd: the
/// server drains, the compactor stops, then service and store die.
class ServerStack {
 public:
  ServerStack() = default;
  ~ServerStack() { Stop(); }
  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  /// Builds the store, service, and server, and starts the event loop on
  /// its own thread. False with `*why` set on failure.
  bool Start(const Dataset& data, const Workload& train,
             const StackConfig& config, std::string* why);
  /// Drains the server (every client must have disconnected), joins the
  /// loop, stops the compactor, and destroys service and store. The
  /// durable store is closed too unless `keep_durable`. Idempotent.
  void Stop(bool keep_durable = false);
  /// Closes a durable store kept by Stop(true).
  void CloseDurable() { durable_.reset(); }

  int port() const { return server_->port(); }
  tsunami::QueryService& service() { return *service_; }
  tsunami::net::TsunamiServer& server() { return *server_; }
  tsunami::ingest::IngestStore& store() { return *store_; }
  tsunami::durability::DurableIngestStore* durable() { return durable_.get(); }
  tsunami::ResourceGovernor& governor() { return governor_; }

  /// Microseconds spent inside each insert-sink call (TryInsertBatch on
  /// the loop thread) since the last call.
  Series TakeSinkMicros();

 private:
  int64_t Sink(const std::vector<std::vector<Value>>& rows, uint64_t* version);

  tsunami::ResourceGovernor governor_;
  std::unique_ptr<tsunami::durability::DurableIngestStore> durable_;
  std::unique_ptr<tsunami::ingest::IngestStore> owned_;
  tsunami::ingest::IngestStore* store_ = nullptr;
  std::unique_ptr<TracedIndex> traced_;
  std::unique_ptr<tsunami::QueryService> service_;
  std::unique_ptr<tsunami::net::TsunamiServer> server_;
  std::thread loop_;

  std::mutex sink_mu_;
  Series sink_us_;
};

/// Builds `stack` and answers `probe` through a fresh client: seconds from
/// the start of store construction to the first answered query, or a
/// negative value with `*why` set.
double StartTimed(ServerStack* stack, const Dataset& data,
                  const Workload& train, const StackConfig& config,
                  const Query& probe, std::string* why);

/// Trace key of an insert batch, shared by the client and the sink.
uint64_t BatchKey(const std::vector<std::vector<Value>>& rows);

/// What one or more client loops observed.
struct LoopStats {
  Series rtt_ms;       // Client-observed round trip (queries).
  std::vector<int64_t> done_ns;  // Completion time of each rtt_ms sample.
  Series server_us;    // Server-stamped admission -> completion.
  Series overhead_us;  // Round trip minus the server-stamped latency.
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t scanned = 0;
  int64_t matched = 0;
  int64_t cell_ranges = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 4) failures.push_back(why);
  }
  void Merge(const LoopStats& other);
};

/// A closed query loop over one connection, one user: submit a query,
/// await it, then think for an exponentially distributed time of mean
/// `think_ms` (0 = none), until `end_ns`. Queries are drawn from `pool` by
/// `picker` (uniform when null); with `expected`, every answer is checked
/// against it.
struct ClosedLoop {
  int port = 0;
  const Workload* pool = nullptr;
  const std::vector<QueryResult>* expected = nullptr;
  const ZipfPicker* picker = nullptr;
  uint64_t seed = 1;
  double think_ms = 0.0;
  int64_t end_ns = 0;
};
void RunClosedLoop(const ClosedLoop& spec, LoopStats* out);

/// Answers every pool query once over the wire (pipelined `depth` deep)
/// and checks each against `expected`.
void CheckPoolOverWire(int port, const Workload& pool,
                       const std::vector<QueryResult>& expected, int depth,
                       LoopStats* out);

/// An open insert loop over one connection: a `rows_per_batch` batch is
/// due every 1 / `batches_per_s` seconds from `start_ns` until `end_ns`,
/// sent whether or not earlier batches were acked. Ack latency is timed
/// from each batch's due time, so a stall also charges the batches queued
/// behind it.
struct WriterStats {
  Series ack_ms;
  Series lateness_ms;  // How late each send left against its due time.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  /// Every acked row, in ack order.
  std::vector<std::vector<Value>> acked;
};
void RunOpenLoopWriter(int port, double batches_per_s, int rows_per_batch,
                       uint64_t seed, int64_t start_ns, int64_t end_ns,
                       WriterStats* out);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
