#include "perfbench/stack.h"

#include <chrono>
#include <deque>
#include <utility>

#include "src/net/client.h"

namespace perfbench {

using tsunami::QueryOutcome;
using tsunami::net::ClientOptions;
using tsunami::net::ClientResult;
using tsunami::net::ServerOptions;
using tsunami::net::TsunamiClient;
using tsunami::net::WireError;
namespace durability = tsunami::durability;
namespace ingest = tsunami::ingest;

tsunami::ingest::IngestOptions StoreOptions(
    tsunami::ResourceGovernor* governor) {
  ingest::IngestOptions options;
  options.index.cluster_queries = false;
  // tsunami_serverd's defaults take minutes to optimize a 1M-row table on
  // one thread; these keep one build to a few seconds on 4 cores, so a run
  // can time several set-ups and ingest_durable's folds stay frequent.
  options.index.build_threads = 4;
  options.index.sample_rows = 20000;
  options.index.tree.max_regions = 8;
  options.index.agd.max_iters = 1;
  options.index.agd.max_sample_queries = 32;
  options.index.agd.max_sample_points = 1024;
  options.governor = governor;
  return options;
}

bool ServerStack::Start(const Dataset& data, const Workload& train,
                        const StackConfig& config, std::string* why) {
  if (!config.wal_dir.empty()) {
    durability::DurabilityOptions dopts;
    dopts.dir = config.wal_dir;
    dopts.durable_acks = true;
    dopts.wal_commit_delay_micros = 0;
    dopts.ingest = StoreOptions(&governor_);
    durable_ = durability::DurableIngestStore::Open(data, train, dopts, why);
    if (durable_ == nullptr) return false;
    store_ = &durable_->store();
  } else {
    owned_ = std::make_unique<ingest::IngestStore>(data, train,
                                                   StoreOptions(&governor_));
    store_ = owned_.get();
  }
  traced_ = std::make_unique<TracedIndex>(store_);

  tsunami::ServiceOptions service_options;
  service_options.threads = config.service_threads;
  service_options.governor = &governor_;
  if (config.wire) {
    // tsunami_serverd's admission settings.
    service_options.max_queued_queries = 256;
    service_options.max_queued_chunks = 4096;
    service_options.max_inflight_per_client = 32;
  }
  service_ = std::make_unique<tsunami::QueryService>(traced_.get(),
                                                     service_options);
  tsunami::QueryService* service = service_.get();
  const MultiDimIndex* traced = traced_.get();
  store_->AddPublishListener([service, traced](uint64_t) {
    service->plan_cache().InvalidateIndex(*traced);
  });
  if (!config.wire) return true;

  ServerOptions server_options;
  server_options.port = 0;
  server_options.drain_timeout_seconds = 5.0;
  server_options.governor = &governor_;
  server_options.insert_sink =
      [this](const std::vector<std::vector<Value>>& rows, uint64_t* version) {
        return Sink(rows, version);
      };
  server_ = std::make_unique<tsunami::net::TsunamiServer>(service_.get(),
                                                          server_options);
  if (!server_->Start(why)) return false;
  loop_ = std::thread([this] { server_->Run(); });
  return true;
}

int64_t ServerStack::Sink(const std::vector<std::vector<Value>>& rows,
                          uint64_t* version) {
  const int64_t t0 = NowNs();
  const uint64_t request = Tracer::on() ? Tracer::Lookup(BatchKey(rows)) : 0;
  ScopedSpan span("durability.sink", request);
  const int dims = store_->store().dims();
  int64_t result = static_cast<int64_t>(rows.size());
  for (const std::vector<Value>& row : rows) {
    if (static_cast<int>(row.size()) != dims) {
      result = ServerOptions::kSinkRejected;
    }
  }
  // The same mapping tsunami_serverd's sink applies.
  if (result >= 0 && durable_ != nullptr) {
    switch (durable_->TryInsertBatch(rows)) {
      case durability::InsertResult::kOk:
        break;
      case durability::InsertResult::kResourceExhausted:
        result = ServerOptions::kSinkResourceExhausted;
        break;
      case durability::InsertResult::kNotDurable:
      case durability::InsertResult::kRejected:
        result = ServerOptions::kSinkNotDurable;
        break;
    }
  } else if (result >= 0 && store_->TryInsertBatch(rows) ==
                                ingest::InsertAdmit::kResourceExhausted) {
    result = ServerOptions::kSinkResourceExhausted;
  }
  *version = store_->version();
  std::lock_guard<std::mutex> lock(sink_mu_);
  sink_us_.Add(static_cast<double>(NowNs() - t0) * 1e-3);
  return result;
}

Series ServerStack::TakeSinkMicros() {
  std::lock_guard<std::mutex> lock(sink_mu_);
  return std::exchange(sink_us_, Series());
}

void ServerStack::Stop(bool keep_durable) {
  if (server_ != nullptr) {
    server_->RequestDrain();
    if (loop_.joinable()) loop_.join();
  }
  if (store_ != nullptr) store_->StopBackground();
  server_.reset();
  service_.reset();
  traced_.reset();
  owned_.reset();
  if (!keep_durable) durable_.reset();
  store_ = nullptr;
}

double StartTimed(ServerStack* stack, const Dataset& data,
                  const Workload& train, const StackConfig& config,
                  const Query& probe, std::string* why) {
  const int64_t t0 = NowNs();
  if (!stack->Start(data, train, config, why)) return -1.0;
  if (!config.wire) {
    bool cancelled = false;
    stack->service().Run(probe, {}, &cancelled);
    if (cancelled) {
      *why = "first query did not complete";
      return -1.0;
    }
    return static_cast<double>(NowNs() - t0) * 1e-9;
  }
  ClientOptions options;
  options.port = stack->port();
  TsunamiClient client(options);
  if (!client.Connect(why)) return -1.0;
  const ClientResult r = client.Run(probe);
  if (!r.ok()) {
    *why = "first query failed: " + r.error_message;
    return -1.0;
  }
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

uint64_t BatchKey(const std::vector<std::vector<Value>>& rows) {
  uint64_t h = tsunami::HashCombine(0, rows.size());
  if (!rows.empty()) {
    for (Value v : rows.front()) {
      h = tsunami::HashCombine(h, static_cast<uint64_t>(v));
    }
  }
  return h;
}

void LoopStats::Merge(const LoopStats& other) {
  rtt_ms.Append(other.rtt_ms);
  done_ns.insert(done_ns.end(), other.done_ns.begin(), other.done_ns.end());
  server_us.Append(other.server_us);
  overhead_us.Append(other.overhead_us);
  attempted += other.attempted;
  completed += other.completed;
  scanned += other.scanned;
  matched += other.matched;
  cell_ranges += other.cell_ranges;
  failed += other.failed;
  for (const std::string& f : other.failures) {
    if (failures.size() < 4) failures.push_back(f);
  }
}

namespace {

struct InFlight {
  uint64_t id = 0;
  int64_t pool_index = 0;
  int64_t sent_ns = 0;
  uint64_t request = 0;  // Trace request id (0 untraced).
};

/// Why a wire answer is not a completed, correct result ("" when it is).
std::string CheckAnswer(const ClientResult& r, const Query& query,
                        const QueryResult* expected) {
  if (!r.transport_ok) return "transport loss";
  if (r.error != WireError::kNone) return "wire error: " + r.error_message;
  if (r.outcome != QueryOutcome::kCompleted) {
    return std::string("outcome ") + tsunami::ToString(r.outcome);
  }
  if (r.result.degraded) return "degraded result";
  std::string why;
  if (expected != nullptr && !SameAnswer(query, *expected, r.result, &why)) {
    return "wrong answer: " + why;
  }
  return "";
}

uint64_t SubmitTraced(TsunamiClient* client, const Query& query,
                      uint64_t* request) {
  *request = 0;
  if (Tracer::on()) {
    *request = Tracer::NewId();
    Tracer::Tag(tsunami::QueryFingerprint(query), *request);
  }
  ScopedSpan span("client.submit", *request);
  return client->Submit(query);
}

/// Awaits the in-flight query `f` and records it.
bool AwaitQuery(TsunamiClient* client, const InFlight& f, const Workload& pool,
                const std::vector<QueryResult>* expected, LoopStats* out) {
  ClientResult r;
  bool transport;
  {
    ScopedSpan span("client.await", f.request);
    transport = client->Await(f.id, &r);
  }
  const int64_t done_ns = NowNs();
  ++out->attempted;
  const Query& query = pool[f.pool_index];
  const std::string why = CheckAnswer(
      r, query, expected != nullptr ? &(*expected)[f.pool_index] : nullptr);
  if (!why.empty()) {
    out->Fail(why);
    return transport;
  }
  const double rtt_us = static_cast<double>(done_ns - f.sent_ns) * 1e-3;
  const double server_us = r.server_latency_seconds * 1e6;
  out->rtt_ms.Add(rtt_us * 1e-3);
  out->done_ns.push_back(done_ns);
  out->server_us.Add(server_us);
  out->overhead_us.Add(rtt_us - server_us);
  ++out->completed;
  out->scanned += r.result.scanned;
  out->matched += r.result.matched;
  out->cell_ranges += r.result.cell_ranges;
  return true;
}

}  // namespace

void RunClosedLoop(const ClosedLoop& spec, LoopStats* out) {
  ClientOptions options;
  options.port = spec.port;
  options.rng_seed = spec.seed;
  TsunamiClient client(options);
  std::string error;
  if (!client.Connect(&error)) {
    out->attempted += 1;
    out->Fail("connect: " + error);
    return;
  }
  tsunami::Rng rng(spec.seed);
  const Workload& pool = *spec.pool;
  while (NowNs() < spec.end_ns) {
    InFlight f;
    f.pool_index = spec.picker != nullptr
                       ? spec.picker->Next(&rng)
                       : static_cast<int64_t>(rng.NextBelow(pool.size()));
    f.sent_ns = NowNs();
    f.id = SubmitTraced(&client, pool[f.pool_index], &f.request);
    if (f.id == 0) {
      out->attempted += 1;
      out->Fail("submit: transport loss");
      return;
    }
    if (!AwaitQuery(&client, f, pool, spec.expected, out)) return;
    if (spec.think_ms > 0.0 && NowNs() < spec.end_ns) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          rng.NextExponential(1.0 / spec.think_ms)));
    }
  }
}

void CheckPoolOverWire(int port, const Workload& pool,
                       const std::vector<QueryResult>& expected, int depth,
                       LoopStats* out) {
  ClientOptions options;
  options.port = port;
  TsunamiClient client(options);
  std::string error;
  if (!client.Connect(&error)) {
    out->attempted += 1;
    out->Fail("connect: " + error);
    return;
  }
  std::deque<InFlight> inflight;
  int64_t next = 0;
  const int64_t n = static_cast<int64_t>(pool.size());
  while (next < n || !inflight.empty()) {
    while (next < n && static_cast<int>(inflight.size()) < depth) {
      InFlight f;
      f.pool_index = next++;
      f.sent_ns = NowNs();
      f.id = client.Submit(pool[f.pool_index]);
      if (f.id == 0) {
        out->attempted += 1;
        out->Fail("submit: transport loss");
        return;
      }
      inflight.push_back(f);
    }
    const InFlight f = inflight.front();
    inflight.pop_front();
    if (!AwaitQuery(&client, f, pool, &expected, out)) return;
  }
}

void RunOpenLoopWriter(int port, double batches_per_s, int rows_per_batch,
                       uint64_t seed, int64_t start_ns, int64_t end_ns,
                       WriterStats* out) {
  ClientOptions options;
  options.port = port;
  TsunamiClient client(options);
  std::string error;
  if (!client.Connect(&error)) {
    ++out->attempted;
    ++out->failed;
    out->failures.push_back("connect: " + error);
    return;
  }
  struct Pending {
    uint64_t id = 0;
    int64_t due_ns = 0;
    uint64_t request = 0;
    std::vector<std::vector<Value>> rows;
  };
  std::deque<Pending> pending;
  tsunami::Rng rng(seed);
  const double interval_ns = 1e9 / batches_per_s;
  auto await_oldest = [&]() -> bool {
    Pending p = std::move(pending.front());
    pending.pop_front();
    ClientResult r;
    bool transport;
    {
      ScopedSpan span("client.await", p.request);
      transport = client.AwaitInsert(p.id, &r);
    }
    const int64_t done_ns = NowNs();
    ++out->attempted;
    if (!transport || r.error != WireError::kNone ||
        r.inserted != static_cast<int64_t>(p.rows.size())) {
      ++out->failed;
      if (out->failures.size() < 4) {
        out->failures.push_back(transport ? "insert refused: " +
                                                r.error_message
                                          : "insert: transport loss");
      }
      return transport;
    }
    out->ack_ms.Add(static_cast<double>(done_ns - p.due_ns) * 1e-6);
    for (std::vector<Value>& row : p.rows) out->acked.push_back(std::move(row));
    return true;
  };
  for (int64_t i = 0;; ++i) {
    const int64_t due =
        start_ns + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    if (due >= end_ns) break;
    Pending p;
    p.due_ns = due;
    p.rows = RecentRows(&rng, rows_per_batch);
    // Collect acks while waiting for the due time; sleep when none are out.
    while (NowNs() < due) {
      if (!pending.empty()) {
        if (!await_oldest()) return;
      } else {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      }
    }
    out->lateness_ms.Add(static_cast<double>(NowNs() - due) * 1e-6);
    if (Tracer::on()) {
      p.request = Tracer::NewId();
      Tracer::Tag(BatchKey(p.rows), p.request);
    }
    {
      ScopedSpan span("client.insert", p.request);
      p.id = client.SubmitInsert(p.rows);
    }
    if (p.id == 0) {
      ++out->attempted;
      ++out->failed;
      out->failures.push_back("insert submit: transport loss");
      return;
    }
    pending.push_back(std::move(p));
  }
  while (!pending.empty()) {
    if (!await_oldest()) return;
  }
}

}  // namespace perfbench
