// Network front-end suite: wire codec round trips and strict-decode
// rejections, the timer wheel, and live loopback servers — smoke
// equivalence against Execute, pipelined out-of-order completion,
// malformed/oversized/bad-version/bad-type typed errors, per-connection and
// per-client caps, queue-full retry, deadline propagation, backpressure and
// stalled-reader eviction, idle eviction, graceful drain, completions that
// wake a sleeping loop, and (under -DTSUNAMI_FAULT_INJECTION=ON) the
// injected net.* fault sites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/ingest/ingest_store.h"
#include "src/io/serializer.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/serve/query_service.h"
#include "tests/worker_jam.h"

namespace tsunami {
namespace {

using net::ClientOptions;
using net::ClientResult;
using net::FrameHeader;
using net::FrameType;
using net::HeaderParse;
using net::ServerOptions;
using net::TimerWheel;
using net::TsunamiClient;
using net::TsunamiServer;
using net::WireError;

// ---- Codec ----------------------------------------------------------------

// An unfiltered query payload with `num_aggs` COUNT aggregates, encoded by
// hand in EncodeQueryPayload's layout so it can carry more aggregates than
// a Query holds.
std::string CountAggsPayload(int num_aggs) {
  BinaryWriter w;
  w.PutVarU64(0);  // No filters.
  w.PutVarU64(static_cast<uint64_t>(num_aggs));
  for (int i = 0; i < num_aggs; ++i) {
    w.PutU8(static_cast<uint8_t>(AggKind::kCount));
    w.PutVarI64(0);
  }
  w.PutVarI64(-1);  // Unlabeled type.
  return w.Release();
}

TEST(WireCodec, FrameHeaderRoundTrip) {
  FrameHeader in;
  in.type = FrameType::kQuery;
  in.request_id = 0x1122334455667788ULL;
  in.priority = -7;
  in.deadline_micros = 1500000;
  std::string buf;
  net::AppendFrame(in, "payload", &buf);
  ASSERT_EQ(buf.size(), net::kFrameHeaderSize + 7);

  FrameHeader out;
  ASSERT_EQ(net::ParseFrameHeader(buf, &out), HeaderParse::kOk);
  EXPECT_EQ(out.type, FrameType::kQuery);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.payload_len, 7u);
  EXPECT_EQ(out.priority, -7);
  EXPECT_EQ(out.deadline_micros, 1500000u);

  // Short buffers ask for more; corrupt magic / version are typed.
  FrameHeader ignored;
  EXPECT_EQ(net::ParseFrameHeader(std::string_view(buf).substr(0, 31),
                                  &ignored),
            HeaderParse::kNeedMore);
  std::string bad_magic = buf;
  bad_magic[0] = 'X';
  EXPECT_EQ(net::ParseFrameHeader(bad_magic, &ignored),
            HeaderParse::kBadMagic);
  std::string bad_version = buf;
  bad_version[4] = 99;
  EXPECT_EQ(net::ParseFrameHeader(bad_version, &ignored),
            HeaderParse::kBadVersion);
}

TEST(WireCodec, QueryPayloadRoundTrip) {
  Query q;
  q.filters.push_back(Predicate{0, -100, 100});
  q.filters.push_back(Predicate{2, 5, 5});
  q.SetAggregates({{AggKind::kSum, 1}, {AggKind::kMax, 2}});
  q.type = 3;
  const std::string payload = net::EncodeQueryPayload(q);

  Query out;
  ASSERT_TRUE(net::DecodeQueryPayload(payload, &out));
  ASSERT_EQ(out.filters.size(), 2u);
  EXPECT_EQ(out.filters[0].dim, 0);
  EXPECT_EQ(out.filters[0].lo, -100);
  EXPECT_EQ(out.filters[1].hi, 5);
  ASSERT_EQ(out.num_aggs(), 2);
  EXPECT_EQ(out.agg_spec(0).op, AggKind::kSum);
  EXPECT_EQ(out.agg_spec(1).op, AggKind::kMax);
  EXPECT_EQ(out.type, 3);
  EXPECT_TRUE(FingerprintEquivalent(q, out));
}

TEST(WireCodec, QueryPayloadStrictDecodeRejectsCorruption) {
  Query q;
  q.filters.push_back(Predicate{1, 10, 20});
  q.SetAggregates({{AggKind::kAvg, 2}});
  const std::string payload = net::EncodeQueryPayload(q);
  Query out;
  // Every truncation point fails cleanly (never crashes, never half-fills).
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(net::DecodeQueryPayload(
        std::string_view(payload).substr(0, cut), &out))
        << "cut at " << cut;
  }
  // Trailing garbage is rejected too (a frame is exactly one query).
  EXPECT_FALSE(net::DecodeQueryPayload(payload + "x", &out));
  // An out-of-range aggregate op byte is rejected.
  std::string bad_op = payload;
  // Layout: varu64 nfilters, filter triple, varu64 naggs, u8 op, ...
  // Find the op byte by re-encoding with a sentinel-free search: the op is
  // the byte right after the aggregate count for this single-agg query.
  // Encoded: [1][dim=1 zz][lo zz][hi zz][1][op][col zz][type zz]
  const size_t op_index = payload.size() - 3;
  ASSERT_EQ(static_cast<uint8_t>(bad_op[op_index]),
            static_cast<uint8_t>(AggKind::kAvg));
  bad_op[op_index] = 0x7F;
  EXPECT_FALSE(net::DecodeQueryPayload(bad_op, &out));
  // The aggregate list is capped at kMaxQueryAggs: a full list decodes (and
  // re-encodes to the same bytes), one more is a malformed payload.
  const std::string full = CountAggsPayload(kMaxQueryAggs);
  ASSERT_TRUE(net::DecodeQueryPayload(full, &out));
  EXPECT_EQ(out.num_aggs(), kMaxQueryAggs);
  EXPECT_EQ(net::EncodeQueryPayload(out), full);
  EXPECT_FALSE(
      net::DecodeQueryPayload(CountAggsPayload(kMaxQueryAggs + 1), &out));
}

TEST(WireCodec, ResultAndErrorPayloadRoundTrip) {
  net::ResultPayload in;
  in.outcome = QueryOutcome::kShed;
  in.server_latency_seconds = 0.25;
  in.result.agg = -42;
  in.result.scanned = 1000;
  in.result.matched = 17;
  in.result.cell_ranges = 3;
  in.result.degraded = true;
  in.result.quarantined_blocks = 2;
  in.result.extra = {7, -9};
  std::string payload = net::EncodeResultPayload(in);
  net::ResultPayload out;
  ASSERT_TRUE(net::DecodeResultPayload(payload, &out));
  EXPECT_EQ(out.outcome, QueryOutcome::kShed);
  EXPECT_DOUBLE_EQ(out.server_latency_seconds, 0.25);
  EXPECT_EQ(out.result.agg, -42);
  EXPECT_EQ(out.result.matched, 17);
  EXPECT_TRUE(out.result.degraded);
  EXPECT_EQ(out.result.quarantined_blocks, 2);
  ASSERT_EQ(out.result.extra.size(), 2u);
  EXPECT_EQ(out.result.extra[1], -9);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(net::DecodeResultPayload(
        std::string_view(payload).substr(0, cut), &out));
  }
  // One accumulator per aggregate: at most kMaxQueryAggs - 1 extras.
  in.result.extra.assign(kMaxQueryAggs - 1, 5);
  ASSERT_TRUE(
      net::DecodeResultPayload(net::EncodeResultPayload(in), &out));
  EXPECT_EQ(out.result.extra, in.result.extra);
  in.result.extra.push_back(5);
  EXPECT_FALSE(
      net::DecodeResultPayload(net::EncodeResultPayload(in), &out));

  const std::string err =
      net::EncodeErrorPayload(WireError::kQueueFull, "try later");
  WireError code = WireError::kNone;
  std::string message;
  ASSERT_TRUE(net::DecodeErrorPayload(err, &code, &message));
  EXPECT_EQ(code, WireError::kQueueFull);
  EXPECT_EQ(message, "try later");
  EXPECT_STREQ(net::ToString(WireError::kQueueFull), "queue-full");
  EXPECT_TRUE(net::IsRetryable(WireError::kQueueFull));
  EXPECT_TRUE(net::IsRetryable(WireError::kDraining));
  EXPECT_FALSE(net::IsRetryable(WireError::kMalformedFrame));
}

TEST(WireCodec, InsertPayloadRoundTripAndStrictDecode) {
  std::vector<std::vector<Value>> rows = {
      {1, -2, 300000}, {4, 5, 6}, {-7, 8, 9}};
  const std::string payload = net::EncodeInsertPayload(rows);
  std::vector<std::vector<Value>> out;
  ASSERT_TRUE(net::DecodeInsertPayload(payload, &out));
  EXPECT_EQ(out, rows);

  // Empty batch is legal; every truncation and trailing byte is rejected.
  ASSERT_TRUE(net::DecodeInsertPayload(net::EncodeInsertPayload({}), &out));
  EXPECT_TRUE(out.empty());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(net::DecodeInsertPayload(
        std::string_view(payload).substr(0, cut), &out))
        << "cut at " << cut;
  }
  EXPECT_FALSE(net::DecodeInsertPayload(payload + "x", &out));

  // Hostile counts are capped before any allocation happens.
  {
    std::string huge;
    huge.push_back(static_cast<char>(0xFF));  // varint continuation bytes
    huge.append(8, static_cast<char>(0xFF));
    huge.push_back(1);
    EXPECT_FALSE(net::DecodeInsertPayload(huge, &out));
  }

  const net::InsertAckPayload ack_in{12345, 42};
  net::InsertAckPayload ack_out;
  ASSERT_TRUE(net::DecodeInsertAckPayload(
      net::EncodeInsertAckPayload(ack_in), &ack_out));
  EXPECT_EQ(ack_out.accepted, 12345);
  EXPECT_EQ(ack_out.store_version, 42u);
  EXPECT_STREQ(net::ToString(WireError::kReadOnly), "read-only");
  EXPECT_FALSE(net::IsRetryable(WireError::kReadOnly));
}

TEST(TimerWheelTest, FiresAtDueTickAcrossLaps) {
  TimerWheel wheel(8);  // Tiny wheel: laps exercised immediately.
  std::vector<uint64_t> fired;
  wheel.Schedule(1, 3);
  wheel.Schedule(2, 11);  // Same slot as tick 3, one lap later.
  wheel.Schedule(3, 5);
  wheel.Advance(4, [&](uint64_t id) { fired.push_back(id); });
  ASSERT_EQ(fired, (std::vector<uint64_t>{1}));
  wheel.Advance(10, [&](uint64_t id) { fired.push_back(id); });
  ASSERT_EQ(fired, (std::vector<uint64_t>{1, 3}));
  wheel.Advance(12, [&](uint64_t id) { fired.push_back(id); });
  ASSERT_EQ(fired, (std::vector<uint64_t>{1, 3, 2}));
}

// ---- Live loopback servers ------------------------------------------------

/// Builds the shared synthetic table once per fixture.
class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(91);
    const int64_t n = 24000;
    data_ = Dataset(3, {});
    data_.Reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      Value x = rng.UniformValue(0, 40000);
      data_.AppendRow(
          {x, x + rng.UniformValue(-300, 300), rng.UniformValue(0, 1000)});
    }
    index_ = std::make_unique<FullScanIndex>(data_);
  }

  Query Needle(Rng& rng) const {
    Query q;
    Value lo = rng.UniformValue(0, 38000);
    q.filters.push_back(Predicate{0, lo, lo + 1500});
    q.SetAggregates({{AggKind::kSum, 1}, {AggKind::kCount, 0}});
    return q;
  }

  Query Region() const {
    Query q;
    q.filters.push_back(Predicate{0, 0, 40000});
    q.SetAggregates({{AggKind::kSum, 1}, {AggKind::kSum, 2},
                     {AggKind::kCount, 0}});
    return q;
  }

  Dataset data_;
  std::unique_ptr<FullScanIndex> index_;
};

/// Starts a server on an ephemeral loopback port and runs its event loop
/// on a background thread; stops and joins on destruction.
class ServerHarness {
 public:
  ServerHarness(QueryService* service, ServerOptions options = {}) {
    options.port = 0;
    server_ = std::make_unique<TsunamiServer>(service, options);
    std::string error;
    started_ = server_->Start(&error);
    EXPECT_TRUE(started_) << error;
    if (started_) {
      thread_ = std::thread([this] { server_->Run(); });
    }
  }

  ~ServerHarness() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      server_->RequestStop();
      thread_.join();
    }
  }

  /// Requests drain and joins Run() (asserting it actually exits).
  void Drain() {
    ASSERT_TRUE(thread_.joinable());
    server_->RequestDrain();
    thread_.join();
  }

  TsunamiServer& server() { return *server_; }
  int port() const { return server_->port(); }

  ClientOptions ClientFor() const {
    ClientOptions c;
    c.port = port();
    c.io_timeout_seconds = 20.0;
    return c;
  }

 private:
  std::unique_ptr<TsunamiServer> server_;
  std::thread thread_;
  bool started_ = false;
};

// Also served by an inline (threads = 0) service, whose queries finish and
// push their completion inside Submit, before the server has routed the
// ticket.
TEST_F(NetTest, LoopbackSmokeMatchesExecute) {
  for (int threads : {-1, 0}) {
    SCOPED_TRACE(std::to_string(threads) + " service threads");
    ServiceOptions service_options;
    service_options.threads = threads;
    QueryService service(index_.get(), service_options);
    ServerHarness harness(&service);
    TsunamiClient client(harness.ClientFor());
    ASSERT_TRUE(client.Ping());

    Rng rng(7);
    for (int i = 0; i < 32; ++i) {
      const Query q = i % 8 == 0 ? Region() : Needle(rng);
      const ClientResult got = client.Run(q);
      ASSERT_TRUE(got.ok()) << "query " << i << ": error="
                            << net::ToString(got.error) << " outcome="
                            << ToString(got.outcome) << " msg="
                            << got.error_message;
      const QueryResult want = index_->Execute(q);
      EXPECT_EQ(got.result.agg, want.agg) << "query " << i;
      EXPECT_EQ(got.result.scanned, want.scanned) << "query " << i;
      EXPECT_EQ(got.result.matched, want.matched) << "query " << i;
      ASSERT_EQ(got.result.extra.size(), want.extra.size());
      for (size_t e = 0; e < want.extra.size(); ++e) {
        EXPECT_EQ(got.result.extra[e], want.extra[e]);
      }
      EXPECT_GE(got.server_latency_seconds, 0.0);
    }
    harness.Stop();
    const net::ServerStats stats = harness.server().stats();
    EXPECT_EQ(stats.queries_admitted, 32);
    EXPECT_EQ(stats.results_sent, 32);
    EXPECT_EQ(stats.orphaned_awaited, 0);
    EXPECT_EQ(stats.malformed_frames, 0);
  }
}

TEST_F(NetTest, ReadOnlyServerRejectsInsertsWithTypedError) {
  QueryService service(index_.get());
  ServerHarness harness(&service);  // No insert_sink configured.
  TsunamiClient client(harness.ClientFor());
  const ClientResult r = client.Insert({{1, 2, 3}});
  ASSERT_TRUE(r.transport_ok);
  EXPECT_EQ(r.error, WireError::kReadOnly);
  EXPECT_EQ(r.inserted, 0);
  // The connection survives the typed error: queries still work.
  Rng rng(3);
  EXPECT_TRUE(client.Run(Needle(rng)).ok());
  harness.Stop();
  EXPECT_EQ(harness.server().stats().inserts_rejected, 1);
}

TEST_F(NetTest, InsertsOverTheWireBecomeQueryableRows) {
  ingest::IngestOptions ingest_options;
  ingest_options.index.sample_rows = 20000;
  ingest_options.index.agd.max_sample_points = 512;
  ingest_options.index.agd.max_sample_queries = 32;
  ingest_options.index.agd.max_iters = 2;
  ingest_options.background_compaction = false;
  ingest_options.chunk_capacity = 256;
  ingest::IngestStore store(data_, Workload{}, ingest_options);
  QueryService service(&store);

  ServerOptions server_options;
  server_options.insert_sink =
      [&store](const std::vector<std::vector<Value>>& rows,
               uint64_t* version) -> int64_t {
    for (const auto& row : rows) {
      if (row.size() != 3u) return -1;
    }
    const int64_t accepted = store.InsertBatch(rows);
    *version = store.version();
    return accepted;
  };
  ServerHarness harness(&service, server_options);
  TsunamiClient client(harness.ClientFor());

  // Rows far outside the synthetic table's dim-0 range: countable exactly.
  std::vector<std::vector<Value>> batch;
  for (Value i = 0; i < 600; ++i) batch.push_back({900000 + i, i, i % 7});
  const ClientResult ack = client.Insert(batch);
  ASSERT_TRUE(ack.transport_ok);
  ASSERT_EQ(ack.error, WireError::kNone);
  EXPECT_EQ(ack.inserted, 600);
  // 600 rows through 256-row chunks rolled at least twice: the acked store
  // version must have advanced past the initial publish.
  EXPECT_GT(ack.store_version, 1u);

  // A mismatched-arity batch is rejected without killing the connection.
  const ClientResult bad = client.Insert({{1, 2}});
  ASSERT_TRUE(bad.transport_ok);
  EXPECT_EQ(bad.error, WireError::kMalformedFrame);

  Query over_new;
  over_new.filters.push_back(Predicate{0, 900000, 901000});
  over_new.SetAggregates({{AggKind::kCount, 0}, {AggKind::kSum, 1}});
  const ClientResult got = client.Run(over_new);
  ASSERT_TRUE(got.ok()) << net::ToString(got.error) << " "
                        << got.error_message;
  EXPECT_EQ(got.result.matched, 600);
  EXPECT_EQ(got.result.agg, 600);  // COUNT.
  EXPECT_EQ(got.result.extra[0], 600 * 599 / 2);  // SUM of 0..599.

  harness.Stop();
  const net::ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.inserts_accepted, 1);
  EXPECT_EQ(stats.rows_inserted, 600);
  EXPECT_EQ(stats.inserts_rejected, 1);
}

TEST_F(NetTest, PipelinedRequestsAwaitedOutOfOrder) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  TsunamiClient client(harness.ClientFor());

  Rng rng(13);
  std::vector<Query> queries;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(i == 0 ? Region() : Needle(rng));
    const uint64_t id = client.Submit(queries.back());
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  // Await in reverse submission order: the stash must hold whatever
  // completed first while we wait for the last.
  for (int i = 11; i >= 0; --i) {
    ClientResult got;
    ASSERT_TRUE(client.Await(ids[i], &got)) << "request " << i;
    ASSERT_TRUE(got.ok()) << net::ToString(got.error);
    const QueryResult want = index_->Execute(queries[i]);
    EXPECT_EQ(got.result.agg, want.agg) << "request " << i;
    EXPECT_EQ(got.result.matched, want.matched) << "request " << i;
  }
}

TEST_F(NetTest, MalformedPayloadGetsTypedErrorAndConnectionSurvives) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  TsunamiClient client(harness.ClientFor());
  ASSERT_TRUE(client.Ping());

  // Hand-roll a kQuery frame whose payload is garbage: the server must
  // answer with a typed error on the same request id and keep serving the
  // connection (the frame boundary itself was sound).
  FrameHeader h;
  h.type = FrameType::kQuery;
  h.request_id = 77;
  std::string frame;
  net::AppendFrame(h, "\xff\xff\xff\xff garbage", &frame);
  ASSERT_TRUE(client.SendRaw(frame));
  ClientResult err;
  ASSERT_TRUE(client.Await(77, &err));
  EXPECT_TRUE(err.transport_ok);
  EXPECT_EQ(err.error, WireError::kMalformedFrame)
      << net::ToString(err.error);
  // A well-formed payload with one aggregate past kMaxQueryAggs is
  // malformed too: rejected by the decoder, never thrown in the loop.
  h.request_id = 78;
  frame.clear();
  net::AppendFrame(h, CountAggsPayload(kMaxQueryAggs + 1), &frame);
  ASSERT_TRUE(client.SendRaw(frame));
  ASSERT_TRUE(client.Await(78, &err));
  EXPECT_TRUE(err.transport_ok);
  EXPECT_EQ(err.error, WireError::kMalformedFrame)
      << net::ToString(err.error);
  // Same connection, next query still works: frame sync held.
  Rng rng(5);
  const ClientResult ok = client.Run(Needle(rng));
  EXPECT_TRUE(ok.ok()) << net::ToString(ok.error);
}

// A frame may repeat a column's filter up to the wire cap of 4,096, and the
// scan would run one pass per filter. The server admits the per-column
// intersection instead: the reply is the merged query's answer, and the
// connection keeps serving.
TEST_F(NetTest, RepeatedColumnFiltersAreMergedBeforeAdmission) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  TsunamiClient client(harness.ClientFor());
  ASSERT_TRUE(client.Ping());

  Query q;
  for (int i = 0; i < 4096; ++i) {
    q.filters.push_back(Predicate{i % 3, 0, 900000});
  }
  q.filters.back() = Predicate{0, 1000, 30000};  // One narrowing repeat.
  q.SetAggregates({{AggKind::kSum, 1}, {AggKind::kCount, 0}});
  FrameHeader h;
  h.type = FrameType::kQuery;
  h.request_id = 41;
  std::string frame;
  net::AppendFrame(h, net::EncodeQueryPayload(q), &frame);
  ASSERT_TRUE(client.SendRaw(frame));
  ClientResult got;
  ASSERT_TRUE(client.Await(41, &got));
  ASSERT_TRUE(got.ok()) << net::ToString(got.error) << " "
                        << got.error_message;

  Query merged = q;
  merged.filters = MergedFilters(q.filters);
  ASSERT_EQ(merged.filters.size(), 3u);
  const QueryResult want = index_->Execute(merged);
  EXPECT_EQ(got.result.agg, want.agg);
  EXPECT_EQ(got.result.extra, want.extra);
  EXPECT_EQ(got.result.matched, want.matched);
  EXPECT_EQ(got.result.scanned, want.scanned);
  EXPECT_LT(want.matched, static_cast<int64_t>(data_.size()));

  EXPECT_TRUE(client.connected());
  Rng rng(17);
  const ClientResult next = client.Run(Needle(rng));
  EXPECT_TRUE(next.ok()) << net::ToString(next.error);
}

// A query naming a column the index lacks — a filter dim or an aggregate
// column — passes the strict decode but is still malformed: a typed error
// instead of an out-of-bounds read in the kernel, and the connection keeps
// serving.
TEST_F(NetTest, QueryNamingMissingColumnGetsTypedError) {
  Rng rng(13);
  Dataset data(2, {});
  for (int64_t i = 0; i < 5000; ++i) {
    data.AppendRow({rng.UniformValue(0, 1000), rng.UniformValue(0, 1000)});
  }
  FullScanIndex index(data);
  ServiceOptions service_options;
  service_options.threads = 2;
  QueryService service(&index, service_options);
  ServerHarness harness(&service);
  TsunamiClient client(harness.ClientFor());
  ASSERT_TRUE(client.Ping());

  const AggregateSpec count{AggKind::kCount, 0};
  const Query bad[] = {
      Query({Predicate{2, 0, 500}}, {count}),
      Query({Predicate{1000, 0, 500}}, {count}),
      Query({Predicate{0, 0, 500}}, {AggregateSpec{AggKind::kSum, 2}}),
  };
  for (const Query& q : bad) {
    const ClientResult got = client.Run(q);
    EXPECT_TRUE(got.transport_ok);
    EXPECT_EQ(got.error, WireError::kMalformedFrame)
        << net::ToString(got.error);
    EXPECT_NE(got.error_message.find("column"), std::string::npos)
        << got.error_message;
  }
  const Query valid({Predicate{0, 100, 600}},
                    {AggregateSpec{AggKind::kSum, 1}, count});
  const ClientResult got = client.Run(valid);
  ASSERT_TRUE(got.ok()) << net::ToString(got.error);
  const QueryResult want = index.Execute(valid);
  EXPECT_EQ(got.result.agg, want.agg);
  EXPECT_EQ(got.result.extra, want.extra);
  EXPECT_EQ(got.result.matched, want.matched);
  EXPECT_EQ(got.result.scanned, want.scanned);
  harness.Stop();
  EXPECT_EQ(harness.server().stats().malformed_frames, 3);
}

TEST_F(NetTest, OversizedFrameRejectedAndConnectionCloses) {
  QueryService service(index_.get());
  ServerOptions so;
  so.max_frame_payload = 1024;
  ServerHarness harness(&service, so);
  TsunamiClient client(harness.ClientFor());
  ASSERT_TRUE(client.Ping());

  FrameHeader h;
  h.type = FrameType::kQuery;
  h.request_id = 5;
  h.payload_len = 0;  // AppendFrame overwrites from the payload size.
  std::string frame;
  net::AppendFrame(h, std::string(4096, 'x'), &frame);
  ASSERT_TRUE(client.SendRaw(frame));
  ClientResult err;
  ASSERT_TRUE(client.Await(5, &err));
  EXPECT_EQ(err.error, WireError::kOversizedFrame);
  // The server closed the connection after the error: the next read hits
  // EOF (Ping fails over this connection).
  EXPECT_FALSE(client.Ping() && client.connected());
}

TEST_F(NetTest, BadVersionAndBadTypeAndBadMagic) {
  QueryService service(index_.get());
  ServerHarness harness(&service);

  {  // Bad version: typed error (request id 0), then close.
    TsunamiClient client(harness.ClientFor());
    ASSERT_TRUE(client.Ping());
    std::string frame;
    net::AppendFrame(FrameHeader{}, "", &frame);
    frame[4] = 42;  // Corrupt the version field.
    frame[5] = 0;
    ASSERT_TRUE(client.SendRaw(frame));
    ClientResult err;
    ASSERT_TRUE(client.Await(0, &err));
    EXPECT_EQ(err.error, WireError::kBadVersion);
  }
  {  // Bad type: typed error, connection survives.
    TsunamiClient client(harness.ClientFor());
    ASSERT_TRUE(client.Ping());
    FrameHeader h;
    h.type = static_cast<FrameType>(200);
    h.request_id = 9;
    std::string frame;
    net::AppendFrame(h, "", &frame);
    ASSERT_TRUE(client.SendRaw(frame));
    ClientResult err;
    ASSERT_TRUE(client.Await(9, &err));
    EXPECT_EQ(err.error, WireError::kBadType);
    EXPECT_TRUE(client.Ping());  // Still serving.
  }
  {  // Bad magic: silent close (stream sync is unrecoverable).
    TsunamiClient client(harness.ClientFor());
    ASSERT_TRUE(client.Ping());
    ASSERT_TRUE(client.SendRaw("this is not a tsunami frame........."));
    EXPECT_FALSE(client.Ping());
  }
  harness.Stop();
  const net::ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.bad_version_frames, 1);
  EXPECT_EQ(stats.bad_type_frames, 1);
  EXPECT_EQ(stats.bad_magic_closes, 1);
}

TEST_F(NetTest, PerConnectionInflightCapReturnsClientBusy) {
  // Unbounded service: isolate the cap. The jammed worker keeps the first
  // two queries queued, so every later frame of the burst finds the
  // connection at its cap however the frames arrive.
  ServiceOptions service_options;
  service_options.threads = 1;
  QueryService service(index_.get(), service_options);
  ServerOptions so;
  so.max_inflight_per_conn = 2;
  ServerHarness harness(&service, so);
  WorkerJam jam(&service.scheduler(), 1);
  TsunamiClient client(harness.ClientFor());

  const int kBurst = 16;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    const uint64_t id = client.Submit(Region());
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  for (int i = 2; i < kBurst; ++i) {
    ClientResult r;
    ASSERT_TRUE(client.Await(ids[i], &r)) << "request " << i;
    EXPECT_EQ(r.error, WireError::kClientBusy)
        << "request " << i << ": " << net::ToString(r.error);
  }
  jam.Release();
  const QueryResult want = index_->Execute(Region());
  for (int i = 0; i < 2; ++i) {
    ClientResult r;
    ASSERT_TRUE(client.Await(ids[i], &r)) << "request " << i;
    ASSERT_TRUE(r.ok()) << "request " << i << ": " << net::ToString(r.error);
    EXPECT_EQ(r.result.agg, want.agg) << "request " << i;
  }
  // A retrying client eventually lands every query.
  const ClientResult retried = client.Run(Region());
  EXPECT_TRUE(retried.ok());
}

TEST_F(NetTest, QueueFullIsTypedAndRetryable) {
  // The jammed worker keeps the one admitted query queued, so the rest of
  // the burst overflows the one-query queue however the frames arrive.
  ServiceOptions service_options;
  service_options.threads = 1;
  service_options.max_queued_queries = 1;
  service_options.low_priority_watermark = 1.0;
  QueryService service(index_.get(), service_options);
  ServerHarness harness(&service);
  WorkerJam jam(&service.scheduler(), 1);
  TsunamiClient client(harness.ClientFor());

  const int kBurst = 16;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    const uint64_t id = client.Submit(Region());
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  for (int i = 1; i < kBurst; ++i) {
    ClientResult r;
    ASSERT_TRUE(client.Await(ids[i], &r)) << "request " << i;
    EXPECT_EQ(r.error, WireError::kQueueFull)
        << "request " << i << ": " << net::ToString(r.error);
    EXPECT_TRUE(net::IsRetryable(r.error));
  }
  jam.Release();
  ClientResult first;
  ASSERT_TRUE(client.Await(ids[0], &first));
  ASSERT_TRUE(first.ok()) << net::ToString(first.error);
  EXPECT_EQ(first.result.agg, index_->Execute(Region()).agg);
  // Run()'s bounded backoff retries recover once the queue clears.
  const ClientResult retried = client.Run(Region());
  EXPECT_TRUE(retried.ok()) << net::ToString(retried.error);
  EXPECT_GE(retried.attempts, 1);
}

TEST_F(NetTest, DeadlinePropagatesToServerSideTimeout) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  ClientOptions copts = harness.ClientFor();
  copts.max_retries = 0;  // A timed-out query must not be retried.
  TsunamiClient client(copts);

  const ClientResult r = client.Run(Region(), /*priority=*/0,
                                    /*deadline_seconds=*/1e-6);
  ASSERT_TRUE(r.transport_ok) << r.error_message;
  ASSERT_EQ(r.error, WireError::kNone) << net::ToString(r.error);
  EXPECT_EQ(r.outcome, QueryOutcome::kTimedOut) << ToString(r.outcome);
  // Fail-closed: the identity result, never partial aggregates.
  EXPECT_EQ(r.result.agg, 0);
  EXPECT_EQ(r.result.matched, 0);
}

TEST_F(NetTest, IdleConnectionsAreEvicted) {
  QueryService service(index_.get());
  ServerOptions so;
  so.idle_timeout_seconds = 0.05;
  so.tick_seconds = 0.002;  // The timer wheel's granularity.
  ServerHarness harness(&service, so);
  TsunamiClient client(harness.ClientFor());
  ASSERT_TRUE(client.Ping());

  // Go quiet past the idle timeout; the timer wheel evicts us.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(client.Ping());
  harness.Stop();
  EXPECT_GE(harness.server().stats().evicted_idle, 1);
}

// Run at a 2 ms tick, and at a 0.5 s tick where the stall begins inside
// the loop's first tick (which must still count as stalled).
TEST_F(NetTest, StalledReaderIsEvicted) {
  for (double tick_seconds : {0.002, 0.5}) {
    SCOPED_TRACE("tick " + std::to_string(tick_seconds) + " s");
    QueryService service(index_.get());
    ServerOptions so;
    so.sndbuf_bytes = 4096;  // Tiny socket buffer: responses back up fast.
    so.pause_read_watermark = 16 << 10;
    so.resume_read_watermark = 4 << 10;
    so.write_stall_timeout_seconds = 0.1;
    so.idle_timeout_seconds = 30.0;  // Isolate: only the stall can evict.
    so.tick_seconds = tick_seconds;  // The timer wheel's granularity.
    so.max_inflight_per_conn = 64;
    ServerHarness harness(&service, so);
    ClientOptions copts = harness.ClientFor();
    copts.rcvbuf_bytes = 4096;  // Shrink the reader side too.
    TsunamiClient client(copts);

    // Many responses (~100 KB in all) against 4KB socket buffers and a
    // reader that never reads: the server's write buffer stalls, and the
    // stall timer evicts the connection instead of buffering forever. The
    // empty-range filter keeps execution cheap (no rows match); each
    // answer still carries kMaxQueryAggs accumulators, and each query past
    // the in-flight cap is answered with a kClientBusy error frame.
    const Query wide({Predicate{0, 1, 0}},
                     std::vector<AggregateSpec>(kMaxQueryAggs));
    for (int i = 0; i < 1536; ++i) {
      ASSERT_NE(client.Submit(wide), 0u);
    }
    // Never Await: just wait for the eviction.
    Timer timer;
    bool evicted = false;
    while (timer.ElapsedSeconds() < 20.0) {
      if (harness.server().stats().evicted_stalled >= 1) {
        evicted = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(evicted) << "stalled reader was never evicted";
    harness.Stop();
    // No ticket leaked: whatever was in flight when the connection died
    // was still awaited and discarded.
    EXPECT_EQ(harness.server().stats().inflight, 0);
  }
}

// A query that finishes while the loop sleeps must wake the loop. With a
// 30 s tick the loop wakes only for socket traffic and completions, so an
// answer that instead waited for the next tick would outlast the client's
// 5 s I/O timeout.
TEST_F(NetTest, CompletionWakesSleepingLoop) {
  ServiceOptions service_options;
  service_options.threads = 1;
  QueryService service(index_.get(), service_options);
  ServerOptions so;
  so.tick_seconds = 30.0;
  ServerHarness harness(&service, so);
  WorkerJam jam(&service.scheduler(), 1);
  ClientOptions copts = harness.ClientFor();
  copts.io_timeout_seconds = 5.0;
  copts.max_retries = 0;
  TsunamiClient client(copts);

  Rng rng(17);
  const Query q = Needle(rng);
  const uint64_t id = client.Submit(q);
  ASSERT_NE(id, 0u);
  // The query is queued behind the jammed worker once the loop has
  // published its admission — the last thing an iteration does before
  // epoll_wait.
  Timer admit_timer;
  while (harness.server().stats().queries_admitted < 1 &&
         admit_timer.ElapsedSeconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(harness.server().stats().queries_admitted, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  jam.Release();
  Timer reply_timer;
  ClientResult got;
  ASSERT_TRUE(client.Await(id, &got)) << "the answer waited for the tick";
  EXPECT_LT(reply_timer.ElapsedSeconds(), 1.0);
  ASSERT_TRUE(got.ok()) << net::ToString(got.error) << " "
                        << ToString(got.outcome);
  const QueryResult want = index_->Execute(q);
  EXPECT_EQ(got.result.agg, want.agg);
  EXPECT_EQ(got.result.matched, want.matched);
}

TEST_F(NetTest, GracefulDrainFinishesInflightAndRejectsNew) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  TsunamiClient client(harness.ClientFor());

  // Park a burst of work in flight, then drain.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const uint64_t id = client.Submit(Region());
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  harness.server().RequestDrain();
  // Wait until the drain reached the service (new submissions reject).
  Timer timer;
  while (!service.draining() && timer.ElapsedSeconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(service.draining());

  // A query submitted mid-drain gets a typed kDraining error (if the
  // connection is still up; the drain may close it once idle — transport
  // loss is the other legal answer, never a wrong result).
  const uint64_t late = client.Submit(Region());
  // Every in-flight query still gets its full answer.
  const QueryResult want = index_->Execute(Region());
  for (uint64_t id : ids) {
    ClientResult r;
    const net::ServerStats dbg = harness.server().stats();
    ASSERT_TRUE(client.Await(id, &r))
        << "in-flight answer lost in drain: admitted=" << dbg.queries_admitted
        << " results=" << dbg.results_sent << " errors=" << dbg.errors_sent;
    ASSERT_TRUE(r.ok()) << net::ToString(r.error) << " " << ToString(r.outcome);
    EXPECT_EQ(r.result.agg, want.agg);
    EXPECT_EQ(r.result.matched, want.matched);
  }
  if (late != 0) {
    ClientResult r;
    if (client.Await(late, &r)) {
      EXPECT_EQ(r.error, WireError::kDraining) << net::ToString(r.error);
    }
  }
  // Hang up. The server half-closed this connection (FIN after the last
  // result) and is now waiting on our EOF; without it the drain can only
  // finish via its 30s timeout.
  client.Close();
  // Run() returns on its own — the drain completes without RequestStop.
  harness.Drain();
  const net::ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.active_connections, 0);
  // And the drained service rejects fresh work at the admission layer.
  const QueryService::Admission post = service.Submit(Region());
  EXPECT_EQ(post.outcome, AdmissionOutcome::kDraining)
      << ToString(post.outcome);
}

#if defined(TSUNAMI_FAULT_INJECTION)

class NetFaultTest : public NetTest {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

TEST_F(NetFaultTest, AcceptFailureIsSurvivedByRetry) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 1;
  fault::Arm("net.accept_fail", spec);

  TsunamiClient client(harness.ClientFor());
  Rng rng(3);
  const Query q = Needle(rng);
  const ClientResult r = client.Run(q);
  ASSERT_TRUE(r.ok()) << net::ToString(r.error) << " " << r.error_message;
  EXPECT_GE(r.attempts, 2) << "first accept should have been injected away";
  EXPECT_EQ(r.result.agg, index_->Execute(q).agg);
  EXPECT_EQ(fault::FireCount("net.accept_fail"), 1);
}

TEST_F(NetFaultTest, PartialFrameIsDiscardedAndRetried) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 1;
  fault::Arm("net.partial_frame", spec);

  TsunamiClient client(harness.ClientFor());
  Rng rng(4);
  const Query q = Needle(rng);
  const ClientResult r = client.Run(q);
  ASSERT_TRUE(r.ok()) << net::ToString(r.error) << " " << r.error_message;
  EXPECT_GE(r.attempts, 2);
  EXPECT_EQ(r.result.agg, index_->Execute(q).agg);
  harness.Stop();
  const net::ServerStats stats = harness.server().stats();
  // The torn frame was discarded on EOF — never parsed as a query, never
  // "malformed" (the frame boundary itself was simply incomplete).
  EXPECT_EQ(stats.malformed_frames, 0);
  EXPECT_EQ(stats.queries_admitted, 1);
}

TEST_F(NetFaultTest, InjectedResetIsSurvivedByRetry) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 1;
  fault::Arm("net.reset", spec);

  TsunamiClient client(harness.ClientFor());
  Rng rng(6);
  const Query q = Needle(rng);
  const ClientResult r = client.Run(q);
  ASSERT_TRUE(r.ok()) << net::ToString(r.error) << " " << r.error_message;
  EXPECT_GE(r.attempts, 2);
  EXPECT_EQ(r.result.agg, index_->Execute(q).agg);
  harness.Stop();
  EXPECT_EQ(harness.server().stats().resets_injected, 1);
}

TEST_F(NetFaultTest, ShortWritesStillDeliverBitIdenticalResults) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  fault::FaultSpec spec;
  spec.probability = 0.5;
  spec.seed = 99;
  fault::Arm("net.short_write", spec);

  TsunamiClient client(harness.ClientFor());
  Rng rng(8);
  for (int i = 0; i < 16; ++i) {
    const Query q = i % 4 == 0 ? Region() : Needle(rng);
    const ClientResult r = client.Run(q);
    ASSERT_TRUE(r.ok()) << "query " << i << ": " << net::ToString(r.error);
    const QueryResult want = index_->Execute(q);
    EXPECT_EQ(r.result.agg, want.agg) << "query " << i;
    EXPECT_EQ(r.result.matched, want.matched) << "query " << i;
  }
  EXPECT_GT(fault::FireCount("net.short_write"), 0);
}

#endif  // TSUNAMI_FAULT_INJECTION

}  // namespace
}  // namespace tsunami
