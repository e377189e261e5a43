#include "perfbench/harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <thread>
#include <unordered_set>

#include "bench/bench_util.h"
#include "src/baselines/full_scan.h"
#include "src/common/stats.h"
#include "src/datasets/workload_builder.h"
#include "src/exec/thread_pool.h"
#include "src/storage/simd_dispatch.h"

namespace perfbench {

using tsunami::AggKind;
using tsunami::AggregateSpec;
using tsunami::Predicate;

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

void Log(const char* format, ...) {
  std::fprintf(stderr, "[perfbench %7.2fs] ", static_cast<double>(NowNs()) * 1e-9);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

double Series::Pct(double q) const {
  return samples_.empty() ? 0.0 : tsunami::Percentile(samples_, q);
}

double Series::Mean() const { return tsunami::Mean(samples_); }

double Series::Max() const {
  return samples_.empty() ? 0.0
                          : *std::max_element(samples_.begin(), samples_.end());
}

// ---- Tracer ----------------------------------------------------------------

namespace {

/// One thread's span buffer. The mutex is uncontended on the recording path
/// (only its owner appends); Collect takes it to read a consistent copy.
struct SpanBuffer {
  std::mutex mu;
  std::vector<Span> spans;
};

struct TraceRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<SpanBuffer>> buffers;
  std::unordered_map<uint64_t, uint64_t> tags;
};

TraceRegistry& Registry() {
  static TraceRegistry* registry = new TraceRegistry();
  return *registry;
}

SpanBuffer& ThreadBuffer() {
  thread_local std::shared_ptr<SpanBuffer> buffer = [] {
    auto b = std::make_shared<SpanBuffer>();
    std::lock_guard<std::mutex> lock(Registry().mu);
    Registry().buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};
std::atomic<uint64_t> Tracer::next_id_{1};

void Tracer::Record(const Span& span) {
  SpanBuffer& buffer = ThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.spans.push_back(span);
}

void Tracer::Tag(uint64_t key, uint64_t request) {
  std::lock_guard<std::mutex> lock(Registry().mu);
  Registry().tags[key] = request;
}

uint64_t Tracer::Lookup(uint64_t key) {
  std::lock_guard<std::mutex> lock(Registry().mu);
  auto it = Registry().tags.find(key);
  return it == Registry().tags.end() ? 0 : it->second;
}

std::vector<Span> Tracer::Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(Registry().mu);
  for (const auto& buffer : Registry().buffers) {
    std::lock_guard<std::mutex> inner(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(Registry().mu);
  for (const auto& buffer : Registry().buffers) {
    std::lock_guard<std::mutex> inner(buffer->mu);
    buffer->spans.clear();
  }
  Registry().tags.clear();
}

namespace {
thread_local uint64_t tls_open_span = 0;  // Innermost open span, this thread.
}  // namespace

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  if (!Tracer::on()) return;
  active_ = true;
  span_.name = name;
  span_.id = Tracer::NewId();
  span_.parent = tls_open_span;
  span_.request = request;
  tls_open_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  tls_open_span = span_.parent;
  Tracer::Record(span_);
}

std::map<std::string, std::pair<int64_t, double>> SelfTimes(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::pair<int64_t, double>> out;
  for (const Span& s : spans) {
    int64_t self = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    if (it != child_ns.end()) self = std::max<int64_t>(0, self - it->second);
    auto& entry = out[s.name];
    entry.first += 1;
    entry.second += static_cast<double>(self) * 1e-3;
  }
  for (auto& [name, entry] : out) {
    entry.second /= static_cast<double>(entry.first);
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"id\": %llu, \"parent\": %llu, \"request\": %llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

tsunami::QueryPlan TracedIndex::Prepare(const Query& query) const {
  const uint64_t request =
      Tracer::on() ? Tracer::Lookup(tsunami::QueryFingerprint(query)) : 0;
  ScopedSpan span("core.prepare", request);
  return inner_->Prepare(query);
}

// ---- Pools -----------------------------------------------------------------

Workload Distinct(const Workload& pool) {
  std::unordered_set<uint64_t> seen;
  Workload out;
  for (const Query& q : pool) {
    if (seen.insert(tsunami::QueryFingerprint(q)).second) out.push_back(q);
  }
  return out;
}

Workload WideScanPool(const Dataset& data, uint64_t seed, int per_type) {
  tsunami::ColumnQuantiles quant(data, 100000, seed + 1);
  tsunami::Rng rng(seed);
  const std::vector<AggregateSpec> aggs = {{AggKind::kCount, 0},
                                           {AggKind::kSum, 1},
                                           {AggKind::kMin, 1},
                                           {AggKind::kMax, 1}};
  Workload pool;
  for (int i = 0; i < per_type; ++i) {
    // T0: two shipping years (Q6-style discount band, small quantity).
    Query q0({quant.Window(5, 2.0 / 7, 0.0, 1.0, &rng), Predicate{2, 2, 4},
              Predicate{0, 1, 24}},
             aggs);
    q0.type = 0;
    // T1: received in the recent year and a half, one ship mode.
    const Value mode = static_cast<Value>(rng.NextBelow(7));
    Query q1({quant.Window(7, 1.5 / 7, 4.0 / 7, 1.0, &rng),
              Predicate{4, mode, mode}},
             aggs);
    q1.type = 1;
    // T2: the top 30% of prices with a large discount, three years in the
    // recent five.
    Query q2({quant.Range(1, 0.70, 1.0), Predicate{2, 8, 10},
              quant.Window(5, 3.0 / 7, 2.0 / 7, 1.0, &rng)},
             aggs);
    q2.type = 2;
    // T3: committed in a two-year window with low tax.
    Query q3({quant.Window(6, 2.0 / 7, 0.0, 1.0, &rng), Predicate{3, 0, 2}},
             aggs);
    q3.type = 3;
    // T4: small shipments by air, three years in the recent five.
    Query q4({Predicate{0, 1, 19}, Predicate{4, 0, 1},
              quant.Window(5, 3.0 / 7, 2.0 / 7, 1.0, &rng)},
             aggs);
    q4.type = 4;
    for (Query* q : {&q0, &q1, &q2, &q3, &q4}) pool.push_back(*q);
  }
  return Distinct(pool);
}

std::vector<std::vector<Value>> RecentRows(tsunami::Rng* rng, int64_t n) {
  // Same column distributions as MakeTpchBenchmark (src/datasets/tpch.cc),
  // whose shipping window is 7 * 365 days; new rows ship in its last year.
  constexpr Value kDays = 7 * 365;
  std::vector<std::vector<Value>> rows(n, std::vector<Value>(kTpchDims));
  for (std::vector<Value>& row : rows) {
    const Value quantity = rng->UniformValue(1, 50);
    const Value ship = rng->UniformValue(kDays - 365, kDays - 1);
    row[0] = quantity;
    row[1] = quantity * rng->UniformValue(90000, 110000);
    row[2] = rng->UniformValue(0, 10);
    row[3] = rng->UniformValue(0, 8);
    row[4] = static_cast<Value>(rng->NextBelow(7));
    row[5] = ship;
    row[6] = ship + rng->UniformValue(-30, 60);
    row[7] = ship + rng->UniformValue(1, 30);
  }
  return rows;
}

ZipfPicker::ZipfPicker(int64_t n, double s, uint64_t seed) : perm_(n), s_(s) {
  for (int64_t i = 0; i < n; ++i) perm_[i] = i;
  tsunami::Rng rng(seed);
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(perm_[i], perm_[rng.NextBelow(static_cast<uint64_t>(i) + 1)]);
  }
}

int64_t ZipfPicker::Next(tsunami::Rng* rng) const {
  return perm_[rng->NextZipf(static_cast<int64_t>(perm_.size()), s_)];
}

// ---- Oracle ----------------------------------------------------------------

std::vector<QueryResult> OracleAnswers(const Dataset& data,
                                       const Workload& pool, int threads) {
  tsunami::FullScanIndex oracle(data);
  tsunami::ThreadPool workers(threads);
  tsunami::ExecContext ctx(&workers);
  return oracle.ExecuteBatch(std::span<const Query>(pool.data(), pool.size()),
                             ctx);
}

bool SameAnswer(const Query& query, const QueryResult& want,
                const QueryResult& got, std::string* why) {
  if (got.degraded) {
    *why = "degraded result";
    return false;
  }
  if (got.matched != want.matched) {
    *why = "matched " + std::to_string(got.matched) + " != oracle " +
           std::to_string(want.matched);
    return false;
  }
  for (int i = 0; i < query.num_aggs(); ++i) {
    if (static_cast<int>(got.extra.size()) + 1 < query.num_aggs() ||
        got.agg_value(i) != want.agg_value(i)) {
      *why = "aggregate " + std::to_string(i) + " differs from the oracle";
      return false;
    }
  }
  return true;
}

// ---- Host ------------------------------------------------------------------

int64_t LlcBytes() {
  long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  return llc > 0 ? static_cast<int64_t>(llc) : 0;
}

double MemcpyGbps() {
  // Two buffers of twice the LLC each (256-512 MiB), so the copy streams
  // from and to DRAM rather than cache.
  const int64_t bytes = std::clamp<int64_t>(2 * LlcBytes(), int64_t{256} << 20,
                                            int64_t{512} << 20);
  std::unique_ptr<char[]> src(new char[bytes]);
  std::unique_ptr<char[]> dst(new char[bytes]);
  std::memset(src.get(), 1, bytes);
  std::memset(dst.get(), 2, bytes);
  Series gbps;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    std::memcpy(dst.get(), src.get(), bytes);
    const int64_t t1 = NowNs();
    gbps.Add(static_cast<double>(bytes) / static_cast<double>(t1 - t0));
  }
  if (dst[bytes / 2] != 1) std::fprintf(stderr, "memcpy check failed\n");
  return gbps.Pct(50);
}

bool ResetPeakRss() {
  // Writing 5 restarts the process's VmHWM from its current resident size
  // (Linux 4.0+); getrusage's ru_maxrss cannot be reset.
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

bool StampProvenance(const Args& args, Report* report, std::string* why) {
  const std::string config = tsunami::bench::BuildConfig();
  report->Stamp("git_revision", tsunami::bench::GitRevision());
  report->Stamp("build_config", config);
  report->Stamp("simd_tier",
                tsunami::SimdTierName(tsunami::DetectSimdTier()));
  report->Stamp("nproc",
                static_cast<int64_t>(std::thread::hardware_concurrency()));
  report->Stamp("llc_bytes", LlcBytes());
  report->Stamp("workload", args.workload);
  report->Stamp("seed", static_cast<int64_t>(args.seed));
  report->Stamp("seconds", std::to_string(args.seconds));
  report->Stamp("trace", args.trace ? "1" : "0");
  if (config != "release") {
    *why = "build config is '" + config +
           "': numbers from debug, sanitizer, or fault-injection builds are "
           "not comparable";
    return false;
  }
#if defined(TSUNAMI_DISABLE_SIMD) || defined(TSUNAMI_DISABLE_ENCODING)
  *why = "built with a SIMD or encoding kill switch";
  return false;
#endif
  for (const char* env : {"TSUNAMI_FORCE_SCALAR", "TSUNAMI_DISABLE_ENCODING"}) {
    const char* v = std::getenv(env);
    if (v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0) {
      *why = std::string(env) + " is set: a kill-switched run is not comparable";
      return false;
    }
  }
  return true;
}

// ---- Storage and planning --------------------------------------------------

namespace {

/// Mean bytes per row of the encoded columns `dims` in `store`.
double EncodedBytesPerRow(const tsunami::ColumnStore& store,
                          const std::vector<int>& dims) {
  if (store.size() == 0) return 0.0;
  int64_t bytes = 0;
  for (int d : dims) bytes += store.encoded(d).SizeBytes();
  return static_cast<double>(bytes) / static_cast<double>(store.size());
}

/// Columns a query reads: its filter dimensions plus aggregated columns.
std::vector<int> TouchedColumns(const Query& query) {
  std::vector<int> dims;
  for (const Predicate& p : query.filters) dims.push_back(p.dim);
  for (int i = 0; i < query.num_aggs(); ++i) {
    const AggregateSpec spec = query.agg_spec(i);
    if (spec.op != AggKind::kCount) dims.push_back(spec.column);
  }
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  return dims;
}

}  // namespace

void MeasureStorageAndPrepare(const MultiDimIndex& index,
                              const tsunami::ColumnStore& base_store,
                              const Workload& pool, double min_seconds,
                              Report* report) {
  Series prepare_us;
  std::vector<tsunami::QueryPlan> plans;
  std::vector<double> bytes_per_row;
  plans.reserve(pool.size());
  for (const Query& q : pool) {
    const int64_t t0 = NowNs();
    plans.push_back(index.Prepare(q));
    prepare_us.Add(static_cast<double>(NowNs() - t0) * 1e-3);
    bytes_per_row.push_back(EncodedBytesPerRow(base_store, TouchedColumns(q)));
  }
  report->Set("core.prepare_us.p50", prepare_us.Pct(50), "us");
  report->Set("core.prepare_us.p99", prepare_us.Pct(99), "us");

  double rows = 0.0;
  double bytes = 0.0;
  int64_t sink = 0;
  const int64_t t0 = NowNs();
  int64_t elapsed = 0;
  while (elapsed < static_cast<int64_t>(min_seconds * 1e9)) {
    for (size_t i = 0; i < plans.size(); ++i) {
      tsunami::ExecContext ctx;  // No pool: one thread.
      const QueryResult r = index.ExecutePlan(plans[i], ctx);
      sink += r.agg;
      rows += static_cast<double>(r.scanned);
      bytes += static_cast<double>(r.scanned) * bytes_per_row[i];
    }
    elapsed = NowNs() - t0;
  }
  if (sink == INT64_MIN) std::fprintf(stderr, "impossible\n");
  const double seconds = static_cast<double>(elapsed) * 1e-9;
  report->Set("storage.scan_rows_per_s", rows / seconds, "1/s");
  report->Set("storage.scan_gbps", bytes / seconds * 1e-9, "GB/s");
}

// ---- Metric names ----------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"setup_s", "s"},          {"query_p50_ms", "ms"},
      {"query_qps", "1/s"},
      {"index_bytes", "bytes"},  {"storage_ratio", "ratio"},
      {"peak_rss_mb", "MiB"},
  };
  return kNames;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"net.overhead_us.p50", "us"},
      {"net.overhead_us.p99", "us"},
      {"net.bytes_per_op", "bytes"},
      {"serve.latency_us.p50", "us"},
      {"serve.latency_us.p99", "us"},
      {"serve.plan_cache_hit_rate", "ratio"},
      {"serve.plan_cache_stale", "count"},
      {"serve.rejected", "count"},
      {"exec.chunks_per_query", "count"},
      {"exec.steals_per_query", "count"},
      {"exec.queue_depth.mean", "count"},
      {"core.prepare_us.p50", "us"},
      {"core.prepare_us.p99", "us"},
      {"core.rows_scanned_per_match", "ratio"},
      {"core.cell_ranges_per_query", "count"},
      {"core.optimize_s", "s"},
      {"core.sort_s", "s"},
      {"storage.scan_rows_per_s", "1/s"},
      {"storage.scan_gbps", "GB/s"},
      {"storage.roofline_frac", "ratio"},
      {"ingest.folds", "count"},
      {"ingest.fold_s", "s"},
      {"ingest.delta_rows.mean", "count"},
      {"ingest.delta_rows.max", "count"},
      {"durability.insert_us.p50", "us"},
      {"durability.insert_us.p99", "us"},
      {"durability.acks_per_fsync", "ratio"},
      {"durability.wal_bytes_per_user_byte", "ratio"},
      {"durability.checkpoint_bytes_per_user_byte", "ratio"},
      {"durability.recovery_s", "s"},
      {"common.backlog_peak_bytes", "bytes"},
      {"insert.ack_p50_ms", "ms"},
      {"insert.ack_p99_ms", "ms"},
      {"insert.rows_per_s", "1/s"},
      {"insert.lateness_ms.p99", "ms"},
      {"error_rate", "ratio"},
      {"query.p90_ms", "ms"},
      {"query.p99_ms", "ms"},
      {"query.samples", "count"},
      {"host.memcpy_gbps", "GB/s"},
      {"trace.overhead_frac", "ratio"},
      {"trace.split_residual_frac", "ratio"},
      {"trace.spans", "count"},
      {"trace.client_submit.self_us", "us"},
      {"trace.client_await.self_us", "us"},
      {"trace.client_insert.self_us", "us"},
      {"trace.service_submit.self_us", "us"},
      {"trace.service_await.self_us", "us"},
      {"trace.core_prepare.self_us", "us"},
      {"trace.durability_sink.self_us", "us"},
  };
  return kNames;
}

}  // namespace perfbench
