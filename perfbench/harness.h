// Shared pieces of the repository benchmark (perfbench): command-line
// arguments, the metric report, latency series, the span tracer, the
// bench-side index decorator that traces calls into the index, the
// TPC-H query pools, the full-scan answer oracle, and host measurements
// (memory-copy bandwidth, peak RSS, provenance).
//
// Every layer is measured from outside: by timing calls into its public
// functions and by diffing its stats() before and after a timed phase.
// Nothing here reaches into src/ internals.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/index.h"
#include "src/common/random.h"
#include "src/common/types.h"

namespace perfbench {

using tsunami::Dataset;
using tsunami::MultiDimIndex;
using tsunami::Query;
using tsunami::QueryResult;
using tsunami::Value;
using tsunami::Workload;

/// The TPC-H table has eight dimensions (src/datasets/tpch.h).
inline constexpr int kTpchDims = 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Monotonic nanoseconds since an arbitrary process-wide origin.
int64_t NowNs();

/// Progress line on stderr, stamped with seconds since process start.
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// One named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured, plus its failure accounting. Workloads fill
/// `metrics` with both end-to-end and per-layer names; main() picks the set
/// the run was asked for.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one operation; `ok == false` also counts it failed.
  void Count(bool ok, const std::string& why_not = "") {
    ++attempted;
    if (!ok) Fail(why_not);
  }
  /// Counts an already-attempted operation as failed.
  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  void Stamp(const std::string& key, const std::string& value) {
    provenance[key] = value;
  }
  void Stamp(const std::string& key, int64_t value) {
    provenance[key] = std::to_string(value);
  }

  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> provenance;
  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// A latency sample set; percentiles are linear-interpolated.
class Series {
 public:
  void Add(double v) { samples_.push_back(v); }
  void Append(const Series& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }
  int64_t size() const { return static_cast<int64_t>(samples_.size()); }
  const std::vector<double>& samples() const { return samples_; }
  double Pct(double q) const;
  double Mean() const;
  double Max() const;

 private:
  std::vector<double> samples_;
};

// ---- Tracing -------------------------------------------------------------
//
// A span is (name, start, end, parent, request id). Spans are appended to a
// per-thread buffer (no lock on the recording path) and written out as
// JSON lines when the run ends. Tracing is off unless Tracer::Enable().
// Cross-thread attribution: a client tags the key of a request (a query
// fingerprint or an insert batch hash) with its request id, and the span
// recorded on the server's loop thread looks the key up.

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root.
  uint64_t request = 0;  // 0 = unattributed.
};

class Tracer {
 public:
  static bool on() { return enabled_.load(std::memory_order_relaxed); }
  static void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static uint64_t NewId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Appends a finished span to the calling thread's buffer.
  static void Record(const Span& span);
  static void Tag(uint64_t key, uint64_t request);
  static uint64_t Lookup(uint64_t key);
  /// Every span recorded so far, all threads.
  static std::vector<Span> Collect();
  /// Drops every recorded span and tag.
  static void Reset();

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<uint64_t> next_id_;
};

/// RAII span on the calling thread; a no-op while tracing is off. Its
/// parent is the innermost span still open on the same thread.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

/// Per span name: count and mean self time in microseconds. A span's self
/// time is its duration minus the part its child spans cover.
std::map<std::string, std::pair<int64_t, double>> SelfTimes(
    const std::vector<Span>& spans);

/// Writes the spans as JSON lines to `path`; false on I/O failure.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// Bench-side decorator that forwards every MultiDimIndex call to the real
/// store and records a "core.prepare" span around Prepare (the Grid Tree
/// planning the serving path runs on a plan-cache miss). The service is
/// given this decorator, so cache keys and publish invalidation must also
/// use it. FinishPlan and scans reach the store through PlanTarget.
class TracedIndex : public MultiDimIndex {
 public:
  explicit TracedIndex(const MultiDimIndex* inner) : inner_(inner) {}

  std::string Name() const override { return inner_->Name(); }
  QueryResult Execute(const Query& query) const override {
    return inner_->Execute(query);
  }
  tsunami::QueryPlan Prepare(const Query& query) const override;
  QueryResult ExecutePlan(const tsunami::QueryPlan& plan,
                          tsunami::ExecContext& ctx) const override {
    return inner_->ExecutePlan(plan, ctx);
  }
  void FinishPlan(const tsunami::QueryPlan& plan,
                  QueryResult* result) const override {
    inner_->FinishPlan(plan, result);
  }
  const MultiDimIndex& PlanTarget(
      const tsunami::QueryPlan& plan) const override {
    return inner_->PlanTarget(plan);
  }
  uint64_t StoreVersion() const override { return inner_->StoreVersion(); }
  int64_t IndexSizeBytes() const override { return inner_->IndexSizeBytes(); }
  const tsunami::ColumnStore& store() const override {
    return inner_->store();
  }

 private:
  const MultiDimIndex* inner_;
};

// ---- Data and query pools -------------------------------------------------

/// Drops queries answer-equivalent to an earlier one (same normalized
/// rectangle and aggregates), keeping first occurrences in order.
Workload Distinct(const Workload& pool);

/// Five TPC-H query types (the shapes of src/datasets/tpch.cc) with date
/// windows widened so each query matches roughly 2-20% of the rows, each
/// computing COUNT, SUM/MIN/MAX(ext_price).
Workload WideScanPool(const Dataset& data, uint64_t seed, int per_type);

/// Fresh lineitem rows whose ship dates fall in the most recent year of
/// the TPC-H window: what an ingesting order system appends.
std::vector<std::vector<Value>> RecentRows(tsunami::Rng* rng, int64_t n);

/// Samples pool positions Zipf(s)-skewed over a seeded permutation, so the
/// popular queries are not simply the first generated.
class ZipfPicker {
 public:
  ZipfPicker(int64_t n, double s, uint64_t seed);
  int64_t Next(tsunami::Rng* rng) const;

 private:
  std::vector<int64_t> perm_;
  double s_;
};

// ---- Answer oracle ---------------------------------------------------------

/// Answers of `pool` from a FullScanIndex over `data`, computed on `threads`
/// threads.
std::vector<QueryResult> OracleAnswers(const Dataset& data,
                                       const Workload& pool, int threads);

/// True when `got` carries the same matched count and aggregate values as
/// `want` and is not degraded; otherwise fills `why`.
bool SameAnswer(const Query& query, const QueryResult& want,
                const QueryResult& got, std::string* why);

// ---- Host and provenance ---------------------------------------------------

/// Single-thread memcpy bandwidth (bytes copied per second, in GB/s) over
/// buffers several times the last-level cache.
double MemcpyGbps();

/// Restarts the peak resident set size from the current resident size, so
/// PeakRssMb() leaves out what was freed before the call. False when the
/// kernel does not support it; the peak then covers the whole process.
bool ResetPeakRss();

/// Peak resident set size of the process since the last ResetPeakRss()
/// (since start when never reset), MiB.
double PeakRssMb();

/// Last-level cache size in bytes as the OS reports it (0 if unknown).
int64_t LlcBytes();

/// Stamps git revision, build config, SIMD tier, nproc, LLC, seed, and
/// run-time kill switches. Returns false (the run must not report numbers)
/// for debug, sanitizer, fault-injection, or kill-switched runs.
bool StampProvenance(const Args& args, Report* report, std::string* why);

/// Single-thread ExecutePlan over the pool's plans for at least
/// `min_seconds`: reports storage.scan_rows_per_s and storage.scan_gbps
/// (encoded bytes of the touched columns), plus core.prepare_us p50/p99
/// from timing Prepare over the pool.
void MeasureStorageAndPrepare(const MultiDimIndex& index,
                              const tsunami::ColumnStore& base_store,
                              const Workload& pool, double min_seconds,
                              Report* report);

/// Every per-layer metric a workload did not set is reported as 0, so each
/// run prints the same names.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
