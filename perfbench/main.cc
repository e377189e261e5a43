// perfbench: the repository benchmark. Run through perfbench/run.py, which
// builds this binary first:
//
//   perfbench --workload <serve_skewed|scan_wide|ingest_durable>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Prints a provenance line, a line with every metric the run measured, and
// last a JSON object {"correct", "attempted", "failed", "metrics"} holding
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when any operation failed or any answer was wrong, 2 on bad
// arguments, and 3 when the build or environment makes numbers
// incomparable (debug, sanitizer, fault injection, kill switches).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace {

using perfbench::Report;

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

std::string Number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string MetricsJson(
    const Report& report,
    const std::vector<std::pair<std::string, std::string>>* names) {
  std::string out = "{";
  bool first = true;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Number(value) +
           ", \"unit\": \"" + unit + "\"}";
  };
  if (names == nullptr) {
    for (const auto& [name, m] : report.metrics) add(name, m.value, m.unit);
  } else {
    for (const auto& [name, unit] : *names) {
      auto it = report.metrics.find(name);
      add(name, it == report.metrics.end() ? 0.0 : it->second.value, unit);
    }
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, perfbench::Args* args,
               std::string* out_dir) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(v, "1") == 0;
      if (!args->trace && std::strcmp(v, "0") != 0) return false;
    } else if (flag == "--out-dir") {
      *out_dir = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && have_workload && args->seconds > 0.0 &&
         !out_dir->empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::NowNs();  // Pins the clock origin used by the progress log.
  perfbench::Args args;
  std::string out_dir;
  if (!ParseArgs(argc, argv, &args, &out_dir)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out-dir <dir>\n");
    return 2;
  }
  Report report;
  std::string why;
  if (!perfbench::StampProvenance(args, &report, &why)) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n", why.c_str());
    return 3;
  }
  bool ran = false;
  if (args.workload == "serve_skewed") {
    ran = perfbench::RunServeSkewed(args, out_dir, &report);
  } else if (args.workload == "scan_wide") {
    ran = perfbench::RunScanWide(args, out_dir, &report);
  } else if (args.workload == "ingest_durable") {
    ran = perfbench::RunIngestDurable(args, out_dir, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  const auto& wanted = args.trace ? perfbench::PerLayerMetrics()
                                  : perfbench::EndToEndMetrics();
  for (const auto& [name, unit] : perfbench::EndToEndMetrics()) {
    if (!args.trace && report.metrics.count(name) == 0) {
      report.Fail("metric " + name + " was not measured");
    }
  }
  for (const auto& [name, m] : report.metrics) {
    if (!std::isfinite(m.value)) report.Fail("metric " + name + " is not finite");
  }
  if (report.attempted == 0) report.Fail("no operation was attempted");

  std::string provenance = "{";
  for (const auto& [key, value] : report.provenance) {
    if (provenance.size() > 1) provenance += ", ";
    provenance += "\"" + key + "\": \"" + Escape(value) + "\"";
  }
  std::printf("{\"provenance\": %s}\n", (provenance + "}").c_str());
  std::string failures = "[";
  for (const std::string& f : report.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += "\"" + Escape(f) + "\"";
  }
  std::printf("{\"report\": %s, \"failures\": %s}\n",
              MetricsJson(report, nullptr).c_str(), (failures + "]").c_str());

  const bool correct = ran && report.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed),
      MetricsJson(report, &wanted).c_str());
  std::fflush(stdout);
  if (!correct) {
    for (const std::string& f : report.failures) {
      std::fprintf(stderr, "perfbench: failure: %s\n", f.c_str());
    }
    return 1;
  }
  return 0;
}
