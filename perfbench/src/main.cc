// perfbench: the repository benchmark's executable.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Runs one workload (campaign_sf100, label_rounds_sf1, serve_mixed_sf10)
// and prints a table of every metric with its unit and sample count, then,
// as the last line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured through the
// public entry points with tracing off; with --trace 1 they are the
// per-layer ones of the traced rebuild, whose spans go to --trace-out. The
// exit code is 1 when any output check fails, 2 on a bad command line.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "bench_common.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::MetricSpec;
using perfbench::RunConfig;
using perfbench::RunOutput;

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "campaign_sf100|label_rounds_sf1|serve_mixed_sf10 "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n",
               problem);
  std::exit(2);
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("bad --seed");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }

  RunOutput out;
  if (workload == "campaign_sf100") {
    out = perfbench::RunCampaign(config);
  } else if (workload == "label_rounds_sf1") {
    out = perfbench::RunLabelRounds(config);
  } else if (workload == "serve_mixed_sf10") {
    out = perfbench::RunServeMixed(config);
  } else {
    Usage("unknown --workload");
  }

  // The result line carries exactly the declared metrics of this mode; a
  // per-layer metric the workload does not exercise reads 0.
  std::map<std::string, const Metric*> by_name;
  for (const Metric& metric : out.metrics) by_name[metric.name] = &metric;
  const std::vector<MetricSpec>& specs =
      config.trace ? perfbench::kPerLayerMetrics : perfbench::kEndToEndMetrics;
  std::vector<Metric> reported;
  for (const MetricSpec& spec : specs) {
    const auto it = by_name.find(spec.name);
    if (it != by_name.end()) {
      if (it->second->unit != spec.unit) {
        std::fprintf(stderr, "FATAL: metric %s has unit %s, declared %s\n",
                     spec.name, it->second->unit.c_str(), spec.unit);
        return 1;
      }
      reported.push_back(*it->second);
    } else if (config.trace) {
      reported.push_back(Metric{spec.name, 0.0, spec.unit, 0});
    } else {
      std::fprintf(stderr, "FATAL: end-to-end metric %s not measured\n",
                   spec.name);
      return 1;
    }
  }

  std::printf("=== perfbench %s seed=%llu seconds=%g trace=%d ===\n",
              workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0);
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  std::printf("%-32s %18s  %-9s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& metric : reported) {
    std::printf("%-32s %18.6f  %-9s %lld\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), static_cast<long long>(metric.samples));
  }
  for (const std::string& failure : out.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  const bool correct = out.failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failures.size());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " +
            JsonNumber(reported[i].value) + ", \"unit\": \"" +
            reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
