#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "checks.h"
#include "core/candidate.h"
#include "core/labeling_result.h"
#include "text/record.h"

namespace perfbench {

/// Untraced run (end-to-end metrics through the public entry points) or
/// traced run (per-layer metrics from the layers' own functions), chosen
/// by `config.trace`.
RunOutput RunCampaign(const RunConfig& config);
RunOutput RunLabelRounds(const RunConfig& config);
RunOutput RunServeMixed(const RunConfig& config);

/// Name and unit of one metric of the result line.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports (BENCHMARK.json
/// `end_to_end`, in the same order).
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// The per-layer metrics every traced run reports (BENCHMARK.json
/// `per_layer`). A layer a workload bypasses reports 0.
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// The text a record is joined and served under: its fields, each followed
/// by one space (the machine step's concatenation).
std::string RecordText(const crowdjoin::Record& record);

/// One input of a batch workload and its timed repetitions.
struct BatchInput {
  std::vector<double> walls;  ///< seconds per repetition
  double items = 0;           ///< records or pairs one repetition processes
  int64_t crowdsourced = 0;
  int64_t iterations = 0;
};

/// Adds the end-to-end metrics of a batch workload over its inputs: work per
/// second is all items over the sum of the per-input median walls; the
/// latencies are per-input medians and upper quartiles, averaged over the
/// inputs; the crowd counts are summed.
void AddBatchMetrics(RunOutput& out, const std::vector<BatchInput>& inputs,
                     double setup_s);

/// Prints one end-to-end metric under the name the benchmark's plan gives it
/// (e.g. `records_per_s`), where the result line carries a generic name.
void NotePlanMetric(RunOutput& out, const char* name, double value,
                    const char* unit, int64_t samples);

/// Timing of a standalone `ClusterGraph` fed a finished run's labels.
struct GraphReplay {
  double deduce_ns = 0.0;  ///< mean per Deduce call
  double add_ns = 0.0;     ///< mean per Add call
  int64_t deduces = 0;
  int64_t adds = 0;
  int64_t wrong_deductions = 0;
};

/// Replays labeled rounds on one standalone `ClusterGraph`: in each round's
/// order, crowdsourced pairs are added with their label and every other pair
/// is deduced, which must give the recorded label. `report_offsets[r]` is
/// where round `r`'s outcomes start in `report.outcomes`.
GraphReplay ReplayOnGraph(const std::vector<crowdjoin::CandidateSet>& rounds,
                          const std::vector<std::vector<int32_t>>& orders,
                          const std::vector<size_t>& report_offsets,
                          const crowdjoin::LabelingReport& report);

/// Reports the seed-42 pins: each is a check only at that seed.
void CheckPin(Checker& checker, const RunConfig& config, const char* what,
              int64_t got, int64_t pinned);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
