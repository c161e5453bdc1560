#include "workloads.h"

#include <algorithm>

#include "common/string_util.h"
#include "graph/cluster_graph.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"work_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"crowdsourced_pairs", "count"},
    {"crowd_iterations", "count"},
    {"peak_rss_mib", "MiB"},
    {"slo_ok_frac", "fraction"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"datagen.read_s", "s"},
    {"text.make_doc_s", "s"},
    {"simjoin.add_s", "s"},
    {"simjoin.ingest_s", "s"},
    {"simjoin.prepare_s", "s"},
    {"simjoin.probe_s", "s"},
    {"simjoin.task_max_share", "fraction"},
    {"simjoin.probe_ceiling_4t", "x"},
    {"simjoin.candidates_per_record", "pairs/rec"},
    {"proc.cpu_util", "fraction"},
    {"core.label_s", "s"},
    {"core.round_ms_p50", "ms"},
    {"core.round_ms_max", "ms"},
    {"core.deduced_share", "fraction"},
    {"graph.deduce_ns", "ns"},
    {"graph.add_ns", "ns"},
    {"graph.snapshot_publishes", "count"},
    {"crowd.oracle_calls", "count"},
    {"crowd.oracle_s", "s"},
    {"crowd.attempts_per_ask", "ratio"},
    {"serve.ingest_service_us_p99", "us"},
    {"serve.label_us_p99", "us"},
    {"serve.query_service_us_p99", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.candidates_per_query", "count"},
    {"serve.labels_per_ingest", "count"},
    {"serve.ingest_p50_us", "us"},
    {"serve.ingest_p99_us", "us"},
    {"serve.slo_miss_frac", "fraction"},
    {"bench.gen_late_p99_us", "us"},
    {"bench.traced_wall_s", "s"},
    {"bench.layers_sum_s", "s"},
    {"bench.residual_s", "s"},
    {"obs.trace_overhead", "ratio"},
};

std::string RecordText(const crowdjoin::Record& record) {
  std::string text;
  for (const std::string& field : record.fields) {
    text += field;
    text += ' ';
  }
  return text;
}

void AddBatchMetrics(RunOutput& out, const std::vector<BatchInput>& inputs,
                     double setup_s) {
  double items = 0.0;
  double median_sum = 0.0;
  double q3_sum = 0.0;
  int64_t repetitions = 0;
  int64_t crowdsourced = 0;
  int64_t iterations = 0;
  for (const BatchInput& input : inputs) {
    items += input.items;
    median_sum += Median(input.walls);
    q3_sum += Quantile(input.walls, 0.75);
    repetitions += static_cast<int64_t>(input.walls.size());
    crowdsourced += input.crowdsourced;
    iterations += input.iterations;
  }
  const auto n = static_cast<double>(inputs.size());
  out.Add("setup_s", setup_s, "s");
  out.Add("work_per_s", items / median_sum, "1/s", repetitions);
  out.Add("latency_p50_ms", median_sum / n * 1e3, "ms", repetitions);
  out.Add("latency_tail_ms", q3_sum / n * 1e3, "ms", repetitions);
  out.Add("crowdsourced_pairs", static_cast<double>(crowdsourced), "count");
  out.Add("crowd_iterations", static_cast<double>(iterations), "count");
  out.Add("peak_rss_mib", PeakRssMiB(), "MiB");
  // A repetition that fails a check fails the whole run, so every counted
  // repetition met its target.
  out.Add("slo_ok_frac", 1.0, "fraction", repetitions);
}

void NotePlanMetric(RunOutput& out, const char* name, double value,
                    const char* unit, int64_t samples) {
  out.Note(crowdjoin::StrFormat("plan metric %-20s %16.3f  %-9s samples %lld",
                                name, value, unit,
                                static_cast<long long>(samples)));
}

GraphReplay ReplayOnGraph(const std::vector<crowdjoin::CandidateSet>& rounds,
                          const std::vector<std::vector<int32_t>>& orders,
                          const std::vector<size_t>& report_offsets,
                          const crowdjoin::LabelingReport& report) {
  using crowdjoin::ClusterGraph;
  using crowdjoin::Deduction;
  int32_t num_objects = 0;
  for (const crowdjoin::CandidateSet& round : rounds) {
    num_objects = std::max(num_objects, crowdjoin::NumObjectsSpanned(round));
  }
  ClusterGraph graph(num_objects);
  GraphReplay replay;
  int64_t deduce_ns = 0;
  int64_t add_ns = 0;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const crowdjoin::CandidateSet& round = rounds[r];
    const std::vector<int32_t>& order = orders[r];
    // Time maximal runs of one kind of call, so the clock is read once per
    // run instead of twice per call.
    size_t i = 0;
    while (i < order.size()) {
      const auto& first = report.outcomes[report_offsets[r] +
                                          static_cast<size_t>(order[i])];
      const bool crowdsourced =
          first->source == crowdjoin::LabelSource::kCrowdsourced;
      const int64_t start = NowNs();
      size_t j = i;
      for (; j < order.size(); ++j) {
        const auto pos = static_cast<size_t>(order[j]);
        const auto& outcome = report.outcomes[report_offsets[r] + pos];
        if ((outcome->source == crowdjoin::LabelSource::kCrowdsourced) !=
            crowdsourced) {
          break;
        }
        const crowdjoin::CandidatePair& pair = round[pos];
        if (crowdsourced) {
          graph.Add(pair.a, pair.b, outcome->label);
        } else {
          const Deduction deduction = graph.Deduce(pair.a, pair.b);
          if (deduction == Deduction::kUndeduced ||
              crowdjoin::DeductionToLabel(deduction) != outcome->label) {
            ++replay.wrong_deductions;
          }
        }
      }
      const int64_t elapsed = NowNs() - start;
      const auto calls = static_cast<int64_t>(j - i);
      if (crowdsourced) {
        add_ns += elapsed;
        replay.adds += calls;
      } else {
        deduce_ns += elapsed;
        replay.deduces += calls;
      }
      i = j;
    }
  }
  if (replay.deduces > 0) {
    replay.deduce_ns =
        static_cast<double>(deduce_ns) / static_cast<double>(replay.deduces);
  }
  if (replay.adds > 0) {
    replay.add_ns =
        static_cast<double>(add_ns) / static_cast<double>(replay.adds);
  }
  return replay;
}

void CheckPin(Checker& checker, const RunConfig& config, const char* what,
              int64_t got, int64_t pinned) {
  if (config.seed != 42) return;
  checker.ExpectEqual(std::string("seed-42 pin ") + what, got, pinned);
}

}  // namespace perfbench
