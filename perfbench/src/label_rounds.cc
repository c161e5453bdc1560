// label_rounds_sf1: multi-round labeling of noisy candidate sets.
//
// Set-up generates `kInputs` SF 1 paper streams (997 records each, the
// paper's Paper dataset) and joins each without a scorer at Jaccard 0.3,
// with likelihood noise sigma 0.12 (the workbench's miscalibration model)
// and a 0.3 likelihood cut. The timed part repeats one labeling pass per
// set: the expected (likelihood) order, then `LabelingSession::Run` on the
// round-parallel schedule with 4 threads and a seeded 5% abandonment fault
// plan under the default retry policy. The join is absent from the timed
// part; core, graph and the crowd retry path do all of its work.
//
// The round count is an extreme-value property of a candidate set (4 to 9
// at SF 1), and a pass costs about one pair scan per pair per round. So the
// timed metrics are per crowd round: machine ms per round (the delay the
// machine adds to every crowd round-trip) and pairs scanned per second of
// it; whole-pass pairs/s is printed as a note. The first set comes from the
// run's seed (where the seed-42 pins hold) and the others from seeds derived
// from it; many small sets pool away the round count of any one of them.
//
// A pass is almost serial, and a serial thread stays on one core for
// seconds, taking on whatever else that core runs. So the timed passes
// rotate the calling thread over the CPUs the process may use, and every set
// is labeled on each of them in turn. The traced run rebuilds every set.

#include <pthread.h>
#include <sched.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/labeling_order.h"
#include "core/labeling_session.h"
#include "crowd/faults.h"
#include "datagen/streaming_generator.h"
#include "simjoin/candidate_generator.h"
#include "taps.h"
#include "workloads.h"

namespace perfbench {

using namespace crowdjoin;

namespace {

constexpr int32_t kScale = 1;
constexpr int kShards = 16;
constexpr int kThreads = 4;
constexpr double kJoinThreshold = 0.3;
constexpr double kNoiseStddev = 0.12;
constexpr double kAbandonmentRate = 0.05;
constexpr int kSetupRepetitions = 3;
constexpr int kInputs = 24;

struct Input {
  uint64_t seed = 0;
  CandidateSet candidates;
  std::vector<int32_t> entity_of;
};

// Seed of input `j` of a run: the run's seed itself for the first, then a
// SplitMix64 chain from it (so neighbouring run seeds share no input).
uint64_t InputSeed(uint64_t seed, int j) {
  uint64_t state = seed;
  uint64_t derived = seed;
  for (int i = 0; i < j; ++i) derived = SplitMix64(state);
  return derived;
}

Input MakeInput(uint64_t seed) {
  Input input;
  input.seed = seed;
  PaperDatasetConfig paper;
  paper.seed = seed;
  StreamingPaperSource source(paper, kScale);
  CandidateGeneratorOptions options;
  options.token_join_threshold = kJoinThreshold;
  options.min_likelihood = kJoinThreshold;
  options.likelihood_noise_stddev = kNoiseStddev;
  options.noise_seed = seed ^ 0x9E3779B9u;
  ShardedJoinOptions sharding;
  sharding.num_shards = kShards;
  sharding.num_threads = kThreads;
  input.candidates = Unwrap(
      GenerateCandidatesStreaming(source, /*scorer=*/nullptr, options,
                                  sharding, &input.entity_of),
      "GenerateCandidatesStreaming");
  return input;
}

// Builds the run's inputs; repeated so set-up time is a median.
std::vector<Input> SetUp(uint64_t seed, int inputs, double* setup_s) {
  std::vector<double> times;
  std::vector<Input> built;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    const double start = NowS();
    built.clear();
    for (int j = 0; j < inputs; ++j) {
      built.push_back(MakeInput(InputSeed(seed, j)));
    }
    times.push_back(NowS() - start);
  }
  *setup_s = Median(times);
  return built;
}

// Pins the calling thread to one allowed CPU after another, and restores the
// thread's original CPU set when it goes out of scope. Threads created in
// between (the session's pool) would inherit the pin; they get every allowed
// CPU instead, as they would without the rotation.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (pthread_getaffinity_np(pthread_self(), sizeof(allowed_), &allowed_) !=
            0 ||
        pthread_getattr_default_np(&saved_default_) != 0) {
      return;
    }
    pthread_attr_t unpinned;
    bool ok = pthread_getattr_default_np(&unpinned) == 0;
    if (ok) {
      ok = pthread_attr_setaffinity_np(&unpinned, sizeof(allowed_),
                                       &allowed_) == 0 &&
           pthread_setattr_default_np(&unpinned) == 0;
      pthread_attr_destroy(&unpinned);
    }
    if (!ok) {
      pthread_attr_destroy(&saved_default_);
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.empty()) return;
    pthread_setaffinity_np(pthread_self(), sizeof(allowed_), &allowed_);
    pthread_setattr_default_np(&saved_default_);
    pthread_attr_destroy(&saved_default_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Moves the thread to the `i`-th allowed CPU, modulo their number.
  void Pin(size_t i) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  pthread_attr_t saved_default_;
  std::vector<int> cpus_;  // empty: the rotation is off
};

FaultPlan MakeFaultPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed ^ 0xFA17u;
  plan.abandonment_rate = kAbandonmentRate;
  return plan;
}

LabelingSessionOptions MakeSessionOptions(uint64_t seed, int threads,
                                          AttemptFaultFn fault) {
  LabelingSessionOptions options;
  options.schedule = SchedulePolicy::kRoundParallel;
  options.num_threads = threads;
  options.attempt_fault = std::move(fault);
  options.retry.seed = seed;
  return options;
}

// One labeling pass through the public entry points, as users run it.
LabelingReport Pass(const Input& input, int threads, double* wall_s) {
  const double start = NowS();
  const std::vector<int32_t> order = Unwrap(
      MakeLabelingOrder(input.candidates, OrderKind::kExpected, nullptr,
                        nullptr),
      "MakeLabelingOrder");
  const FaultInjector injector(MakeFaultPlan(input.seed));
  LabelingSession session(
      MakeSessionOptions(input.seed, threads, injector.AsAttemptFaultFn()));
  GroundTruthOracle oracle(input.entity_of);
  LabelingReport report =
      Unwrap(session.Run(input.candidates, order, oracle), "session.Run");
  *wall_s = NowS() - start;
  return report;
}

void CheckOutputs(Checker& checker, const RunConfig& config,
                  const Input& input, const LabelingReport& report,
                  const std::string& what) {
  const GroundTruthOracle truth(input.entity_of);
  CheckReportComplete(checker, what, report);
  CheckLabelsMatchTruth(checker, what, report, input.candidates, truth);
  if (input.seed != config.seed) return;  // the pins hold at the run's seed
  CheckPin(checker, config, "candidates", report.num_candidates, 20489);
  CheckPin(checker, config, "crowdsourced", report.num_crowdsourced, 1032);
  CheckPin(checker, config, "deduced", report.num_deduced, 19457);
  CheckPin(checker, config, "iterations",
           static_cast<int64_t>(report.crowdsourced_per_iteration.size()), 5);
}

RunOutput RunTimed(const RunConfig& config) {
  RunOutput out;
  Checker checker;
  double setup_s = 0.0;
  const std::vector<Input> inputs = SetUp(config.seed, kInputs, &setup_s);

  // Cycles of one pass per input, until the run's seconds are spent. Input
  // `j` runs on CPU `cycle + j`, so every cycle uses every CPU and every
  // input visits each of them.
  std::vector<BatchInput> batches(inputs.size());
  std::vector<LabelingReport> firsts(inputs.size());
  const CpuRotation rotation;
  const double start = NowS();
  for (int cycle = 0; cycle == 0 || NowS() - start < config.seconds; ++cycle) {
    for (size_t j = 0; j < inputs.size(); ++j) {
      rotation.Pin(static_cast<size_t>(cycle) + j);
      double wall = 0.0;
      LabelingReport report = Pass(inputs[j], kThreads, &wall);
      batches[j].walls.push_back(wall);
      if (cycle == 0) {
        firsts[j] = std::move(report);
      } else {
        CheckReportsIdentical(checker,
                              StrFormat("input %zu pass %d vs 1", j, cycle + 1),
                              report, firsts[j]);
      }
    }
  }
  for (size_t j = 0; j < inputs.size(); ++j) {
    const LabelingReport& report = firsts[j];
    CheckOutputs(checker, config, inputs[j], report,
                 StrFormat("input %zu", j));
    const auto rounds =
        static_cast<int64_t>(report.crowdsourced_per_iteration.size());
    const double median_pass = Median(batches[j].walls);
    std::string passes;
    for (double wall : batches[j].walls) passes += StrFormat(" %.4f", wall);
    out.Note(StrFormat("label_rounds_sf1 input %zu (seed %llu): "
                       "candidates=%lld crowdsourced=%lld deduced=%lld "
                       "iterations=%lld median pass %.3f s (%.0f pairs/s) "
                       "passes:%s",
                       j, static_cast<unsigned long long>(inputs[j].seed),
                       static_cast<long long>(report.num_candidates),
                       static_cast<long long>(report.num_crowdsourced),
                       static_cast<long long>(report.num_deduced),
                       static_cast<long long>(rounds), median_pass,
                       static_cast<double>(report.num_candidates) /
                           median_pass,
                       passes.c_str()));
    // Per crowd round: each repetition's wall over the rounds it took.
    for (double& wall : batches[j].walls) wall /= static_cast<double>(rounds);
    batches[j].items = static_cast<double>(report.num_candidates);
    batches[j].crowdsourced = report.num_crowdsourced;
    batches[j].iterations = rounds;
  }
  double pairs = 0.0;
  double pass_s = 0.0;
  for (size_t j = 0; j < inputs.size(); ++j) {
    pairs += batches[j].items;
    pass_s += Median(batches[j].walls) *
              static_cast<double>(batches[j].iterations);
  }
  NotePlanMetric(out, "pairs_per_s", pairs / pass_s, "pairs/s",
                 static_cast<int64_t>(inputs.size() * batches[0].walls.size()));
  AddBatchMetrics(out, batches, setup_s);
  out.attempted = checker.attempted();
  out.failures = checker.failures();
  return out;
}

// Totals of the traced run over its candidate sets.
struct Traced {
  int64_t candidates = 0;
  int64_t deduced = 0;
  double untraced_s = 0.0;  // the mean of two untraced passes, summed
  double untraced_cpu_s = 0.0;  // process CPU over both untraced passes
  double one_thread_s = 0.0;
  int64_t order_ns = 0;
  int64_t session_ns = 0;
  int64_t traced_ns = 0;
  int64_t asks = 0;
  int64_t oracle_busy_ns = 0;
  std::vector<int64_t> first_batch_sizes;  // the first set's timeline
  std::vector<double> first_plan_ms;
  std::vector<double> plan_ms;  // every round of every set
  double deduce_ns_sum = 0.0;
  double add_ns_sum = 0.0;
  int64_t deduces = 0;
  int64_t adds = 0;
};

// Traces one candidate set: two untraced passes and a 1-thread pass as
// reference, the traced pass behind the oracle and fault taps, the
// timeline pass, and the graph replay. Adds its numbers to `traced`.
void TraceInput(const RunConfig& config, const Input& input, size_t j,
                SpanLog& log, FaultTap& faults, Checker& checker,
                Traced& traced) {
  const double cpu_before = ProcessCpuSeconds();
  double first_wall = 0.0;
  double second_wall = 0.0;
  const LabelingReport reference = Pass(input, kThreads, &first_wall);
  CheckReportsIdentical(checker, StrFormat("set %zu untraced pass 2 vs 1", j),
                        Pass(input, kThreads, &second_wall), reference);
  traced.untraced_cpu_s += ProcessCpuSeconds() - cpu_before;
  traced.untraced_s += 0.5 * (first_wall + second_wall);
  double one_thread_wall = 0.0;
  const LabelingReport one_thread = Pass(input, 1, &one_thread_wall);
  traced.one_thread_s += one_thread_wall;
  CheckReportsIdentical(checker, StrFormat("set %zu 1 thread vs 4 threads", j),
                        one_thread, reference);
  CheckOutputs(checker, config, input, reference,
               StrFormat("set %zu untraced pass", j));

  // Traced pass: the same session behind the oracle and fault decorators.
  const int64_t root = log.NewId();
  const int64_t traced_start = NowNs();
  std::vector<int32_t> order;
  {
    ScopedSpan span(&log, "core.order", root);
    order = Unwrap(MakeLabelingOrder(input.candidates, OrderKind::kExpected,
                                     nullptr, nullptr),
                   "MakeLabelingOrder");
  }
  traced.order_ns += NowNs() - traced_start;
  const FaultInjector injector(MakeFaultPlan(input.seed));
  GroundTruthOracle answers(input.entity_of);
  OracleTap oracle(&answers);
  LabelingReport report;
  {
    ScopedSpan span(&log, "core.session", root);
    LabelingSession session(MakeSessionOptions(
        input.seed, kThreads, faults.Wrap(injector.AsAttemptFaultFn())));
    const int64_t start = NowNs();
    report = Unwrap(session.Run(input.candidates, order, oracle), "Run");
    traced.session_ns += NowNs() - start;
  }
  const int64_t traced_end = NowNs();
  traced.traced_ns += traced_end - traced_start;
  log.AddWithId(root, "label_rounds_sf1.traced", 0, 0, 0, traced_start,
                traced_end);
  CheckReportsIdentical(checker, StrFormat("set %zu traced vs untraced", j),
                        report, reference);
  checker.ExpectEqual(StrFormat("set %zu oracle calls", j),
                      oracle.num_queries(), report.num_crowdsourced);
  traced.asks += oracle.num_queries();
  traced.oracle_busy_ns += oracle.busy_ns();
  traced.candidates += report.num_candidates;
  traced.deduced += report.num_deduced;

  // Timeline pass: the batch source answers from ground truth and stamps
  // every call, giving each round's batch size and planning time.
  const GroundTruthOracle truth(input.entity_of);
  std::vector<int64_t> batch_sizes;
  std::vector<double> plan_ms;
  {
    ScopedSpan span(&log, "core.timeline_pass");
    int64_t last_ns = NowNs();
    const BatchLabelFn batch_fn =
        [&](const std::vector<int32_t>& batch) -> Result<std::vector<Label>> {
      const int64_t called = NowNs();
      plan_ms.push_back(static_cast<double>(called - last_ns) * 1e-6);
      batch_sizes.push_back(static_cast<int64_t>(batch.size()));
      std::vector<Label> labels;
      labels.reserve(batch.size());
      for (int32_t pos : batch) {
        const CandidatePair& pair = input.candidates[static_cast<size_t>(pos)];
        labels.push_back(truth.Truth(pair.a, pair.b));
      }
      last_ns = NowNs();
      return labels;
    };
    LabelingSession session(MakeSessionOptions(input.seed, kThreads, nullptr));
    const LabelingReport timeline =
        Unwrap(session.RunWithBatchSource(input.candidates, order, batch_fn),
               "RunWithBatchSource");
    checker.Expect(timeline.outcomes == reference.outcomes,
                   StrFormat("set %zu timeline pass labels differ from the "
                             "timed pass", j));
  }
  checker.Expect(batch_sizes == reference.crowdsourced_per_iteration,
                 StrFormat("set %zu timeline batch sizes differ from the "
                           "timed run's crowdsourced_per_iteration", j));
  traced.plan_ms.insert(traced.plan_ms.end(), plan_ms.begin(), plan_ms.end());
  if (j == 0) {
    traced.first_batch_sizes = batch_sizes;
    traced.first_plan_ms = plan_ms;
  }

  // Graph: the pass's labels replayed on a standalone cluster graph.
  const GraphReplay replay =
      ReplayOnGraph({input.candidates}, {order}, {0}, report);
  checker.ExpectEqual(StrFormat("set %zu graph replay wrong deductions", j),
                      replay.wrong_deductions, 0);
  traced.deduce_ns_sum +=
      replay.deduce_ns * static_cast<double>(replay.deduces);
  traced.add_ns_sum += replay.add_ns * static_cast<double>(replay.adds);
  traced.deduces += replay.deduces;
  traced.adds += replay.adds;
}

RunOutput RunTraced(const RunConfig& config) {
  RunOutput out;
  Checker checker;
  double setup_s = 0.0;
  const std::vector<Input> inputs = SetUp(config.seed, kInputs, &setup_s);

  SpanLog log;
  FaultTap faults;
  Traced traced;
  for (size_t j = 0; j < inputs.size(); ++j) {
    TraceInput(config, inputs[j], j, log, faults, checker, traced);
  }

  const double oracle_s =
      static_cast<double>(traced.oracle_busy_ns + faults.busy_ns()) * 1e-9 /
      static_cast<double>(kThreads);
  const double label_s =
      static_cast<double>(traced.session_ns) * 1e-9 - oracle_s;
  const double order_s = static_cast<double>(traced.order_ns) * 1e-9;
  const double traced_s = static_cast<double>(traced.traced_ns) * 1e-9;
  const double layers_s = order_s + label_s + oracle_s;
  const auto asks = static_cast<double>(traced.asks);
  const auto plan_samples = static_cast<int64_t>(traced.plan_ms.size());

  out.Add("proc.cpu_util",
          traced.untraced_cpu_s /
              (2.0 * traced.untraced_s * static_cast<double>(kThreads)),
          "fraction");
  out.Add("core.label_s", label_s, "s");
  out.Add("core.round_ms_p50", Median(traced.plan_ms), "ms", plan_samples);
  out.Add("core.round_ms_max", Max(traced.plan_ms), "ms", plan_samples);
  out.Add("core.deduced_share",
          static_cast<double>(traced.deduced) /
              static_cast<double>(traced.candidates),
          "fraction");
  out.Add("graph.deduce_ns",
          traced.deduce_ns_sum / static_cast<double>(traced.deduces), "ns",
          traced.deduces);
  out.Add("graph.add_ns", traced.add_ns_sum / static_cast<double>(traced.adds),
          "ns", traced.adds);
  out.Add("crowd.oracle_calls", asks, "count");
  out.Add("crowd.oracle_s", oracle_s, "s");
  out.Add("crowd.attempts_per_ask",
          (asks + static_cast<double>(faults.failures())) / asks, "ratio");
  out.Add("bench.traced_wall_s", traced_s, "s");
  out.Add("bench.layers_sum_s", layers_s, "s");
  out.Add("bench.residual_s", traced_s - layers_s, "s");
  out.Add("obs.trace_overhead", traced_s / traced.untraced_s, "ratio");

  std::string timeline = "set 0 round: batch size / planning ms:";
  for (size_t i = 0; i < traced.first_batch_sizes.size(); ++i) {
    timeline += StrFormat(" %zu:%lld/%.1f", i + 1,
                          static_cast<long long>(traced.first_batch_sizes[i]),
                          traced.first_plan_ms[i]);
  }
  out.Note(timeline);
  out.Note(StrFormat("%zu sets: traced wall %.3f s = layers %.3f s + residual "
                     "%.3f s (untraced passes %.3f s, 1-thread passes %.3f s, "
                     "set-up %.3f s)",
                     inputs.size(), traced_s, layers_s, traced_s - layers_s,
                     traced.untraced_s, traced.one_thread_s, setup_s));
  if (!config.trace_path.empty() && !log.WriteChromeTrace(config.trace_path)) {
    checker.Expect(false, "cannot write " + config.trace_path);
  }
  out.attempted = checker.attempted();
  out.failures = checker.failures();
  return out;
}

}  // namespace

RunOutput RunLabelRounds(const RunConfig& config) {
  return config.trace ? RunTraced(config) : RunTimed(config);
}

}  // namespace perfbench
