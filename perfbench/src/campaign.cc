// campaign_sf100: the join-bound streaming campaign.
//
// Set-up materializes the SF 100 paper stream (99,700 records). The timed
// part hands those records to `RunStreamingCampaign` (Jaccard 0.7, 16
// shards, 4 threads, 16 probe tasks per labeling round, fault-free) and
// stops at the final `LabelingReport`; it repeats until the run's seconds
// are spent. The traced run rebuilds the same pipeline from the join's
// public functions and the labeling session, behind the decorators of
// taps.h.

#include <algorithm>
#include <memory>
#include <optional>

#include "common/macros.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/labeling_order.h"
#include "core/labeling_session.h"
#include "crowd/orchestrator.h"
#include "datagen/record_source.h"
#include "datagen/streaming_generator.h"
#include "simjoin/candidate_generator.h"
#include "simjoin/sharded_join.h"
#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"
#include "taps.h"
#include "workloads.h"

namespace perfbench {

using namespace crowdjoin;

namespace {

constexpr int32_t kScale = 100;
constexpr int kShards = 16;
constexpr int kThreads = 4;
constexpr int64_t kTasksPerRound = 16;
constexpr double kThreshold = 0.7;
constexpr int kSetupRepetitions = 5;
constexpr int kMinRepetitions = 3;

StreamingCampaignConfig MakeCampaignConfig() {
  StreamingCampaignConfig config;
  config.candidates.token_join_threshold = kThreshold;
  config.candidates.min_likelihood = kThreshold;
  config.sharding.num_shards = kShards;
  config.sharding.num_threads = kThreads;
  config.crowd.num_threads = kThreads;
  config.label_tasks_per_round = kTasksPerRound;
  return config;
}

// Generates the input; repeated so set-up time is a median.
Dataset SetUp(uint64_t seed, double* setup_s) {
  std::vector<double> times;
  Dataset dataset;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    const double start = NowS();
    PaperDatasetConfig paper;
    paper.seed = seed;
    StreamingPaperSource source(paper, kScale);
    dataset = Unwrap(MaterializeDataset(source), "materialize SF 100 stream");
    times.push_back(NowS() - start);
  }
  *setup_s = Median(times);
  return dataset;
}

void CheckPins(Checker& checker, const RunConfig& config,
               const StreamingCampaignStats& stats) {
  CheckPin(checker, config, "candidates", stats.num_candidates, 508767);
  CheckPin(checker, config, "crowdsourced", stats.labeling.num_crowdsourced,
           79162);
  CheckPin(checker, config, "deduced", stats.labeling.num_deduced, 429605);
  CheckPin(checker, config, "stream rounds", stats.labeling.num_stream_rounds,
           9);
}

// One campaign through the public entry point, as users run it.
StreamingCampaignStats RunOnce(const Dataset& dataset, double* wall_s) {
  DatasetRecordSource source(&dataset);
  const StreamingCampaignConfig campaign = MakeCampaignConfig();
  const double start = NowS();
  StreamingCampaignStats stats =
      Unwrap(RunStreamingCampaign(source, /*scorer=*/nullptr, campaign),
             "RunStreamingCampaign");
  *wall_s = NowS() - start;
  return stats;
}

RunOutput RunTimed(const RunConfig& config) {
  RunOutput out;
  Checker checker;
  double setup_s = 0.0;
  const Dataset dataset = SetUp(config.seed, &setup_s);

  std::vector<double> walls;
  std::optional<StreamingCampaignStats> first;
  const double start = NowS();
  while (static_cast<int>(walls.size()) < kMinRepetitions ||
         NowS() - start < config.seconds) {
    double wall = 0.0;
    StreamingCampaignStats stats = RunOnce(dataset, &wall);
    walls.push_back(wall);
    if (!first.has_value()) {
      first = std::move(stats);
    } else {
      CheckReportsIdentical(checker,
                            StrFormat("repetition %zu vs 1", walls.size()),
                            stats.labeling, first->labeling);
    }
  }

  // Untimed verification: the candidate pairs in the campaign's emission
  // order, from the public streaming feed, to check every label.
  const StreamingCampaignConfig campaign = MakeCampaignConfig();
  StreamingCandidateFeed::Options feed_options;
  feed_options.candidates = campaign.candidates;
  feed_options.sharding = campaign.sharding;
  feed_options.tasks_per_round = campaign.label_tasks_per_round;
  DatasetRecordSource source(&dataset);
  const std::unique_ptr<StreamingCandidateFeed> feed =
      Unwrap(StreamingCandidateFeed::Open(source, feed_options), "feed");
  CandidateSet pairs;
  while (true) {
    const CandidateSet round = Unwrap(feed->NextRound(), "feed round");
    if (round.empty()) break;
    pairs.insert(pairs.end(), round.begin(), round.end());
  }
  const GroundTruthOracle truth(first->entity_of);
  checker.ExpectEqual("records", first->num_records,
                      static_cast<int64_t>(dataset.records.size()));
  checker.ExpectEqual("candidates vs report", first->num_candidates,
                      first->labeling.num_candidates);
  CheckReportComplete(checker, "campaign", first->labeling);
  CheckLabelsMatchTruth(checker, "campaign", first->labeling, pairs, truth);
  CheckPins(checker, config, *first);

  AddBatchMetrics(
      out,
      {BatchInput{walls, static_cast<double>(first->num_records),
                  first->labeling.num_crowdsourced,
                  static_cast<int64_t>(
                      first->labeling.crowdsourced_per_iteration.size())}},
      setup_s);
  out.Note(StrFormat("campaign_sf100: records=%lld candidates=%lld "
                     "crowdsourced=%lld deduced=%lld stream_rounds=%lld "
                     "iterations=%zu",
                     static_cast<long long>(first->num_records),
                     static_cast<long long>(first->num_candidates),
                     static_cast<long long>(first->labeling.num_crowdsourced),
                     static_cast<long long>(first->labeling.num_deduced),
                     static_cast<long long>(first->labeling.num_stream_rounds),
                     first->labeling.crowdsourced_per_iteration.size()));
  NotePlanMetric(out, "records_per_s",
                 static_cast<double>(first->num_records) / Median(walls),
                 "rec/s", static_cast<int64_t>(walls.size()));
  out.attempted = checker.attempted();
  out.failures = checker.failures();
  return out;
}

// The campaign's join, rebuilt from the layer functions: records are
// tokenized (`MakeDoc`) and sharded (`Add`) here, and each `NextRound`
// drains the next probe tasks of the cursor (`NextBatch`), keeping pairs
// at or above the likelihood cut, as the streaming feed does.
class JoinStream : public CandidateStream {
 public:
  JoinStream(ShardedJoinCursor* cursor, ThreadPool* pool,
             const std::vector<ObjectId>* ids)
      : cursor_(cursor), pool_(pool), ids_(ids) {}

  Result<CandidateSet> NextRound() override {
    CandidateSet round;
    while (round.empty() && !cursor_->done()) {
      const int64_t start = NowNs();
      CJ_ASSIGN_OR_RETURN(const std::vector<ScoredPair> joined,
                          cursor_->NextBatch(kTasksPerRound, pool_));
      probe_ns_ += NowNs() - start;
      for (const ScoredPair& pair : joined) {
        if (pair.score >= kThreshold) {
          round.push_back({(*ids_)[static_cast<size_t>(pair.left)],
                           (*ids_)[static_cast<size_t>(pair.right)],
                           pair.score});
        }
      }
    }
    return round;
  }

  int64_t probe_ns() const { return probe_ns_; }

 private:
  ShardedJoinCursor* cursor_;
  ThreadPool* pool_;
  const std::vector<ObjectId>* ids_;
  int64_t probe_ns_ = 0;
};

RunOutput RunTraced(const RunConfig& config) {
  RunOutput out;
  Checker checker;
  double setup_s = 0.0;
  const Dataset dataset = SetUp(config.seed, &setup_s);

  // Reference: untraced campaigns through the public entry point; their
  // median wall is the base of the tracing overhead.
  std::vector<double> untraced_walls;
  std::optional<StreamingCampaignStats> last;
  double cpu_util = 0.0;
  for (int i = 0; i < kMinRepetitions; ++i) {
    const double cpu_before = ProcessCpuSeconds();
    double wall = 0.0;
    last = RunOnce(dataset, &wall);
    untraced_walls.push_back(wall);
    cpu_util = (ProcessCpuSeconds() - cpu_before) /
               (wall * static_cast<double>(kThreads));
  }
  const StreamingCampaignStats& reference = *last;
  const double untraced_wall = Median(untraced_walls);

  SpanLog log;
  const int64_t traced_start = NowNs();
  const int64_t root = log.NewId();

  // Ingest: stream read (datagen), tokenize + intern (text), shard (simjoin).
  const SimilarityMeasure& measure = SimilarityMeasure::Jaccard();
  TokenDictionary dictionary;
  ShardedSelfJoiner joiner(kShards);
  std::vector<ObjectId> ids;
  std::vector<int32_t> entity_of;
  int64_t read_ns = 0;
  int64_t make_doc_ns = 0;
  int64_t add_ns = 0;
  {
    ScopedSpan span(&log, "simjoin.ingest", root);
    DatasetRecordSource source(&dataset);
    source.Reset();
    dictionary.Reserve(dataset.records.size());
    StreamedRecord streamed;
    while (true) {
      const int64_t t0 = NowNs();
      if (!source.Next(&streamed)) break;
      const int64_t t1 = NowNs();
      const MeasureDoc doc =
          measure.MakeDoc(RecordText(streamed.record), dictionary);
      const int64_t t2 = NowNs();
      joiner.Add(doc);
      const int64_t t3 = NowNs();
      read_ns += t1 - t0;
      make_doc_ns += t2 - t1;
      add_ns += t3 - t2;
      ids.push_back(streamed.record.id);
      entity_of.push_back(streamed.entity);
    }
  }
  ThreadPool pool(kThreads);
  const int64_t prepare_start = NowNs();
  std::optional<ShardedJoinCursor> cursor;
  {
    ScopedSpan span(&log, "simjoin.prepare", root);
    cursor.emplace(Unwrap(joiner.MakeCursor(dictionary, measure, kThreshold,
                                            &pool),
                          "MakeCursor"));
  }
  const int64_t prepare_ns = NowNs() - prepare_start;

  // Labeling: the session exactly as the campaign configures it, fed by the
  // rebuilt join behind the stream and oracle decorators.
  const GroundTruthOracle truth(entity_of);
  GroundTruthOracle answers = truth;
  OracleTap oracle(&answers);
  LabelingReport report;
  int64_t session_ns = 0;
  std::unique_ptr<JoinStream> join;
  std::unique_ptr<StreamTap> stream;
  {
    ScopedSpan span(&log, "core.session", root);
    join = std::make_unique<JoinStream>(&*cursor, &pool, &ids);
    stream = std::make_unique<StreamTap>(join.get(), &log, span.id());
    const StreamingCampaignConfig campaign = MakeCampaignConfig();
    LabelingSessionOptions options;
    options.schedule = SchedulePolicy::kRoundParallel;
    options.num_threads = campaign.crowd.num_threads;
    LabelingSession session(options);
    Rng order_rng(campaign.crowd.seed);
    const int64_t start = NowNs();
    report = Unwrap(session.RunStream(*stream, campaign.order, oracle, &truth,
                                      &order_rng),
                    "RunStream");
    session_ns = NowNs() - start;
  }
  const int64_t traced_end = NowNs();
  const int64_t traced_ns = traced_end - traced_start;
  log.AddWithId(root, "campaign_sf100.traced", 0, 0, 0, traced_start,
                traced_end);

  // The rebuilt run must reproduce the public entry point exactly.
  CandidateSet pairs;
  std::vector<std::vector<int32_t>> orders;
  std::vector<size_t> offsets;
  for (const CandidateSet& round : stream->rounds()) {
    offsets.push_back(pairs.size());
    pairs.insert(pairs.end(), round.begin(), round.end());
    orders.push_back(Unwrap(
        MakeLabelingOrder(round, OrderKind::kExpected, &truth, nullptr),
        "order"));
  }
  CheckReportsIdentical(checker, "traced vs untraced", report,
                        reference.labeling);
  checker.ExpectEqual("traced candidates", static_cast<int64_t>(pairs.size()),
                      reference.num_candidates);
  checker.ExpectEqual("oracle calls", oracle.num_queries(),
                      report.num_crowdsourced);
  CheckReportComplete(checker, "traced campaign", report);
  CheckLabelsMatchTruth(checker, "traced campaign", report, pairs, truth);
  CheckPins(checker, config, reference);

  // Probe-task skew: a fresh cursor drained one task at a time, inline.
  std::vector<double> task_ms;
  int64_t skew_pairs = 0;
  {
    ScopedSpan span(&log, "simjoin.skew_pass");
    ShardedJoinCursor skew = Unwrap(
        joiner.MakeCursor(dictionary, measure, kThreshold, &pool), "cursor");
    while (!skew.done()) {
      const int64_t start = NowNs();
      const std::vector<ScoredPair> joined =
          Unwrap(skew.NextBatch(1, /*pool=*/nullptr), "NextBatch(1)");
      task_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
      for (const ScoredPair& pair : joined) {
        if (pair.score >= kThreshold) ++skew_pairs;
      }
    }
  }
  checker.ExpectEqual("skew pass candidates", skew_pairs,
                      reference.num_candidates);
  double task_sum = 0.0;
  for (double ms : task_ms) task_sum += ms;
  const double task_max = Max(task_ms);

  // Graph: the run's labels replayed on a standalone cluster graph.
  const GraphReplay replay = ReplayOnGraph(stream->rounds(), orders, offsets,
                                           report);
  checker.ExpectEqual("graph replay wrong deductions", replay.wrong_deductions,
                      0);

  const double oracle_s = static_cast<double>(oracle.busy_ns()) * 1e-9 /
                          static_cast<double>(kThreads);
  const double stream_s = static_cast<double>(stream->inside_ns()) * 1e-9;
  const double label_s =
      static_cast<double>(session_ns) * 1e-9 - stream_s - oracle_s;
  const double read_s = static_cast<double>(read_ns) * 1e-9;
  const double make_doc_s = static_cast<double>(make_doc_ns) * 1e-9;
  const double add_s = static_cast<double>(add_ns) * 1e-9;
  const double prepare_s = static_cast<double>(prepare_ns) * 1e-9;
  const double traced_s = static_cast<double>(traced_ns) * 1e-9;
  const double layers_s =
      read_s + make_doc_s + add_s + prepare_s + stream_s + label_s + oracle_s;
  const std::vector<double> round_ms = stream->RoundLabelMs();

  out.Add("datagen.read_s", read_s, "s");
  out.Add("text.make_doc_s", make_doc_s, "s");
  out.Add("simjoin.add_s", add_s, "s");
  out.Add("simjoin.ingest_s", make_doc_s + add_s, "s");
  out.Add("simjoin.prepare_s", prepare_s, "s");
  out.Add("simjoin.probe_s", static_cast<double>(join->probe_ns()) * 1e-9, "s");
  out.Add("simjoin.task_max_share", task_max / task_sum, "fraction",
          static_cast<int64_t>(task_ms.size()));
  out.Add("simjoin.probe_ceiling_4t",
          task_sum / std::max(task_max, task_sum / kThreads), "x");
  out.Add("simjoin.candidates_per_record",
          static_cast<double>(reference.num_candidates) /
              static_cast<double>(reference.num_records),
          "pairs/rec");
  out.Add("proc.cpu_util", cpu_util, "fraction");
  out.Add("core.label_s", label_s, "s");
  out.Add("core.round_ms_p50", Median(round_ms), "ms",
          static_cast<int64_t>(round_ms.size()));
  out.Add("core.round_ms_max", Max(round_ms), "ms",
          static_cast<int64_t>(round_ms.size()));
  out.Add("core.deduced_share",
          static_cast<double>(report.num_deduced) /
              static_cast<double>(report.num_candidates),
          "fraction");
  out.Add("graph.deduce_ns", replay.deduce_ns, "ns", replay.deduces);
  out.Add("graph.add_ns", replay.add_ns, "ns", replay.adds);
  out.Add("crowd.oracle_calls", static_cast<double>(oracle.num_queries()),
          "count");
  out.Add("crowd.oracle_s", oracle_s, "s");
  out.Add("crowd.attempts_per_ask", 1.0, "ratio");
  out.Add("bench.traced_wall_s", traced_s, "s");
  out.Add("bench.layers_sum_s", layers_s, "s");
  out.Add("bench.residual_s", traced_s - layers_s, "s");
  out.Add("obs.trace_overhead", traced_s / untraced_wall, "ratio");

  std::string tasks = "probe task ms (inline, task order):";
  for (double ms : task_ms) tasks += StrFormat(" %.2f", ms);
  out.Note(tasks);
  std::string rounds = "stream round labeling ms:";
  for (double ms : round_ms) rounds += StrFormat(" %.1f", ms);
  out.Note(rounds);
  out.Note(StrFormat("traced wall %.3f s = layers %.3f s + residual %.3f s "
                     "(untraced campaign %.3f s, set-up %.3f s)",
                     traced_s, layers_s, traced_s - layers_s, untraced_wall,
                     setup_s));
  if (!config.trace_path.empty() && !log.WriteChromeTrace(config.trace_path)) {
    checker.Expect(false, "cannot write " + config.trace_path);
  }
  out.attempted = checker.attempted();
  out.failures = checker.failures();
  return out;
}

}  // namespace

RunOutput RunCampaign(const RunConfig& config) {
  return config.trace ? RunTraced(config) : RunTimed(config);
}

}  // namespace perfbench
