// serve_mixed_sf10: the resolution service under an open-loop mix of one
// writer and two readers.
//
// Set-up ingests the first 80% of the SF 10 corpus into a
// `ResolutionService` (default options: Jaccard 0.5, top 10), labeling each
// ingest's undecided candidates from ground truth. The timed part is open
// loop: the writer ingests the remaining 20% on a fixed schedule spread
// over the run's seconds, and two reader threads issue `QueryCandidates`
// plus a `ResolveCluster` per returned candidate on a fixed schedule whose
// rate steps up twice. Every operation is timed from its due time.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/streaming_generator.h"
#include "graph/cluster_graph.h"
#include "serve/resolution_service.h"
#include "workloads.h"

namespace perfbench {

using namespace crowdjoin;

namespace {

constexpr int32_t kScale = 10;
constexpr double kPreloadShare = 0.8;
constexpr int kReaders = 2;
constexpr int kSetupRepetitions = 3;
/// Total query rate of the three steps (both readers together), q/s, and
/// each step's share of the run. The first is the base step the latency
/// metrics are read at. The last is past the writer-starvation cliff of the
/// current locking (1,800 q/s already drives ingest p99 past 1 s) and near
/// the readers' own capacity, so it fails decisively on this code and
/// passes only once queries get cheaper or stop blocking the writer.
constexpr double kStepQps[] = {400.0, 800.0, 2400.0};
constexpr double kStepShare[] = {0.6, 0.2, 0.2};
constexpr int kSteps = 3;
/// Latency limits a step must meet, from due time: at p99 for queries and
/// at p90 for ingests (a step has only ~400 of them, so p90 is the highest
/// percentile one stall of the machine cannot carry past the limit).
constexpr double kQueryLimitUs = 25000.0;
constexpr double kIngestLimitUs = 50000.0;
/// Queries per window of the windowed p99: enough that ten lie beyond it.
constexpr size_t kWindowQueries = 1000;
/// A generator that wakes later than this at p99 invalidates the run.
constexpr double kGenLateLimitUs = 2000.0;
/// Open loops run before a run whose generator keeps lagging is invalid.
constexpr int kLoopAttempts = 2;
/// Queries of the top-k check against brute force.
constexpr int kTopKSample = 64;

struct Corpus {
  std::vector<std::string> texts;
  std::vector<int32_t> entities;
  size_t preload = 0;
};

Corpus MakeCorpus(uint64_t seed) {
  Corpus corpus;
  PaperDatasetConfig paper;
  paper.seed = seed;
  StreamingPaperSource source(paper, kScale);
  StreamedRecord streamed;
  while (source.Next(&streamed)) {
    corpus.texts.push_back(RecordText(streamed.record));
    corpus.entities.push_back(streamed.entity);
  }
  CheckOk(source.status(), "SF 10 stream");
  corpus.preload = static_cast<size_t>(
      static_cast<double>(corpus.texts.size()) * kPreloadShare);
  return corpus;
}

/// One call the writer made on the cluster graph, for the standalone replay.
struct GraphOp {
  ObjectId a;
  ObjectId b;
  Label label;
  bool add;  // OnPairLabeled; otherwise DeducePair
};

/// Everything the writer did, across set-up and the timed part.
struct WriterState {
  int64_t candidates = 0;
  int64_t labels = 0;
  int64_t asking_ingests = 0;
  /// Every (ingested record, candidate) pair, for the label check.
  std::vector<std::pair<ObjectId, ObjectId>> candidate_pairs;
  /// Traced run only: per-call service times and the graph call log.
  bool traced = false;
  std::vector<double> ingest_us;
  std::vector<double> label_us;
  std::vector<size_t> label_marks;  // label_us.size() after each ingest
  int64_t serve_ns = 0;
  std::vector<GraphOp> graph_ops;
};

/// Ingests record `i` and answers its undecided candidates from ground
/// truth, as a crowd would. Returns the labels asked.
int64_t IngestAndLabel(ResolutionService& service, const Corpus& corpus,
                       size_t i, WriterState& state, SpanLog* log,
                       int64_t request) {
  int64_t t0 = state.traced ? NowNs() : 0;
  const IngestResult result = service.Ingest(corpus.texts[i]);
  if (state.traced) {
    const int64_t t1 = NowNs();
    state.ingest_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    state.serve_ns += t1 - t0;
    if (log != nullptr) log->Add("serve.Ingest", request, request, 0, t0, t1);
  }
  state.candidates += static_cast<int64_t>(result.candidates.size());
  int64_t asked = 0;
  for (const ServeCandidate& candidate : result.candidates) {
    state.candidate_pairs.emplace_back(result.id, candidate.id);
    if (state.traced) t0 = NowNs();
    const Deduction deduction = service.DeducePair(result.id, candidate.id);
    if (state.traced) {
      const int64_t t1 = NowNs();
      state.serve_ns += t1 - t0;
      state.graph_ops.push_back(
          GraphOp{result.id, candidate.id, Label::kNonMatching, false});
      if (log != nullptr) {
        log->Add("serve.DeducePair", request, request, 0, t0, t1);
      }
    }
    if (deduction != Deduction::kUndeduced) continue;
    const Label label = corpus.entities[static_cast<size_t>(result.id)] ==
                                corpus.entities[static_cast<size_t>(candidate.id)]
                            ? Label::kMatching
                            : Label::kNonMatching;
    if (state.traced) t0 = NowNs();
    service.OnPairLabeled(result.id, candidate.id, label);
    if (state.traced) {
      const int64_t t1 = NowNs();
      state.label_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      state.serve_ns += t1 - t0;
      state.graph_ops.push_back(GraphOp{result.id, candidate.id, label, true});
      if (log != nullptr) {
        log->Add("serve.OnPairLabeled", request, request, 0, t0, t1);
      }
    }
    ++asked;
  }
  state.labels += asked;
  if (asked > 0) ++state.asking_ingests;
  if (state.traced) state.label_marks.push_back(state.label_us.size());
  return asked;
}

struct Loaded {
  std::unique_ptr<ResolutionService> service;
  WriterState writer;
  /// The writer's state when the preload ended, to separate the timed part.
  size_t preload_labels = 0;  // entries of writer.label_us
  int64_t preload_label_count = 0;
  int64_t preload_serve_ns = 0;
};

Loaded Preload(const Corpus& corpus, bool traced) {
  Loaded loaded;
  loaded.service = std::make_unique<ResolutionService>();
  loaded.writer.traced = traced;
  for (size_t i = 0; i < corpus.preload; ++i) {
    IngestAndLabel(*loaded.service, corpus, i, loaded.writer, nullptr, 0);
  }
  loaded.preload_labels = loaded.writer.label_us.size();
  loaded.preload_label_count = loaded.writer.labels;
  loaded.preload_serve_ns = loaded.writer.serve_ns;
  return loaded;
}

/// One scheduled operation and when it ran.
struct Op {
  int64_t due_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t gen_late_ns = 0;  // how late the thread started while idle
  int step = 0;
  int64_t candidates = 0;   // queries: candidates returned
  int64_t service_ns = 0;   // queries: time inside QueryCandidates
};

struct LoopResult {
  std::vector<Op> writes;
  std::vector<Op> reads;  // both readers
  int64_t step_start_ns[kSteps + 1] = {};  // step s is [start[s], start[s+1])
  double wall_s = 0.0;
  int64_t epoch_before = 0;
  int64_t epoch_after = 0;
  double cpu_s = 0.0;
};

// Waits for `due` (sleeping until shortly before it, then spinning, so the
// timer's wake-up jitter stays out of the latencies), then records how late
// the thread started: a start after both the due time and the previous
// operation's end is the generator's own lag, not the system's.
void WaitFor(Op& op, int64_t previous_end) {
  constexpr int64_t kSpinNs = 200'000;
  if (op.due_ns - NowNs() > kSpinNs) {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(op.due_ns - kSpinNs)));
  }
  while (NowNs() < op.due_ns) {
  }
  op.start_ns = NowNs();
  op.gen_late_ns = op.start_ns - std::max(op.due_ns, previous_end);
}

LoopResult RunOpenLoop(const Corpus& corpus, Loaded& loaded, double seconds,
                       uint64_t seed, SpanLog* log) {
  ResolutionService& service = *loaded.service;
  LoopResult loop;
  const int64_t begin = NowNs() + 20'000'000;  // threads start before due
  loop.step_start_ns[0] = begin;
  for (int s = 0; s < kSteps; ++s) {
    loop.step_start_ns[s + 1] =
        loop.step_start_ns[s] +
        static_cast<int64_t>(seconds * kStepShare[s] * 1e9);
  }
  const int64_t end = loop.step_start_ns[kSteps];

  // Writer schedule: the remaining records, evenly over the run.
  const size_t writes = corpus.texts.size() - corpus.preload;
  const double write_gap_ns =
      static_cast<double>(end - begin) / static_cast<double>(writes);
  loop.writes.resize(writes);
  for (size_t i = 0; i < writes; ++i) {
    Op& op = loop.writes[i];
    op.due_ns = begin + static_cast<int64_t>(static_cast<double>(i) *
                                             write_gap_ns);
    while (op.due_ns >= loop.step_start_ns[op.step + 1]) ++op.step;
  }
  // Reader schedules: step s issues kStepQps[s] queries per second in
  // total; query j of a step goes to reader j % kReaders.
  std::vector<std::vector<Op>> reads(kReaders);
  std::vector<std::vector<size_t>> query_text(kReaders);
  Rng pick(seed ^ 0x5E17Eu);
  for (int s = 0; s < kSteps; ++s) {
    const double gap_ns = 1e9 / kStepQps[s];
    const int64_t step_ns = loop.step_start_ns[s + 1] - loop.step_start_ns[s];
    const auto count = static_cast<int64_t>(
        static_cast<double>(step_ns) / gap_ns);
    for (int64_t j = 0; j < count; ++j) {
      Op op;
      op.due_ns = loop.step_start_ns[s] +
                  static_cast<int64_t>(static_cast<double>(j) * gap_ns);
      op.step = s;
      reads[static_cast<size_t>(j % kReaders)].push_back(op);
      query_text[static_cast<size_t>(j % kReaders)].push_back(
          static_cast<size_t>(pick.UniformUint64(corpus.texts.size())));
    }
  }

  loop.epoch_before = service.Stats().epoch;
  const double cpu_before = ProcessCpuSeconds();
  std::vector<std::jthread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      int64_t previous_end = 0;
      std::vector<Op>& ops = reads[static_cast<size_t>(r)];
      for (size_t k = 0; k < ops.size(); ++k) {
        Op& op = ops[k];
        WaitFor(op, previous_end);
        const int64_t request = log != nullptr ? log->NewId() : 0;
        const int64_t query_start = NowNs();
        const std::vector<ServeCandidate> candidates = service.QueryCandidates(
            corpus.texts[query_text[static_cast<size_t>(r)][k]]);
        const int64_t query_end = NowNs();
        op.service_ns = query_end - query_start;
        op.candidates = static_cast<int64_t>(candidates.size());
        for (const ServeCandidate& c : candidates) {
          const int64_t t0 = log != nullptr ? NowNs() : 0;
          (void)service.ResolveCluster(c.id);
          if (log != nullptr) {
            log->Add("serve.ResolveCluster", request, request, r + 1, t0,
                     NowNs());
          }
        }
        op.end_ns = NowNs();
        previous_end = op.end_ns;
        if (log != nullptr) {
          log->Add("serve.QueryCandidates", request, request, r + 1,
                   query_start, query_end);
          log->Add("bench.queue_wait", request, request, r + 1, op.due_ns,
                   op.start_ns);
          log->AddWithId(request, "bench.query_op", 0, request, r + 1,
                         op.due_ns, op.end_ns);
        }
      }
    });
  }
  {
    int64_t previous_end = 0;
    for (size_t i = 0; i < writes; ++i) {
      Op& op = loop.writes[i];
      WaitFor(op, previous_end);
      const int64_t request = log != nullptr ? log->NewId() : 0;
      IngestAndLabel(service, corpus, corpus.preload + i, loaded.writer, log,
                     request);
      op.end_ns = NowNs();
      previous_end = op.end_ns;
      if (log != nullptr) {
        log->Add("bench.queue_wait", request, request, 0, op.due_ns,
                 op.start_ns);
        log->AddWithId(request, "bench.ingest_op", 0, request, 0, op.due_ns,
                       op.end_ns);
      }
    }
  }
  for (std::jthread& thread : threads) thread.join();
  loop.wall_s = static_cast<double>(NowNs() - begin) * 1e-9;
  loop.cpu_s = ProcessCpuSeconds() - cpu_before;
  loop.epoch_after = service.Stats().epoch;
  for (const std::vector<Op>& ops : reads) {
    loop.reads.insert(loop.reads.end(), ops.begin(), ops.end());
  }
  return loop;
}

std::vector<double> LatencyUs(const std::vector<Op>& ops, int step) {
  std::vector<double> us;
  for (const Op& op : ops) {
    if (step < 0 || op.step == step) {
      us.push_back(static_cast<double>(op.end_ns - op.due_ns) * 1e-3);
    }
  }
  return us;
}

/// Query p99 of a step, robust to one stall of the machine: the step's
/// queries, in due order, are cut into windows of `kWindowQueries`, and the
/// median of the windows' p99s is reported.
double WindowedQueryP99Us(const LoopResult& loop, int step) {
  std::vector<const Op*> ops;
  for (const Op& op : loop.reads) {
    if (op.step == step) ops.push_back(&op);
  }
  std::sort(ops.begin(), ops.end(),
            [](const Op* x, const Op* y) { return x->due_ns < y->due_ns; });
  const size_t windows = std::max<size_t>(1, ops.size() / kWindowQueries);
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> us;
    for (size_t i = w * ops.size() / windows;
         i < (w + 1) * ops.size() / windows; ++i) {
      us.push_back(static_cast<double>(ops[i]->end_ns - ops[i]->due_ns) *
                   1e-3);
    }
    p99s.push_back(Quantile(us, 0.99));
  }
  return Median(p99s);
}

/// Per-step verdict: latency within the limits, and a backlog that did not
/// grow (the operations due in the step's last quarter started, at the
/// median, within the query limit).
struct StepVerdict {
  bool pass = false;
  double query_p99_us = 0.0;
  double ingest_p90_us = 0.0;
  double final_wait_us = 0.0;
  double completed_per_s = 0.0;
};

StepVerdict JudgeStep(const LoopResult& loop, int step) {
  StepVerdict verdict;
  verdict.query_p99_us = WindowedQueryP99Us(loop, step);
  verdict.ingest_p90_us = Quantile(LatencyUs(loop.writes, step), 0.90);
  const int64_t step_start = loop.step_start_ns[step];
  const int64_t step_end = loop.step_start_ns[step + 1];
  std::vector<double> final_waits_us;
  for (const std::vector<Op>* ops : {&loop.reads, &loop.writes}) {
    for (const Op& op : *ops) {
      if (op.step == step &&
          op.due_ns >= step_end - (step_end - step_start) / 4) {
        final_waits_us.push_back(
            static_cast<double>(op.start_ns - op.due_ns) * 1e-3);
      }
    }
  }
  verdict.final_wait_us = Median(final_waits_us);
  // Throughput as measured: the step's queries over the time from the
  // first one starting to the last one finishing.
  int64_t completed = 0;
  int64_t first_start = std::numeric_limits<int64_t>::max();
  int64_t last_end = 0;
  for (const Op& op : loop.reads) {
    if (op.step != step) continue;
    ++completed;
    first_start = std::min(first_start, op.start_ns);
    last_end = std::max(last_end, op.end_ns);
  }
  verdict.completed_per_s =
      static_cast<double>(completed) /
      (static_cast<double>(std::max<int64_t>(last_end - first_start, 1)) *
       1e-9);
  verdict.pass = verdict.query_p99_us <= kQueryLimitUs &&
                 verdict.ingest_p90_us <= kIngestLimitUs &&
                 verdict.final_wait_us <= kQueryLimitUs;
  return verdict;
}

/// Operations due in the base step that met their limit.
double BaseStepOkShare(const LoopResult& loop) {
  int64_t attempted = 0;
  int64_t ok = 0;
  for (const Op& op : loop.reads) {
    if (op.step != 0) continue;
    ++attempted;
    if (op.end_ns > 0 &&
        static_cast<double>(op.end_ns - op.due_ns) * 1e-3 <= kQueryLimitUs) {
      ++ok;
    }
  }
  for (const Op& op : loop.writes) {
    if (op.step != 0) continue;
    ++attempted;
    if (op.end_ns > 0 &&
        static_cast<double>(op.end_ns - op.due_ns) * 1e-3 <= kIngestLimitUs) {
      ++ok;
    }
  }
  return static_cast<double>(ok) / static_cast<double>(attempted);
}

double GenLateP99Us(const LoopResult& loop) {
  std::vector<double> late;
  for (const std::vector<Op>* ops : {&loop.reads, &loop.writes}) {
    for (const Op& op : *ops) {
      late.push_back(static_cast<double>(op.gen_late_ns) * 1e-3);
    }
  }
  return Quantile(late, 0.99);
}

void CheckOutputs(Checker& checker, const RunConfig& config,
                  const Corpus& corpus, const Loaded& loaded,
                  const LoopResult& loop, const char* what) {
  const ResolutionService& service = *loaded.service;
  const ServeStats stats = service.Stats();
  checker.ExpectEqual(StrFormat("%s: records", what), stats.num_records,
                      static_cast<int64_t>(corpus.texts.size()));
  checker.ExpectEqual(StrFormat("%s: labels", what), stats.num_labels,
                      loaded.writer.labels);
  int64_t unfinished = 0;
  for (const std::vector<Op>* ops : {&loop.reads, &loop.writes}) {
    for (const Op& op : *ops) unfinished += op.end_ns == 0 ? 1 : 0;
  }
  checker.ExpectEqual(StrFormat("%s: operations never run", what), unfinished,
                      0);
  CheckServedLabels(checker, what, service, loaded.writer.candidate_pairs,
                    corpus.entities);
  // Serving top-k equals brute-force exact Jaccard over the final corpus.
  const BruteForceIndex brute(corpus.texts);
  Rng pick(config.seed ^ 0x70Bu);
  for (int q = 0; q < kTopKSample; ++q) {
    const std::string& text =
        corpus.texts[static_cast<size_t>(pick.UniformUint64(corpus.texts.size()))];
    CheckTopKMatches(checker, StrFormat("%s: query %d", what, q),
                     service.QueryCandidates(text),
                     brute.TopK(text, ResolutionServiceOptions{}.threshold,
                                ResolutionServiceOptions{}.top_k));
  }
  const double late_us = GenLateP99Us(loop);
  checker.Expect(late_us <= kGenLateLimitUs,
                 StrFormat("%s: INVALID RUN, the load generator itself lagged "
                           "(wake-up p99 %.0f us > %.0f us)",
                           what, late_us, kGenLateLimitUs));
  CheckPin(checker, config, "candidates", loaded.writer.candidates, 67101);
  CheckPin(checker, config, "labels", loaded.writer.labels, 9322);
  CheckPin(checker, config, "clusters", stats.num_clusters, 704);
}

// Runs the open loop, repeating it on a freshly preloaded service while the
// generator lags: such a loop measured the machine, not the service, and is
// discarded as invalid. A traced loop gets a fresh span log per attempt.
LoopResult RunValidLoop(const Corpus& corpus, Loaded& loaded,
                        const RunConfig& config, std::optional<SpanLog>* log,
                        RunOutput& out) {
  for (int attempt = 1;; ++attempt) {
    if (log != nullptr) log->emplace();
    LoopResult loop = RunOpenLoop(corpus, loaded, config.seconds, config.seed,
                                  log != nullptr ? &**log : nullptr);
    const double late_us = GenLateP99Us(loop);
    if (late_us <= kGenLateLimitUs || attempt == kLoopAttempts) return loop;
    out.Note(StrFormat("open loop %d discarded: generator wake-up p99 %.0f us",
                       attempt, late_us));
    loaded = Preload(corpus, loaded.writer.traced);
  }
}

RunOutput RunTimed(const RunConfig& config) {
  RunOutput out;
  Checker checker;
  const Corpus corpus = MakeCorpus(config.seed);
  std::vector<double> setup_times;
  Loaded loaded;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    const double start = NowS();
    const Corpus fresh = MakeCorpus(config.seed);
    loaded = Preload(fresh, /*traced=*/false);
    setup_times.push_back(NowS() - start);
  }

  const LoopResult loop = RunValidLoop(corpus, loaded, config, nullptr, out);
  CheckOutputs(checker, config, corpus, loaded, loop, "serve");

  int sustained = -1;
  std::vector<StepVerdict> verdicts;
  for (int s = 0; s < kSteps; ++s) {
    verdicts.push_back(JudgeStep(loop, s));
    if (verdicts.back().pass && sustained == s - 1) sustained = s;
  }
  const std::vector<double> base_queries = LatencyUs(loop.reads, 0);
  const std::vector<double> base_ingests = LatencyUs(loop.writes, 0);
  const auto nq = static_cast<int64_t>(base_queries.size());
  const auto ni = static_cast<int64_t>(base_ingests.size());

  out.Add("setup_s", Median(setup_times), "s", kSetupRepetitions);
  out.Add("work_per_s",
          sustained < 0 ? 0.0 : verdicts[static_cast<size_t>(sustained)]
                                    .completed_per_s,
          "1/s");
  out.Add("latency_p50_ms", Quantile(base_queries, 0.5) * 1e-3, "ms", nq);
  // The tail is the upper quartile, as on the batch workloads: on a shared
  // host the p99 (printed below) moves with the neighbours' load by more
  // than the bound, while the quartiles hold.
  out.Add("latency_tail_ms", Quantile(base_queries, 0.75) * 1e-3, "ms", nq);
  out.Add("crowdsourced_pairs", static_cast<double>(loaded.writer.labels),
          "count");
  out.Add("crowd_iterations", static_cast<double>(loaded.writer.asking_ingests),
          "count");
  out.Add("peak_rss_mib", PeakRssMiB(), "MiB");
  out.Add("slo_ok_frac", BaseStepOkShare(loop), "fraction", nq + ni);

  out.Note(StrFormat("serve_mixed_sf10: records=%zu preload=%zu "
                     "candidates=%lld labels=%lld clusters=%d",
                     corpus.texts.size(), corpus.preload,
                     static_cast<long long>(loaded.writer.candidates),
                     static_cast<long long>(loaded.writer.labels),
                     loaded.service->Stats().num_clusters));
  NotePlanMetric(out, "query_p50_us", Quantile(base_queries, 0.5), "us", nq);
  NotePlanMetric(out, "query_p99_us", WindowedQueryP99Us(loop, 0), "us", nq);
  NotePlanMetric(out, "ingest_p50_us", Quantile(base_ingests, 0.5), "us", ni);
  NotePlanMetric(out, "ingest_p99_us", Quantile(base_ingests, 0.99), "us", ni);
  NotePlanMetric(out, "sustained_qps",
                 sustained < 0 ? 0.0
                               : verdicts[static_cast<size_t>(sustained)]
                                     .completed_per_s,
                 "q/s", 0);
  NotePlanMetric(out, "slo_miss_frac", 1.0 - BaseStepOkShare(loop),
                 "fraction", nq + ni);
  for (int s = 0; s < kSteps; ++s) {
    const StepVerdict& v = verdicts[static_cast<size_t>(s)];
    out.Note(StrFormat("step %d: %.0f q/s offered, %.1f q/s completed, "
                       "query p99 %.0f us, ingest p90 %.0f us, final-quarter wait "
                       "p50 %.0f us: "
                       "%s",
                       s, kStepQps[s], v.completed_per_s, v.query_p99_us,
                       v.ingest_p90_us, v.final_wait_us, v.pass ? "sustained" : "missed"));
  }
  out.Note(StrFormat("base step query p99 pooled over all %lld queries: "
                     "%.1f us", static_cast<long long>(nq),
                     Quantile(base_queries, 0.99)));
  out.Note(StrFormat("generator wake-up p99 %.1f us", GenLateP99Us(loop)));
  out.attempted = checker.attempted();
  out.failures = checker.failures();
  return out;
}

// Mean ns per call of the writer's graph calls, replayed on a standalone
// cluster graph in the order the writer made them.
GraphReplay ReplayWriterOps(const std::vector<GraphOp>& ops,
                            int32_t num_objects) {
  ClusterGraph graph(num_objects);
  GraphReplay replay;
  int64_t deduce_ns = 0;
  int64_t add_ns = 0;
  size_t i = 0;
  while (i < ops.size()) {
    const bool add = ops[i].add;
    const int64_t start = NowNs();
    size_t j = i;
    for (; j < ops.size() && ops[j].add == add; ++j) {
      if (add) {
        graph.Add(ops[j].a, ops[j].b, ops[j].label);
      } else {
        (void)graph.Deduce(ops[j].a, ops[j].b);
      }
    }
    (add ? add_ns : deduce_ns) += NowNs() - start;
    (add ? replay.adds : replay.deduces) += static_cast<int64_t>(j - i);
    i = j;
  }
  replay.deduce_ns = static_cast<double>(deduce_ns) /
                     static_cast<double>(std::max<int64_t>(replay.deduces, 1));
  replay.add_ns = static_cast<double>(add_ns) /
                  static_cast<double>(std::max<int64_t>(replay.adds, 1));
  return replay;
}

int64_t BusyNs(const LoopResult& loop) {
  int64_t busy = 0;
  for (const std::vector<Op>* ops : {&loop.reads, &loop.writes}) {
    for (const Op& op : *ops) busy += op.end_ns - op.start_ns;
  }
  return busy;
}

RunOutput RunTraced(const RunConfig& config) {
  RunOutput out;
  Checker checker;
  const Corpus corpus = MakeCorpus(config.seed);

  // Reference: the untraced loop, as the timed run makes it.
  Loaded plain = Preload(corpus, /*traced=*/false);
  const LoopResult reference = RunValidLoop(corpus, plain, config, nullptr, out);
  CheckOutputs(checker, config, corpus, plain, reference, "untraced loop");

  // Traced loop on a fresh service: per-call times, request spans, and the
  // writer's graph calls.
  std::optional<SpanLog> log;
  Loaded traced = Preload(corpus, /*traced=*/true);
  const LoopResult loop = RunValidLoop(corpus, traced, config, &log, out);
  const size_t preload_ingests = corpus.preload;
  const size_t preload_labels = traced.preload_labels;
  const int64_t preload_labels_total = traced.preload_label_count;
  const int64_t serve_ns_before = traced.preload_serve_ns;
  CheckOutputs(checker, config, corpus, traced, loop, "traced loop");
  checker.ExpectEqual("traced vs untraced candidates", traced.writer.candidates,
                      plain.writer.candidates);
  checker.ExpectEqual("traced vs untraced labels", traced.writer.labels,
                      plain.writer.labels);
  checker.ExpectEqual("traced vs untraced clusters",
                      traced.service->Stats().num_clusters,
                      plain.service->Stats().num_clusters);
  checker.ExpectEqual("traced vs untraced epoch", loop.epoch_after,
                      reference.epoch_after);

  // Service times at the base step, where they are not yet queueing
  // behind the overloaded steps.
  std::vector<double> ingest_us;
  std::vector<double> label_us;
  for (size_t i = 0; i < loop.writes.size(); ++i) {
    if (loop.writes[i].step == 0) {
      ingest_us.push_back(traced.writer.ingest_us[preload_ingests + i]);
    }
  }
  // Labels of the base-step ingests: the first ones after the preload's.
  const size_t base_labels =
      traced.writer.label_marks[preload_ingests + ingest_us.size() - 1];
  label_us.assign(
      traced.writer.label_us.begin() + static_cast<long>(preload_labels),
      traced.writer.label_us.begin() + static_cast<long>(base_labels));
  std::vector<double> query_us;
  std::vector<double> wait_us;
  double candidates = 0.0;
  for (const Op& op : loop.reads) {
    candidates += static_cast<double>(op.candidates);
    if (op.step != 0) continue;
    query_us.push_back(static_cast<double>(op.service_ns) * 1e-3);
    wait_us.push_back(static_cast<double>(op.start_ns - op.due_ns) * 1e-3);
  }
  for (const Op& op : loop.writes) {
    if (op.step == 0) {
      wait_us.push_back(static_cast<double>(op.start_ns - op.due_ns) * 1e-3);
    }
  }
  const std::vector<double> base_ingests = LatencyUs(loop.writes, 0);
  const GraphReplay replay = ReplayWriterOps(
      traced.writer.graph_ops, static_cast<int32_t>(corpus.texts.size()));
  const auto timed_labels =
      static_cast<double>(traced.writer.labels - preload_labels_total);
  int64_t writer_ns = 0;
  for (const Op& op : loop.writes) writer_ns += op.end_ns - op.start_ns;
  const double serve_s =
      static_cast<double>(traced.writer.serve_ns - serve_ns_before) * 1e-9;
  const double writer_s = static_cast<double>(writer_ns) * 1e-9;

  out.Add("proc.cpu_util",
          reference.cpu_s / (reference.wall_s * (kReaders + 1)), "fraction");
  out.Add("graph.deduce_ns", replay.deduce_ns, "ns", replay.deduces);
  out.Add("graph.add_ns", replay.add_ns, "ns", replay.adds);
  out.Add("graph.snapshot_publishes",
          static_cast<double>(loop.epoch_after - loop.epoch_before), "count");
  out.Add("crowd.oracle_calls", timed_labels, "count");
  out.Add("crowd.attempts_per_ask", 1.0, "ratio");
  out.Add("serve.ingest_service_us_p99", Quantile(ingest_us, 0.99), "us",
          static_cast<int64_t>(ingest_us.size()));
  out.Add("serve.label_us_p99", Quantile(label_us, 0.99), "us",
          static_cast<int64_t>(label_us.size()));
  out.Add("serve.query_service_us_p99", Quantile(query_us, 0.99), "us",
          static_cast<int64_t>(query_us.size()));
  out.Add("serve.queue_wait_us_p99", Quantile(wait_us, 0.99), "us",
          static_cast<int64_t>(wait_us.size()));
  out.Add("serve.candidates_per_query",
          candidates / static_cast<double>(loop.reads.size()), "count");
  out.Add("serve.labels_per_ingest",
          timed_labels / static_cast<double>(loop.writes.size()), "count");
  out.Add("serve.ingest_p50_us", Quantile(base_ingests, 0.5), "us",
          static_cast<int64_t>(base_ingests.size()));
  out.Add("serve.ingest_p99_us", Quantile(base_ingests, 0.99), "us",
          static_cast<int64_t>(base_ingests.size()));
  out.Add("serve.slo_miss_frac", 1.0 - BaseStepOkShare(loop), "fraction");
  out.Add("bench.gen_late_p99_us", GenLateP99Us(loop), "us");
  out.Add("bench.traced_wall_s", writer_s, "s");
  out.Add("bench.layers_sum_s", serve_s, "s");
  out.Add("bench.residual_s", writer_s - serve_s, "s");
  out.Add("obs.trace_overhead",
          static_cast<double>(BusyNs(loop)) /
              static_cast<double>(BusyNs(reference)),
          "ratio");
  out.Note(StrFormat("writer busy %.3f s = serve calls %.3f s + residual "
                     "%.3f s; %zu spans",
                     writer_s, serve_s, writer_s - serve_s, log->size()));
  if (!config.trace_path.empty() && !log->WriteChromeTrace(config.trace_path)) {
    checker.Expect(false, "cannot write " + config.trace_path);
  }
  out.attempted = checker.attempted();
  out.failures = checker.failures();
  return out;
}

}  // namespace

RunOutput RunServeMixed(const RunConfig& config) {
  return config.trace ? RunTraced(config) : RunTimed(config);
}

}  // namespace perfbench
