// Shows that every output check of the benchmark passes on a real result
// and fails on a minimally perturbed one: one flipped label, or a count off
// by one. The inputs are the SF 1 versions of the benchmark's workloads, so
// the test runs in about a second.
//
//   python3 perfbench/run.py --selftest
//
// Exit code 0 when every expectation holds, 1 otherwise.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/labeling_order.h"
#include "core/labeling_session.h"
#include "datagen/streaming_generator.h"
#include "serve/resolution_service.h"
#include "simjoin/candidate_generator.h"
#include "workloads.h"

namespace {

using namespace crowdjoin;
using perfbench::Checker;

int g_failures = 0;

// Runs `check` on a fresh Checker and expects it to pass (`want_pass`) or
// to record at least one failure.
template <typename Check>
void Expect(const char* name, bool want_pass, Check check) {
  Checker checker;
  check(checker);
  const bool passed = checker.ok();
  std::printf("%-58s %s\n", name,
              passed == want_pass ? "ok" : "UNEXPECTED");
  if (passed != want_pass) {
    ++g_failures;
    for (const std::string& failure : checker.failures()) {
      std::printf("    %s\n", failure.c_str());
    }
  }
}

Label Flip(Label label) {
  return label == Label::kMatching ? Label::kNonMatching : Label::kMatching;
}

struct Labeled {
  CandidateSet candidates;
  std::vector<int32_t> entity_of;
  LabelingReport report;
};

// One candidate set of the label_rounds_sf1 pipeline (seed 42, no faults).
Labeled LabelSf1() {
  PaperDatasetConfig paper;
  paper.seed = 42;
  StreamingPaperSource source(paper, 1);
  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.3;
  options.min_likelihood = 0.3;
  options.likelihood_noise_stddev = 0.12;
  options.noise_seed = 42 ^ 0x9E3779B9u;
  Labeled labeled;
  labeled.candidates = perfbench::Unwrap(
      GenerateCandidatesStreaming(source, nullptr, options, {},
                                  &labeled.entity_of),
      "candidates");
  const std::vector<int32_t> order = perfbench::Unwrap(
      MakeLabelingOrder(labeled.candidates, OrderKind::kExpected, nullptr,
                        nullptr),
      "order");
  LabelingSessionOptions session_options;
  session_options.schedule = SchedulePolicy::kRoundParallel;
  LabelingSession session(session_options);
  GroundTruthOracle oracle(labeled.entity_of);
  labeled.report = perfbench::Unwrap(
      session.Run(labeled.candidates, order, oracle), "labeling");
  return labeled;
}

void LabelingChecks() {
  const Labeled base = LabelSf1();
  const GroundTruthOracle truth(base.entity_of);

  LabelingReport flipped = base.report;
  for (auto& outcome : flipped.outcomes) {
    if (outcome->source == LabelSource::kDeduced) {
      outcome->label = Flip(outcome->label);
      break;
    }
  }
  LabelingReport miscounted = base.report;
  ++miscounted.num_candidates;

  Expect("labels match truth: real report", true, [&](Checker& c) {
    perfbench::CheckLabelsMatchTruth(c, "real", base.report, base.candidates,
                                     truth);
  });
  Expect("labels match truth: one flipped label", false, [&](Checker& c) {
    perfbench::CheckLabelsMatchTruth(c, "flipped", flipped, base.candidates,
                                     truth);
  });
  Expect("labels match truth: one candidate missing", false, [&](Checker& c) {
    CandidateSet fewer = base.candidates;
    fewer.pop_back();
    perfbench::CheckLabelsMatchTruth(c, "short", base.report, fewer, truth);
  });
  Expect("report complete: real report", true, [&](Checker& c) {
    perfbench::CheckReportComplete(c, "real", base.report);
  });
  Expect("report complete: candidate count off by one", false,
         [&](Checker& c) {
           perfbench::CheckReportComplete(c, "miscounted", miscounted);
         });
  Expect("report complete: per-iteration batch off by one", false,
         [&](Checker& c) {
           LabelingReport batches = base.report;
           ++batches.crowdsourced_per_iteration.back();
           perfbench::CheckReportComplete(c, "batches", batches);
         });
  Expect("reports identical: same report", true, [&](Checker& c) {
    perfbench::CheckReportsIdentical(c, "same", base.report, base.report);
  });
  Expect("reports identical: one flipped label", false, [&](Checker& c) {
    perfbench::CheckReportsIdentical(c, "flipped", flipped, base.report);
  });
  Expect("reports identical: candidate count off by one", false,
         [&](Checker& c) {
           perfbench::CheckReportsIdentical(c, "miscounted", miscounted,
                                            base.report);
         });
  const auto candidates = static_cast<int64_t>(base.candidates.size());
  Expect("seed-42 pin: exact count", true, [&](Checker& c) {
    perfbench::CheckPin(c, perfbench::RunConfig{}, "candidates",
                        base.report.num_candidates, candidates);
  });
  Expect("seed-42 pin: count off by one", false, [&](Checker& c) {
    perfbench::CheckPin(c, perfbench::RunConfig{}, "candidates",
                        base.report.num_candidates + 1, candidates);
  });
  Expect("graph replay: real report", true, [&](Checker& c) {
    const std::vector<int32_t> order = perfbench::Unwrap(
        MakeLabelingOrder(base.candidates, OrderKind::kExpected, nullptr,
                          nullptr),
        "order");
    const perfbench::GraphReplay replay =
        perfbench::ReplayOnGraph({base.candidates}, {order}, {0}, base.report);
    c.ExpectEqual("wrong deductions", replay.wrong_deductions, 0);
  });
  Expect("graph replay: one flipped deduced label", false, [&](Checker& c) {
    const std::vector<int32_t> order = perfbench::Unwrap(
        MakeLabelingOrder(base.candidates, OrderKind::kExpected, nullptr,
                          nullptr),
        "order");
    const perfbench::GraphReplay replay =
        perfbench::ReplayOnGraph({base.candidates}, {order}, {0}, flipped);
    c.ExpectEqual("wrong deductions", replay.wrong_deductions, 0);
  });
}

// The serve_mixed_sf10 writer at SF 1; `flip_at` mislabels that many-th
// crowd answer (-1 = none).
struct Served {
  std::vector<std::string> texts;
  std::vector<int32_t> entities;
  std::vector<std::pair<ObjectId, ObjectId>> pairs;
};

Served Serve(ResolutionService& service, int64_t flip_at) {
  Served served;
  PaperDatasetConfig paper;
  paper.seed = 42;
  StreamingPaperSource source(paper, 1);
  StreamedRecord streamed;
  while (source.Next(&streamed)) {
    served.texts.push_back(perfbench::RecordText(streamed.record));
    served.entities.push_back(streamed.entity);
  }
  int64_t answers = 0;
  for (const std::string& text : served.texts) {
    const IngestResult result = service.Ingest(text);
    for (const ServeCandidate& c : result.candidates) {
      served.pairs.emplace_back(result.id, c.id);
      if (service.DeducePair(result.id, c.id) != Deduction::kUndeduced) {
        continue;
      }
      Label label = served.entities[static_cast<size_t>(result.id)] ==
                            served.entities[static_cast<size_t>(c.id)]
                        ? Label::kMatching
                        : Label::kNonMatching;
      if (answers++ == flip_at) label = Flip(label);
      service.OnPairLabeled(result.id, c.id, label);
    }
  }
  return served;
}

void ServingChecks() {
  ResolutionService service;
  const Served served = Serve(service, -1);
  ResolutionService mislabeled_service;
  const Served mislabeled = Serve(mislabeled_service, 10);

  Expect("served labels: real service", true, [&](Checker& c) {
    perfbench::CheckServedLabels(c, "real", service, served.pairs,
                                 served.entities);
  });
  Expect("served labels: one flipped crowd answer", false, [&](Checker& c) {
    perfbench::CheckServedLabels(c, "flipped", mislabeled_service,
                                 mislabeled.pairs, mislabeled.entities);
  });

  const perfbench::BruteForceIndex brute(served.texts);
  const ResolutionServiceOptions defaults;
  // A query with several candidates, so perturbing one entry is visible.
  size_t query = 0;
  for (size_t i = 0; i < served.texts.size(); ++i) {
    if (service.QueryCandidates(served.texts[i]).size() >= 3) {
      query = i;
      break;
    }
  }
  const std::vector<ServeCandidate> got =
      service.QueryCandidates(served.texts[query]);
  const std::vector<perfbench::ExactMatch> want =
      brute.TopK(served.texts[query], defaults.threshold, defaults.top_k);
  Expect("top-k: served equals brute force", true, [&](Checker& c) {
    perfbench::CheckTopKMatches(c, "real", got, want);
  });
  Expect("top-k: one candidate dropped", false, [&](Checker& c) {
    std::vector<ServeCandidate> fewer = got;
    fewer.pop_back();
    perfbench::CheckTopKMatches(c, "dropped", fewer, want);
  });
  Expect("top-k: one id off by one", false, [&](Checker& c) {
    std::vector<ServeCandidate> moved = got;
    ++moved.back().id;
    perfbench::CheckTopKMatches(c, "moved", moved, want);
  });
  Expect("top-k: one overlap off by one", false, [&](Checker& c) {
    std::vector<perfbench::ExactMatch> off = want;
    --off.back().overlap;
    perfbench::CheckTopKMatches(c, "overlap", got, off);
  });
}

}  // namespace

int main() {
  LabelingChecks();
  ServingChecks();
  std::printf("%s\n", g_failures == 0 ? "all checks behave as expected"
                                      : "some checks did not behave");
  return g_failures == 0 ? 0 : 1;
}
