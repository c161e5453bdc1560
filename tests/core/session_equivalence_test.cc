// The session equivalence suite: LabelingSession must reproduce the five
// pre-session labeling engines **byte for byte** at every (schedule,
// deduction, stop) policy combination, thread count, order kind, and
// conflict policy.
//
// The references below are ports of the pre-session engine loops — the
// Section 3.2 sequential labeler, Algorithm 2's round-parallel labeler,
// the budget labeler, the Section 8 one-to-one labeler, and the Section
// 5.2 instant-decision engine — kept here as the frozen ground truth. Each
// fills only the `LabelingReport` fields its engine computed, and the
// comparisons cover exactly those fields. A sixth reference ports the
// round-parallel stream drive with a full rescan of the round per scan,
// which pins the session's settled-frontier scans on multi-iteration
// stream rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <tuple>

#include "core/labeling_order.h"
#include "core/labeling_session.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::IdentityOrder;
using testing_fixtures::MakeRandomInstance;
using testing_fixtures::RandomInstance;

// The fields the sequential, round-parallel, and instant references
// compute: outcomes, crowdsourced / deduced / conflict counts, and the
// per-iteration batch sizes.
auto LabelingFields(const LabelingReport& report) {
  return std::tie(report.outcomes, report.num_crowdsourced,
                  report.num_deduced, report.num_conflicts,
                  report.crowdsourced_per_iteration);
}

// --- Frozen reference implementations (pre-session engine loops) ---------

LabelingReport ReferenceSequential(const CandidateSet& pairs,
                                   const std::vector<int32_t>& order,
                                   LabelOracle& oracle,
                                   ConflictPolicy policy) {
  LabelingReport result;
  result.outcomes.resize(pairs.size());
  ClusterGraph graph(NumObjectsSpanned(pairs), policy);
  for (int32_t pos : order) {
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    const Deduction deduction = graph.Deduce(pair.a, pair.b);
    PairOutcome& outcome =
        result.outcomes[static_cast<size_t>(pos)].emplace();
    if (deduction == Deduction::kUndeduced) {
      outcome.label = oracle.GetLabel(pair.a, pair.b);
      outcome.source = LabelSource::kCrowdsourced;
      ++result.num_crowdsourced;
      result.crowdsourced_per_iteration.push_back(1);
      graph.Add(pair.a, pair.b, outcome.label);
    } else {
      outcome.label = DeductionToLabel(deduction);
      outcome.source = LabelSource::kDeduced;
      ++result.num_deduced;
    }
  }
  result.num_conflicts = graph.num_conflicts();
  return result;
}

LabelingReport ReferenceRoundParallel(const CandidateSet& pairs,
                                      const std::vector<int32_t>& order,
                                      LabelOracle& oracle,
                                      ConflictPolicy policy) {
  LabelingReport result;
  result.outcomes.resize(pairs.size());
  std::vector<std::optional<Label>> labels(pairs.size());
  size_t num_labeled = 0;
  while (num_labeled < pairs.size()) {
    const std::vector<int32_t> batch = ParallelCrowdsourcedPairs(
        pairs, order, labels, /*exclude_from_output=*/nullptr, policy);
    EXPECT_FALSE(batch.empty());
    if (batch.empty()) break;
    for (int32_t pos : batch) {
      const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
      const Label label = oracle.GetLabel(pair.a, pair.b);
      labels[static_cast<size_t>(pos)] = label;
      result.outcomes[static_cast<size_t>(pos)] =
          PairOutcome{label, LabelSource::kCrowdsourced};
      ++result.num_crowdsourced;
      ++num_labeled;
    }
    result.crowdsourced_per_iteration.push_back(
        static_cast<int64_t>(batch.size()));
    ClusterGraph graph(NumObjectsSpanned(pairs), policy);
    for (int32_t pos : order) {
      const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
      auto& label = labels[static_cast<size_t>(pos)];
      if (label.has_value()) {
        graph.Add(pair.a, pair.b, *label);
        continue;
      }
      const Deduction deduction = graph.Deduce(pair.a, pair.b);
      if (deduction != Deduction::kUndeduced) {
        label = DeductionToLabel(deduction);
        result.outcomes[static_cast<size_t>(pos)] =
            PairOutcome{*label, LabelSource::kDeduced};
        ++result.num_deduced;
        ++num_labeled;
      }
    }
    result.num_conflicts = graph.num_conflicts();
  }
  return result;
}

// Computes outcomes and the crowdsourced / deduced / unlabeled counts.
LabelingReport ReferenceBudget(const CandidateSet& pairs,
                               const std::vector<int32_t>& order,
                               int64_t budget, LabelOracle& oracle) {
  LabelingReport result;
  result.outcomes.resize(pairs.size());
  ClusterGraph graph(NumObjectsSpanned(pairs));
  for (int32_t pos : order) {
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    auto& outcome = result.outcomes[static_cast<size_t>(pos)];
    const Deduction deduction = graph.Deduce(pair.a, pair.b);
    if (deduction != Deduction::kUndeduced) {
      outcome = PairOutcome{DeductionToLabel(deduction),
                            LabelSource::kDeduced};
      ++result.num_deduced;
      continue;
    }
    if (result.num_crowdsourced >= budget) {
      ++result.num_unlabeled;
      continue;
    }
    const Label label = oracle.GetLabel(pair.a, pair.b);
    outcome = PairOutcome{label, LabelSource::kCrowdsourced};
    ++result.num_crowdsourced;
    graph.Add(pair.a, pair.b, label);
  }
  return result;
}

// Computes outcomes, the crowdsourced / deduced counts, the per-iteration
// batch sizes, and the two one-to-one rule counters.
LabelingReport ReferenceOneToOne(const CandidateSet& pairs,
                                 const std::vector<int32_t>& order,
                                 LabelOracle& oracle) {
  LabelingReport result;
  result.outcomes.resize(pairs.size());
  const int32_t num_objects = NumObjectsSpanned(pairs);
  ClusterGraph graph(num_objects);
  std::vector<bool> matched(static_cast<size_t>(num_objects), false);
  for (int32_t pos : order) {
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    PairOutcome& outcome =
        result.outcomes[static_cast<size_t>(pos)].emplace();
    const Deduction deduction = graph.Deduce(pair.a, pair.b);
    if (deduction != Deduction::kUndeduced) {
      outcome.label = DeductionToLabel(deduction);
      outcome.source = LabelSource::kDeduced;
      ++result.num_deduced;
      continue;
    }
    if (matched[static_cast<size_t>(pair.a)] ||
        matched[static_cast<size_t>(pair.b)]) {
      outcome.label = Label::kNonMatching;
      outcome.source = LabelSource::kDeduced;
      ++result.num_deduced;
      ++result.num_one_to_one_deduced;
      graph.Add(pair.a, pair.b, Label::kNonMatching);
      continue;
    }
    outcome.label = oracle.GetLabel(pair.a, pair.b);
    outcome.source = LabelSource::kCrowdsourced;
    ++result.num_crowdsourced;
    result.crowdsourced_per_iteration.push_back(1);
    graph.Add(pair.a, pair.b, outcome.label);
    if (outcome.label == Label::kMatching) {
      if (matched[static_cast<size_t>(pair.a)] ||
          matched[static_cast<size_t>(pair.b)]) {
        ++result.num_exclusivity_violations;
      }
      matched[static_cast<size_t>(pair.a)] = true;
      matched[static_cast<size_t>(pair.b)] = true;
    }
  }
  return result;
}

// The instant-decision engine, driven synchronously FIFO (the
// publication order RunNonParallelAmt bills for).
LabelingReport ReferenceInstantFifo(const CandidateSet& pairs,
                                    const std::vector<int32_t>& order,
                                    LabelOracle& oracle,
                                    ConflictPolicy policy) {
  std::vector<std::optional<Label>> labels(pairs.size());
  std::vector<bool> published(pairs.size(), false);
  int64_t num_crowdsourced = 0;
  const auto scan = [&]() {
    std::vector<int32_t> fresh = ParallelCrowdsourcedPairs(
        pairs, order, labels, &published, policy);
    for (int32_t pos : fresh) published[static_cast<size_t>(pos)] = true;
    return fresh;
  };
  std::deque<int32_t> pending;
  {
    const std::vector<int32_t> initial = scan();
    pending.insert(pending.end(), initial.begin(), initial.end());
  }
  while (!pending.empty()) {
    const int32_t pos = pending.front();
    pending.pop_front();
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    const Label label = oracle.GetLabel(pair.a, pair.b);
    labels[static_cast<size_t>(pos)] = label;
    ++num_crowdsourced;
    if (label != Label::kMatching) {
      const std::vector<int32_t> fresh = scan();
      pending.insert(pending.end(), fresh.begin(), fresh.end());
    }
  }
  LabelingReport result;
  result.outcomes.resize(pairs.size());
  result.num_crowdsourced = num_crowdsourced;
  ClusterGraph graph(NumObjectsSpanned(pairs), policy);
  for (int32_t pos : order) {
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    auto& label = labels[static_cast<size_t>(pos)];
    auto& outcome = result.outcomes[static_cast<size_t>(pos)];
    if (label.has_value()) {
      outcome = PairOutcome{*label, LabelSource::kCrowdsourced};
      graph.Add(pair.a, pair.b, *label);
      continue;
    }
    const Deduction deduction = graph.Deduce(pair.a, pair.b);
    EXPECT_NE(deduction, Deduction::kUndeduced);
    label = DeductionToLabel(deduction);
    outcome = PairOutcome{*label, LabelSource::kDeduced};
    ++result.num_deduced;
  }
  result.num_conflicts = graph.num_conflicts();
  return result;
}

// The expected order as first written: a stable sort by decreasing
// likelihood, ties by position.
std::vector<int32_t> ReferenceExpectedOrder(const CandidateSet& pairs) {
  std::vector<int32_t> order = IdentityOrder(pairs.size());
  std::stable_sort(order.begin(), order.end(), [&](int32_t x, int32_t y) {
    const double lx = pairs[static_cast<size_t>(x)].likelihood;
    const double ly = pairs[static_cast<size_t>(y)].likelihood;
    if (lx != ly) return lx > ly;
    return x < y;
  });
  return order;
}

// The round-parallel stream drive with full rescans: `pairs` arrives in
// rounds of `round_size` (0 = one round), each round is ordered by
// likelihood and labeled by Algorithm 2 with every scan replaying the
// whole round over a copy of the persistent graph, and the round's crowd
// answers are folded into that graph afterwards. A negative `budget` is
// unbounded. Fills every report field; `max_iterations` receives the most
// Algorithm-2 iterations any round took.
LabelingReport ReferenceRoundParallelStream(const CandidateSet& pairs,
                                            size_t round_size,
                                            LabelOracle& oracle,
                                            ConflictPolicy policy,
                                            int64_t budget,
                                            int* max_iterations) {
  LabelingReport report;
  ClusterGraph persistent(0, policy);
  *max_iterations = 0;
  const size_t step = round_size == 0 ? pairs.size() : round_size;
  for (size_t start = 0; start < pairs.size(); start += step) {
    const CandidateSet round(
        pairs.begin() + static_cast<std::ptrdiff_t>(start),
        pairs.begin() +
            static_cast<std::ptrdiff_t>(std::min(start + step, pairs.size())));
    const size_t n = round.size();
    ++report.num_stream_rounds;
    persistent.EnsureObjects(NumObjectsSpanned(round));
    const std::vector<int32_t> order = ReferenceExpectedOrder(round);
    const size_t offset = report.outcomes.size();
    report.outcomes.resize(offset + n);
    report.num_candidates += static_cast<int64_t>(n);

    std::vector<std::optional<Label>> labels(n);
    size_t num_labeled = 0;
    int iterations = 0;
    while (num_labeled < n) {
      ++iterations;
      std::vector<int32_t> publish = ParallelCrowdsourcedPairs(
          round, order, labels, /*exclude_from_output=*/nullptr, policy,
          &persistent);
      if (budget >= 0 && static_cast<int64_t>(publish.size()) > budget) {
        publish.resize(static_cast<size_t>(budget));
      }
      for (int32_t pos : publish) {
        const CandidatePair& pair = round[static_cast<size_t>(pos)];
        const Label label = oracle.GetLabel(pair.a, pair.b);
        labels[static_cast<size_t>(pos)] = label;
        report.outcomes[offset + static_cast<size_t>(pos)] =
            PairOutcome{label, LabelSource::kCrowdsourced};
        ++report.num_crowdsourced;
        ++num_labeled;
      }
      if (!publish.empty()) {
        if (budget > 0) budget -= static_cast<int64_t>(publish.size());
        report.crowdsourced_per_iteration.push_back(
            static_cast<int64_t>(publish.size()));
      }
      size_t deduced = 0;
      ClusterGraph graph = persistent;
      for (int32_t pos : order) {
        const CandidatePair& pair = round[static_cast<size_t>(pos)];
        auto& label = labels[static_cast<size_t>(pos)];
        if (label.has_value()) {
          graph.Add(pair.a, pair.b, *label);
          continue;
        }
        const Deduction deduction = graph.Deduce(pair.a, pair.b);
        if (deduction != Deduction::kUndeduced) {
          label = DeductionToLabel(deduction);
          report.outcomes[offset + static_cast<size_t>(pos)] =
              PairOutcome{*label, LabelSource::kDeduced};
          ++report.num_deduced;
          ++num_labeled;
          ++deduced;
        }
      }
      if (publish.empty() && deduced == 0) break;  // budget exhausted
    }
    *max_iterations = std::max(*max_iterations, iterations);
    report.num_unlabeled += static_cast<int64_t>(n - num_labeled);
    for (int32_t pos : order) {
      const auto& outcome = report.outcomes[offset + static_cast<size_t>(pos)];
      if (outcome.has_value() &&
          outcome->source == LabelSource::kCrowdsourced) {
        const CandidatePair& pair = round[static_cast<size_t>(pos)];
        persistent.Add(pair.a, pair.b, outcome->label);
      }
    }
  }
  report.num_conflicts = persistent.num_conflicts();
  return report;
}

// --- The matrix -----------------------------------------------------------

struct OracleFactory {
  const GroundTruthOracle* truth;
  double error_rate;
  uint64_t seed;

  // Batch-safe fresh oracle per run: identical answer streams for the
  // session and the reference.
  std::unique_ptr<LabelOracle> Make() const {
    if (error_rate == 0.0) {
      return std::make_unique<GroundTruthOracle>(*truth);
    }
    return std::make_unique<HashNoisyOracle>(truth, error_rate, error_rate,
                                             seed);
  }
};

std::vector<std::vector<int32_t>> OrdersFor(const CandidateSet& pairs,
                                            const GroundTruthOracle& truth,
                                            uint64_t seed) {
  std::vector<std::vector<int32_t>> orders;
  orders.push_back(IdentityOrder(pairs.size()));
  for (OrderKind kind : {OrderKind::kOptimal, OrderKind::kExpected,
                         OrderKind::kRandom, OrderKind::kWorst}) {
    Rng rng(seed ^ 0xfeed);
    orders.push_back(MakeLabelingOrder(pairs, kind, &truth, &rng).value());
  }
  return orders;
}

class SessionEquivalence : public ::testing::Test {
 protected:
  // Figure 3 plus random instances of varied density and cluster shape.
  std::vector<RandomInstance> Instances() {
    std::vector<RandomInstance> instances;
    instances.push_back({Figure3Pairs(), {0, 0, 0, 1, 1, 2}});
    instances.push_back(MakeRandomInstance(101, 25, 5, 90));
    instances.push_back(MakeRandomInstance(102, 40, 12, 150));
    instances.push_back(MakeRandomInstance(103, 12, 2, 50));
    return instances;
  }
};

TEST_F(SessionEquivalence, SequentialScheduleMatchesReference) {
  for (const RandomInstance& instance : Instances()) {
    GroundTruthOracle truth(instance.entity_of);
    for (const auto& order : OrdersFor(instance.pairs, truth, 5)) {
      for (ConflictPolicy policy :
           {ConflictPolicy::kKeepFirst, ConflictPolicy::kTrustNew}) {
        for (double error_rate : {0.0, 0.25}) {
          const OracleFactory oracles{&truth, error_rate, 17};
          auto ref_oracle = oracles.Make();
          const LabelingReport expected = ReferenceSequential(
              instance.pairs, order, *ref_oracle, policy);

          LabelingSessionOptions options;
          options.conflict_policy = policy;
          LabelingSession session(options);
          auto oracle = oracles.Make();
          const LabelingReport actual =
              session.Run(instance.pairs, order, *oracle).value();
          ASSERT_TRUE(LabelingFields(actual) == LabelingFields(expected))
              << "policy=" << static_cast<int>(policy)
              << " error_rate=" << error_rate;
          EXPECT_EQ(oracle->num_queries(), ref_oracle->num_queries());
        }
      }
    }
  }
}

TEST_F(SessionEquivalence, RoundParallelScheduleMatchesReference) {
  for (const RandomInstance& instance : Instances()) {
    GroundTruthOracle truth(instance.entity_of);
    for (const auto& order : OrdersFor(instance.pairs, truth, 6)) {
      for (ConflictPolicy policy :
           {ConflictPolicy::kKeepFirst, ConflictPolicy::kTrustNew}) {
        for (double error_rate : {0.0, 0.25}) {
          const OracleFactory oracles{&truth, error_rate, 19};
          auto ref_oracle = oracles.Make();
          const LabelingReport expected = ReferenceRoundParallel(
              instance.pairs, order, *ref_oracle, policy);
          for (int threads : {1, 2, 4, 8}) {
            LabelingSessionOptions options;
            options.schedule = SchedulePolicy::kRoundParallel;
            options.conflict_policy = policy;
            options.num_threads = threads;
            LabelingSession session(options);
            auto oracle = oracles.Make();
            const LabelingReport actual =
                session.Run(instance.pairs, order, *oracle).value();
            ASSERT_TRUE(LabelingFields(actual) == LabelingFields(expected))
                << "threads=" << threads
                << " policy=" << static_cast<int>(policy)
                << " error_rate=" << error_rate;
          }
        }
      }
    }
  }
}

TEST_F(SessionEquivalence, BudgetStopMatchesReference) {
  for (const RandomInstance& instance : Instances()) {
    GroundTruthOracle truth(instance.entity_of);
    for (const auto& order : OrdersFor(instance.pairs, truth, 7)) {
      for (int64_t budget : {0, 1, 7, 40, 10000}) {
        const OracleFactory oracles{&truth, 0.0, 0};
        auto ref_oracle = oracles.Make();
        const LabelingReport expected =
            ReferenceBudget(instance.pairs, order, budget, *ref_oracle);

        LabelingSessionOptions options;
        options.stop = StopPolicy::Budget(budget);
        LabelingSession session(options);
        auto oracle = oracles.Make();
        const LabelingReport actual =
            session.Run(instance.pairs, order, *oracle).value();
        ASSERT_EQ(actual.outcomes, expected.outcomes) << "budget=" << budget;
        EXPECT_EQ(actual.num_crowdsourced, expected.num_crowdsourced);
        EXPECT_EQ(actual.num_deduced, expected.num_deduced);
        EXPECT_EQ(actual.num_unlabeled, expected.num_unlabeled);
        EXPECT_EQ(oracle->num_queries(), ref_oracle->num_queries());
      }
    }
  }
}

TEST_F(SessionEquivalence, OneToOneChainMatchesReference) {
  for (const RandomInstance& instance : Instances()) {
    GroundTruthOracle truth(instance.entity_of);
    for (const auto& order : OrdersFor(instance.pairs, truth, 8)) {
      for (double error_rate : {0.0, 0.25}) {
        const OracleFactory oracles{&truth, error_rate, 23};
        auto ref_oracle = oracles.Make();
        const LabelingReport expected =
            ReferenceOneToOne(instance.pairs, order, *ref_oracle);

        LabelingSession session;
        session.AddRule(std::make_unique<TransitiveDeductionRule>())
            .AddRule(std::make_unique<OneToOneDeductionRule>());
        auto oracle = oracles.Make();
        const LabelingReport actual =
            session.Run(instance.pairs, order, *oracle).value();
        ASSERT_TRUE(actual.outcomes == expected.outcomes);
        EXPECT_EQ(actual.num_crowdsourced, expected.num_crowdsourced);
        EXPECT_EQ(actual.num_deduced, expected.num_deduced);
        EXPECT_EQ(actual.crowdsourced_per_iteration,
                  expected.crowdsourced_per_iteration);
        EXPECT_EQ(actual.num_one_to_one_deduced,
                  expected.num_one_to_one_deduced);
        EXPECT_EQ(actual.num_exclusivity_violations,
                  expected.num_exclusivity_violations);
      }
    }
  }
}

TEST_F(SessionEquivalence, InstantScheduleMatchesReference) {
  for (const RandomInstance& instance : Instances()) {
    GroundTruthOracle truth(instance.entity_of);
    for (const auto& order : OrdersFor(instance.pairs, truth, 9)) {
      for (ConflictPolicy policy :
           {ConflictPolicy::kKeepFirst, ConflictPolicy::kTrustNew}) {
        for (double error_rate : {0.0, 0.25}) {
          const OracleFactory oracles{&truth, error_rate, 29};
          auto ref_oracle = oracles.Make();
          const LabelingReport expected = ReferenceInstantFifo(
              instance.pairs, order, *ref_oracle, policy);

          LabelingSessionOptions options;
          options.schedule = SchedulePolicy::kInstantDecision;
          options.conflict_policy = policy;
          LabelingSession session(options);
          auto oracle = oracles.Make();
          const LabelingReport actual =
              session.Run(instance.pairs, order, *oracle).value();
          ASSERT_TRUE(LabelingFields(actual) == LabelingFields(expected))
              << "policy=" << static_cast<int>(policy)
              << " error_rate=" << error_rate;
          EXPECT_EQ(oracle->num_queries(), ref_oracle->num_queries());
        }
      }
    }
  }
}

// Chunked streams whose rounds need several Algorithm-2 iterations: the
// session's settled-frontier scans (a copied overlay at the frontier, the
// unsettled suffix only) must reproduce full rescans byte for byte.
TEST_F(SessionEquivalence, RoundParallelStreamMatchesFullRescanReference) {
  int multi_iteration_runs = 0;
  for (const RandomInstance& instance : Instances()) {
    GroundTruthOracle truth(instance.entity_of);
    for (size_t round_size : {size_t{0}, size_t{13}, size_t{40}}) {
      for (ConflictPolicy policy :
           {ConflictPolicy::kKeepFirst, ConflictPolicy::kTrustNew}) {
        for (double error_rate : {0.0, 0.1, 0.25, 0.4}) {
          for (int64_t budget : {int64_t{-1}, int64_t{12}}) {
            const OracleFactory oracles{&truth, error_rate, 31};
            auto ref_oracle = oracles.Make();
            int max_iterations = 0;
            const LabelingReport expected = ReferenceRoundParallelStream(
                instance.pairs, round_size, *ref_oracle, policy, budget,
                &max_iterations);
            if (max_iterations >= 2) ++multi_iteration_runs;
            for (int threads : {1, 4}) {
              LabelingSessionOptions options =
                  testing_fixtures::SessionOptions(
                      SchedulePolicy::kRoundParallel, threads, policy);
              if (budget >= 0) options.stop = StopPolicy::Budget(budget);
              LabelingSession session(options);
              auto oracle = oracles.Make();
              MaterializedCandidateStream stream(&instance.pairs, round_size);
              const LabelingReport actual =
                  session.RunStream(stream, OrderKind::kExpected, *oracle)
                      .value();
              ASSERT_TRUE(actual == expected)
                  << "round_size=" << round_size
                  << " policy=" << static_cast<int>(policy)
                  << " error_rate=" << error_rate << " budget=" << budget
                  << " threads=" << threads;
              EXPECT_EQ(oracle->num_queries(), ref_oracle->num_queries());
            }
          }
        }
      }
    }
  }
  // The comparison is only meaningful if rounds really iterate.
  EXPECT_GT(multi_iteration_runs, 50);
}

}  // namespace
}  // namespace crowdjoin
