// The paper's Section 3.2 one-pair-at-a-time labeler: the session's
// sequential schedule with the default transitive rule and no budget.
// (The suite keeps its historical name so its test IDs stay stable.)

#include <gtest/gtest.h>

#include "core/labeling_order.h"
#include "core/labeling_session.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::Figure3Truth;
using testing_fixtures::IdentityOrder;
using testing_fixtures::MakeRandomInstance;

Result<LabelingReport> RunSequential(const CandidateSet& pairs,
                                     const std::vector<int32_t>& order,
                                     LabelOracle& oracle) {
  LabelingSession session;  // sequential, unbounded, transitive rule
  return session.Run(pairs, order, oracle);
}

TEST(SequentialLabeler, IntroExampleOrderMatters) {
  // Section 3.1: pairs (o1,o2)=M, (o2,o3)=N, (o1,o3)=N.
  const CandidateSet pairs = {{0, 1, 0.9}, {1, 2, 0.5}, {0, 2, 0.4}};
  GroundTruthOracle truth({0, 0, 1});

  // Order w = <(o1,o2),(o2,o3),(o1,o3)> crowdsources two pairs.
  GroundTruthOracle oracle1 = truth;
  const LabelingReport good = RunSequential(pairs, {0, 1, 2}, oracle1).value();
  EXPECT_EQ(good.num_crowdsourced, 2);
  EXPECT_EQ(good.num_deduced, 1);
  EXPECT_EQ(good.outcomes[2]->source, LabelSource::kDeduced);
  EXPECT_EQ(good.outcomes[2]->label, Label::kNonMatching);

  // Order w' = <(o2,o3),(o1,o3),(o1,o2)> crowdsources all three.
  GroundTruthOracle oracle2 = truth;
  const LabelingReport bad = RunSequential(pairs, {1, 2, 0}, oracle2).value();
  EXPECT_EQ(bad.num_crowdsourced, 3);
  EXPECT_EQ(bad.num_deduced, 0);
}

TEST(SequentialLabeler, Figure3OptimalOrderCrowdsourcesSix) {
  // Example 2: six is the optimal number of crowdsourced pairs.
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  const std::vector<int32_t> order =
      MakeLabelingOrder(pairs, OrderKind::kOptimal, &truth, nullptr).value();
  GroundTruthOracle oracle = truth;
  const LabelingReport result = RunSequential(pairs, order, oracle).value();
  EXPECT_EQ(result.num_crowdsourced, 6);
  EXPECT_EQ(result.num_deduced, 2);
}

TEST(SequentialLabeler, Figure3ExpectedOrderCrowdsourcesSix) {
  // The likelihood order p1..p8 also achieves six on this instance.
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  GroundTruthOracle oracle = truth;
  const LabelingReport result =
      RunSequential(pairs, IdentityOrder(pairs.size()), oracle).value();
  EXPECT_EQ(result.num_crowdsourced, 6);
  // p4 deduced matching from p1,p2; p8 deduced non-matching from p5,p6.
  EXPECT_EQ(result.outcomes[3]->source, LabelSource::kDeduced);
  EXPECT_EQ(result.outcomes[3]->label, Label::kMatching);
  EXPECT_EQ(result.outcomes[7]->source, LabelSource::kDeduced);
  EXPECT_EQ(result.outcomes[7]->label, Label::kNonMatching);
}

TEST(SequentialLabeler, AllLabelsAgreeWithTruth) {
  const auto instance = MakeRandomInstance(7, 30, 6, 120);
  GroundTruthOracle truth(instance.entity_of);
  GroundTruthOracle oracle = truth;
  const LabelingReport result =
      RunSequential(instance.pairs, IdentityOrder(instance.pairs.size()),
                    oracle)
          .value();
  for (size_t i = 0; i < instance.pairs.size(); ++i) {
    ASSERT_TRUE(result.outcomes[i].has_value()) << "pair " << i;
    EXPECT_EQ(result.outcomes[i]->label,
              truth.Truth(instance.pairs[i].a, instance.pairs[i].b))
        << "pair " << i;
  }
  EXPECT_EQ(result.num_crowdsourced + result.num_deduced,
            static_cast<int64_t>(instance.pairs.size()));
  EXPECT_EQ(result.num_conflicts, 0);
}

TEST(SequentialLabeler, OracleQueriedOncePerCrowdsourcedPair) {
  const auto instance = MakeRandomInstance(11, 20, 4, 60);
  GroundTruthOracle oracle(instance.entity_of);
  const LabelingReport result =
      RunSequential(instance.pairs, IdentityOrder(instance.pairs.size()),
                    oracle)
          .value();
  EXPECT_EQ(oracle.num_queries(), result.num_crowdsourced);
}

TEST(SequentialLabeler, EmptyInput) {
  GroundTruthOracle oracle({});
  const LabelingReport result = RunSequential({}, {}, oracle).value();
  EXPECT_EQ(result.num_crowdsourced, 0);
  EXPECT_EQ(result.num_deduced, 0);
  EXPECT_TRUE(result.outcomes.empty());
}

TEST(SequentialLabeler, RejectsNonPermutationOrders) {
  const CandidateSet pairs = {{0, 1, 0.5}, {1, 2, 0.5}};
  GroundTruthOracle oracle({0, 0, 0});
  EXPECT_EQ(RunSequential(pairs, {0}, oracle).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunSequential(pairs, {0, 0}, oracle).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunSequential(pairs, {0, 5}, oracle).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunSequential(pairs, {0, -1}, oracle).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SequentialLabeler, DuplicateCandidatePairSecondIsDeduced) {
  const CandidateSet pairs = {{0, 1, 0.9}, {0, 1, 0.8}};
  GroundTruthOracle oracle({0, 0});
  const LabelingReport result = RunSequential(pairs, {0, 1}, oracle).value();
  EXPECT_EQ(result.num_crowdsourced, 1);
  EXPECT_EQ(result.outcomes[1]->source, LabelSource::kDeduced);
  EXPECT_EQ(result.outcomes[1]->label, Label::kMatching);
}

// Worst order on a single k-clique of matching objects still needs k-1
// crowdsourced pairs; optimal achieves the same (all pairs matching).
TEST(SequentialLabeler, CliqueNeedsSpanningTreeOnly) {
  CandidateSet pairs;
  constexpr int32_t kK = 10;
  for (int32_t a = 0; a < kK; ++a) {
    for (int32_t b = a + 1; b < kK; ++b) pairs.push_back({a, b, 0.9});
  }
  GroundTruthOracle oracle(std::vector<int32_t>(kK, 0));
  const LabelingReport result =
      RunSequential(pairs, IdentityOrder(pairs.size()), oracle).value();
  EXPECT_EQ(result.num_crowdsourced, kK - 1);
  EXPECT_EQ(result.num_deduced,
            static_cast<int64_t>(pairs.size()) - (kK - 1));
}

}  // namespace
}  // namespace crowdjoin
