// The one-to-one relation the paper's Section 8 names as future work: the
// session's sequential schedule with the rule chain [transitive,
// one-to-one]. (The suite keeps its historical name so its test IDs stay
// stable.)

#include <gtest/gtest.h>

#include <memory>

#include "core/labeling_session.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::IdentityOrder;

// The sequential schedule with the rule chain [transitive, one-to-one].
Result<LabelingReport> RunOneToOne(const CandidateSet& pairs,
                                   const std::vector<int32_t>& order,
                                   LabelOracle& oracle) {
  LabelingSession session;
  session.AddRule(std::make_unique<TransitiveDeductionRule>())
      .AddRule(std::make_unique<OneToOneDeductionRule>());
  return session.Run(pairs, order, oracle);
}

TEST(OneToOneLabeler, MatchExcludesOtherPartners) {
  // Bipartite: left {0,1}, right {2,3}; truth pairs 0-2 and 1-3.
  const CandidateSet pairs = {
      {0, 2, 0.9},  // true match, crowdsourced
      {0, 3, 0.8},  // one-to-one deduces non-matching (0 already matched)
      {1, 2, 0.7},  // one-to-one deduces non-matching (2 already matched)
      {1, 3, 0.6},  // must still be crowdsourced
  };
  GroundTruthOracle oracle({0, 1, 0, 1});
  const LabelingReport result =
      RunOneToOne(pairs, IdentityOrder(pairs.size()), oracle).value();
  EXPECT_EQ(result.num_crowdsourced, 2);
  EXPECT_EQ(result.num_one_to_one_deduced, 2);
  EXPECT_EQ(result.num_exclusivity_violations, 0);
  EXPECT_EQ(result.outcomes[1]->label, Label::kNonMatching);
  EXPECT_EQ(result.outcomes[1]->source, LabelSource::kDeduced);
  EXPECT_EQ(result.outcomes[3]->label, Label::kMatching);
  EXPECT_EQ(result.outcomes[3]->source, LabelSource::kCrowdsourced);
}

TEST(OneToOneLabeler, TransitiveDeductionTakesPrecedence) {
  // Left {0,1}, right {2,3}; truth: 0<->2 match, 1 and 3 are singletons.
  // (2,3) is decidable by *both* rules once (0,3)=N and (0,2)=M are known;
  // the chain must attribute it to transitivity, not one-to-one.
  const CandidateSet pairs = {{0, 3, 0.9}, {0, 2, 0.8}, {2, 3, 0.7}};
  GroundTruthOracle oracle({0, 1, 0, 2});
  const LabelingReport result =
      RunOneToOne(pairs, IdentityOrder(pairs.size()), oracle).value();
  EXPECT_EQ(result.num_crowdsourced, 2);
  EXPECT_EQ(result.num_deduced, 1);
  EXPECT_EQ(result.num_one_to_one_deduced, 0);
  EXPECT_EQ(result.outcomes[2]->label, Label::kNonMatching);
  EXPECT_EQ(result.outcomes[2]->source, LabelSource::kDeduced);
}

TEST(OneToOneLabeler, OneToOneEdgesFeedTransitivity) {
  // 0 matches 1; one-to-one rules out (0,2); transitivity must then deduce
  // (1,2) as non-matching without crowdsourcing it.
  const CandidateSet pairs = {{0, 1, 0.9}, {0, 2, 0.8}, {1, 2, 0.7}};
  GroundTruthOracle oracle({0, 0, 1});
  const LabelingReport result =
      RunOneToOne(pairs, IdentityOrder(pairs.size()), oracle).value();
  EXPECT_EQ(result.num_crowdsourced, 1);
  EXPECT_EQ(result.num_one_to_one_deduced, 1);
  EXPECT_EQ(result.outcomes[2]->label, Label::kNonMatching);
  EXPECT_EQ(result.outcomes[2]->source, LabelSource::kDeduced);
}

TEST(OneToOneLabeler, SavesAtLeastAsMuchAsPlainSequentialOnOneToOneData) {
  // Strictly 1-1 ground truth: entities {0,5},{1,6},{2,7},{3,8},{4,9}.
  std::vector<int32_t> entity = {0, 1, 2, 3, 4, 0, 1, 2, 3, 4};
  CandidateSet pairs;
  for (ObjectId a = 0; a < 5; ++a) {
    for (ObjectId b = 5; b < 10; ++b) {
      pairs.push_back({a, b, entity[static_cast<size_t>(a)] ==
                                     entity[static_cast<size_t>(b)]
                                 ? 0.9
                                 : 0.4});
    }
  }
  GroundTruthOracle truth(entity);
  GroundTruthOracle oracle1 = truth;
  LabelingSession plain_session;  // transitive rule only
  const LabelingReport plain =
      plain_session.Run(pairs, IdentityOrder(pairs.size()), oracle1).value();
  GroundTruthOracle oracle2 = truth;
  const LabelingReport one_to_one =
      RunOneToOne(pairs, IdentityOrder(pairs.size()), oracle2).value();
  EXPECT_LT(one_to_one.num_crowdsourced, plain.num_crowdsourced);
  // All labels still correct.
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(one_to_one.outcomes[i].has_value());
    EXPECT_EQ(one_to_one.outcomes[i]->label,
              truth.Truth(pairs[i].a, pairs[i].b));
  }
}

TEST(OneToOneLabeler, ViolationDetectedOnNonOneToOneData) {
  // Truth has a 3-cluster {0,1,2}: after 0-1 matches, the crowd answer for
  // (1,2)... (0,2) is ruled out by exclusivity -> a false non-matching.
  const CandidateSet pairs = {{0, 1, 0.9}, {0, 2, 0.8}};
  GroundTruthOracle oracle({0, 0, 0});
  const LabelingReport result =
      RunOneToOne(pairs, IdentityOrder(pairs.size()), oracle).value();
  // The second pair is (wrongly) deduced non-matching: the price of
  // assuming one-to-one on non-one-to-one data.
  EXPECT_EQ(result.outcomes[1]->label, Label::kNonMatching);
  EXPECT_EQ(result.num_one_to_one_deduced, 1);
}

TEST(OneToOneLabeler, RejectsInvalidOrder) {
  const CandidateSet pairs = {{0, 1, 0.5}};
  GroundTruthOracle oracle({0, 0});
  EXPECT_EQ(RunOneToOne(pairs, {7}, oracle).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace crowdjoin
