// The Whang et al. [27] budget setting combined with transitive deduction:
// the session's sequential schedule under `StopPolicy::Budget`. (The suite
// keeps its historical name so its test IDs stay stable.)

#include <gtest/gtest.h>

#include "core/labeling_session.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::Figure3Truth;
using testing_fixtures::IdentityOrder;

Result<LabelingReport> RunBudget(const CandidateSet& pairs,
                                 const std::vector<int32_t>& order,
                                 int64_t budget, LabelOracle& oracle) {
  LabelingSessionOptions options;  // sequential schedule
  options.stop = StopPolicy::Budget(budget);
  LabelingSession session(options);
  return session.Run(pairs, order, oracle);
}

TEST(BudgetLabeler, ZeroBudgetLabelsNothing) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle oracle = Figure3Truth();
  const LabelingReport result =
      RunBudget(pairs, IdentityOrder(pairs.size()), 0, oracle).value();
  EXPECT_EQ(result.num_crowdsourced, 0);
  EXPECT_EQ(result.num_deduced, 0);
  EXPECT_EQ(result.num_unlabeled, static_cast<int64_t>(pairs.size()));
  EXPECT_EQ(oracle.num_queries(), 0);
}

TEST(BudgetLabeler, LargeBudgetMatchesSequentialLabeler) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  GroundTruthOracle oracle1 = truth;
  const LabelingReport budgeted =
      RunBudget(pairs, IdentityOrder(pairs.size()), 1000, oracle1).value();
  GroundTruthOracle oracle2 = truth;
  LabelingSession unbounded;
  const LabelingReport full =
      unbounded.Run(pairs, IdentityOrder(pairs.size()), oracle2).value();
  EXPECT_EQ(budgeted.num_crowdsourced, full.num_crowdsourced);
  EXPECT_EQ(budgeted.num_deduced, full.num_deduced);
  EXPECT_EQ(budgeted.num_unlabeled, 0);
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(budgeted.outcomes[i].has_value());
    EXPECT_EQ(budgeted.outcomes[i]->label, full.outcomes[i]->label);
  }
}

TEST(BudgetLabeler, DeductionContinuesAfterExhaustion) {
  // Budget 2 covers p1, p2 in the Figure 3 order; p4 = (o1,o3) is later in
  // the order but still deducible from the two purchased labels.
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle oracle = Figure3Truth();
  const LabelingReport result =
      RunBudget(pairs, IdentityOrder(pairs.size()), 2, oracle).value();
  EXPECT_EQ(result.num_crowdsourced, 2);
  EXPECT_EQ(oracle.num_queries(), 2);
  ASSERT_TRUE(result.outcomes[3].has_value());  // p4 deduced
  EXPECT_EQ(result.outcomes[3]->label, Label::kMatching);
  EXPECT_EQ(result.outcomes[3]->source, LabelSource::kDeduced);
  EXPECT_FALSE(result.outcomes[6].has_value());  // p7 unreachable
  EXPECT_EQ(result.num_crowdsourced + result.num_deduced +
                result.num_unlabeled,
            static_cast<int64_t>(pairs.size()));
}

TEST(BudgetLabeler, MoreBudgetNeverLabelsFewerPairs) {
  const auto instance = testing_fixtures::MakeRandomInstance(55, 20, 4, 60);
  GroundTruthOracle truth(instance.entity_of);
  int64_t previous_labeled = -1;
  for (int64_t budget : {0, 5, 10, 20, 40, 60}) {
    GroundTruthOracle oracle = truth;
    const LabelingReport result =
        RunBudget(instance.pairs, IdentityOrder(instance.pairs.size()),
                  budget, oracle)
            .value();
    const int64_t labeled = result.num_crowdsourced + result.num_deduced;
    EXPECT_GE(labeled, previous_labeled) << "budget=" << budget;
    previous_labeled = labeled;
  }
}

TEST(BudgetLabeler, NegativeBudgetRejected) {
  // A negative budget is refused as a bound: it clamps to 0 rather than
  // reading as "unbounded", so the run buys no crowd answer at all.
  const StopPolicy stop = StopPolicy::Budget(-1);
  EXPECT_TRUE(stop.bounded());
  EXPECT_EQ(stop.budget, 0);
  const CandidateSet pairs = {{0, 1, 0.5}};
  GroundTruthOracle oracle({0, 0});
  const LabelingReport result = RunBudget(pairs, {0}, -1, oracle).value();
  EXPECT_EQ(result.num_crowdsourced, 0);
  EXPECT_EQ(result.num_unlabeled, 1);
  EXPECT_FALSE(result.outcomes[0].has_value());
  EXPECT_EQ(oracle.num_queries(), 0);
}

}  // namespace
}  // namespace crowdjoin
