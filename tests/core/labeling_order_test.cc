#include "core/labeling_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::Figure3Truth;

bool IsPermutation(const std::vector<int32_t>& order, size_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (int32_t pos : order) {
    if (pos < 0 || static_cast<size_t>(pos) >= n) return false;
    if (seen[static_cast<size_t>(pos)]) return false;
    seen[static_cast<size_t>(pos)] = true;
  }
  return true;
}

TEST(LabelingOrder, ExpectedOrderSortsByLikelihoodDescending) {
  const CandidateSet pairs = {{0, 1, 0.3}, {1, 2, 0.9}, {2, 3, 0.6}};
  const std::vector<int32_t> order =
      MakeLabelingOrder(pairs, OrderKind::kExpected, nullptr, nullptr)
          .value();
  EXPECT_EQ(order, (std::vector<int32_t>{1, 2, 0}));
}

TEST(LabelingOrder, ExpectedOrderTieBreaksByPosition) {
  const CandidateSet pairs = {{0, 1, 0.5}, {1, 2, 0.5}, {2, 3, 0.5}};
  const std::vector<int32_t> order =
      MakeLabelingOrder(pairs, OrderKind::kExpected, nullptr, nullptr)
          .value();
  EXPECT_EQ(order, (std::vector<int32_t>{0, 1, 2}));
  // -0.0 and +0.0 are one likelihood.
  const CandidateSet zeros = {{0, 1, 0.0}, {1, 2, -0.0}, {2, 3, 0.0},
                              {3, 4, -0.0}};
  EXPECT_EQ(MakeLabelingOrder(zeros, OrderKind::kExpected, nullptr, nullptr)
                .value(),
            (std::vector<int32_t>{0, 1, 2, 3}));
}

TEST(LabelingOrder, OptimalPutsMatchingFirst) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  const std::vector<int32_t> order =
      MakeLabelingOrder(pairs, OrderKind::kOptimal, &truth, nullptr).value();
  ASSERT_TRUE(IsPermutation(order, pairs.size()));
  bool seen_non_matching = false;
  for (int32_t pos : order) {
    const auto& pair = pairs[static_cast<size_t>(pos)];
    const bool matching = truth.Truth(pair.a, pair.b) == Label::kMatching;
    if (!matching) seen_non_matching = true;
    EXPECT_FALSE(matching && seen_non_matching)
        << "matching pair after a non-matching pair at position " << pos;
  }
}

TEST(LabelingOrder, WorstPutsNonMatchingFirst) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  const std::vector<int32_t> order =
      MakeLabelingOrder(pairs, OrderKind::kWorst, &truth, nullptr).value();
  ASSERT_TRUE(IsPermutation(order, pairs.size()));
  bool seen_matching = false;
  for (int32_t pos : order) {
    const auto& pair = pairs[static_cast<size_t>(pos)];
    const bool matching = truth.Truth(pair.a, pair.b) == Label::kMatching;
    if (matching) seen_matching = true;
    EXPECT_FALSE(!matching && seen_matching);
  }
}

TEST(LabelingOrder, RandomOrderIsDeterministicPerSeed) {
  const CandidateSet pairs = Figure3Pairs();
  Rng rng1(99);
  Rng rng2(99);
  Rng rng3(100);
  const auto order1 =
      MakeLabelingOrder(pairs, OrderKind::kRandom, nullptr, &rng1).value();
  const auto order2 =
      MakeLabelingOrder(pairs, OrderKind::kRandom, nullptr, &rng2).value();
  const auto order3 =
      MakeLabelingOrder(pairs, OrderKind::kRandom, nullptr, &rng3).value();
  EXPECT_EQ(order1, order2);
  EXPECT_TRUE(IsPermutation(order1, pairs.size()));
  EXPECT_TRUE(IsPermutation(order3, pairs.size()));
  EXPECT_NE(order1, order3);  // overwhelmingly likely for 8! permutations
}

TEST(LabelingOrder, MissingInputsAreErrors) {
  const CandidateSet pairs = Figure3Pairs();
  EXPECT_EQ(MakeLabelingOrder(pairs, OrderKind::kOptimal, nullptr, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeLabelingOrder(pairs, OrderKind::kWorst, nullptr, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeLabelingOrder(pairs, OrderKind::kRandom, nullptr, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(LabelingOrder, EmptyCandidateSet) {
  const auto order =
      MakeLabelingOrder({}, OrderKind::kExpected, nullptr, nullptr).value();
  EXPECT_TRUE(order.empty());
}

// --- The radix-sorted order against a comparison sort ---------------------

// The order as first written: a comparison sort by truth group (optimal /
// worst), then decreasing likelihood, then position. `std::stable_sort`
// keeps equal elements in position order, so the position tie-break also
// holds where the comparator alone leaves two pairs unordered. NaN, which
// no comparator ranks, goes after every other pair of its group.
std::vector<int32_t> ReferenceOrder(const CandidateSet& pairs, OrderKind kind,
                                    const GroundTruthOracle* truth) {
  std::vector<int32_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);
  const auto group = [&](int32_t pos) {
    if (kind == OrderKind::kExpected) return 0;
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    const Label first = kind == OrderKind::kOptimal ? Label::kMatching
                                                    : Label::kNonMatching;
    return truth->Truth(pair.a, pair.b) == first ? 0 : 1;
  };
  std::stable_sort(order.begin(), order.end(), [&](int32_t x, int32_t y) {
    if (group(x) != group(y)) return group(x) < group(y);
    const double lx = pairs[static_cast<size_t>(x)].likelihood;
    const double ly = pairs[static_cast<size_t>(y)].likelihood;
    if (std::isnan(lx) || std::isnan(ly)) {
      return !std::isnan(lx) && std::isnan(ly);
    }
    if (lx != ly) return lx > ly;
    return x < y;
  });
  return order;
}

// Likelihoods drawn mostly from a small pool of awkward values (heavy
// ties, both zeros, negatives, subnormals, infinities), the rest uniform.
CandidateSet RandomAwkwardPairs(Rng& rng, size_t n, int32_t num_objects,
                                bool with_nan) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double pool[] = {
      0.0,
      -0.0,
      0.5,
      0.5 + 1e-16,
      1.0,
      -0.25,
      -1.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      1e-310,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      kInf,
      -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  const size_t pool_size = std::size(pool) - (with_nan ? 0 : 2);
  CandidateSet pairs(n);
  for (CandidatePair& pair : pairs) {
    pair.a = static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects)));
    pair.b = static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects)));
    pair.likelihood = rng.Bernoulli(0.7) ? pool[rng.Index(pool_size)]
                                         : rng.UniformDouble(-2.0, 2.0);
  }
  return pairs;
}

void ExpectOrdersMatchReference(Rng& rng, bool with_nan) {
  for (int trial = 0; trial < 200; ++trial) {
    // Mostly small sets, some large enough to need every digit pass.
    const size_t n = trial % 20 == 0 ? 5000 : rng.Index(300);
    const int32_t num_objects = 2 + static_cast<int32_t>(rng.Index(30));
    const CandidateSet pairs =
        RandomAwkwardPairs(rng, n, num_objects, with_nan);
    std::vector<int32_t> entity_of(static_cast<size_t>(num_objects));
    for (int32_t& e : entity_of) e = static_cast<int32_t>(rng.Index(4));
    const GroundTruthOracle truth(entity_of);
    for (OrderKind kind :
         {OrderKind::kExpected, OrderKind::kOptimal, OrderKind::kWorst}) {
      EXPECT_EQ(MakeLabelingOrder(pairs, kind, &truth, nullptr).value(),
                ReferenceOrder(pairs, kind, &truth))
          << OrderKindToString(kind) << " n=" << n << " trial=" << trial;
    }
    // The random order ignores likelihoods: a seeded shuffle of positions.
    Rng shuffle(static_cast<uint64_t>(trial));
    Rng expected_shuffle(static_cast<uint64_t>(trial));
    std::vector<int32_t> expected(n);
    std::iota(expected.begin(), expected.end(), 0);
    expected_shuffle.Shuffle(expected);
    EXPECT_EQ(
        MakeLabelingOrder(pairs, OrderKind::kRandom, nullptr, &shuffle).value(),
        expected);
  }
}

TEST(LabelingOrder, EveryKindMatchesTheComparisonSort) {
  Rng rng(1613);
  ExpectOrdersMatchReference(rng, /*with_nan=*/false);
}

TEST(LabelingOrder, NanLikelihoodsGoLastByPosition) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const CandidateSet pairs = {{0, 1, kNan},
                              {1, 2, 0.2},
                              {2, 3, -kNan},
                              {3, 4, -std::numeric_limits<double>::infinity()},
                              {4, 5, 0.9},
                              {5, 6, kNan}};
  EXPECT_EQ(MakeLabelingOrder(pairs, OrderKind::kExpected, nullptr, nullptr)
                .value(),
            (std::vector<int32_t>{4, 1, 3, 0, 2, 5}));
  // Inside each truth group too: entities {0,1,2} and {3,4,5,6}.
  const GroundTruthOracle truth({0, 0, 0, 1, 1, 1, 1});
  EXPECT_EQ(
      MakeLabelingOrder(pairs, OrderKind::kOptimal, &truth, nullptr).value(),
      (std::vector<int32_t>{4, 1, 3, 0, 5, 2}));
  Rng rng(1614);
  ExpectOrdersMatchReference(rng, /*with_nan=*/true);
}

TEST(LabelingOrder, NamesAreStable) {
  EXPECT_EQ(OrderKindToString(OrderKind::kOptimal), "Optimal Order");
  EXPECT_EQ(OrderKindToString(OrderKind::kExpected), "Expected Order");
  EXPECT_EQ(OrderKindToString(OrderKind::kRandom), "Random Order");
  EXPECT_EQ(OrderKindToString(OrderKind::kWorst), "Worst Order");
}

}  // namespace
}  // namespace crowdjoin
