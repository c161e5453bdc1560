#include "core/labeling_order.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace crowdjoin {

std::string_view OrderKindToString(OrderKind kind) {
  switch (kind) {
    case OrderKind::kOptimal:
      return "Optimal Order";
    case OrderKind::kExpected:
      return "Expected Order";
    case OrderKind::kRandom:
      return "Random Order";
    case OrderKind::kWorst:
      return "Worst Order";
  }
  return "?";
}

namespace {

// The sort key of decreasing likelihood: ascending keys list likelihoods
// from largest to smallest. IEEE-754 bits map to an order-preserving
// unsigned value (flip every bit of a negative, the sign bit of the rest),
// complemented for the descending direction. -0.0 takes +0.0's key, as the
// two compare equal, and every NaN takes the largest key, past -inf.
uint64_t DescendingLikelihoodKey(double likelihood) {
  if (std::isnan(likelihood)) return std::numeric_limits<uint64_t>::max();
  if (likelihood == 0.0) likelihood = 0.0;
  const auto bits = std::bit_cast<uint64_t>(likelihood);
  const uint64_t ascending = (bits >> 63) != 0 ? ~bits : bits | (1ull << 63);
  return ~ascending;
}

// Positions [0, keys.size()) stably sorted by ascending key: a least-
// significant-digit radix sort over 8-bit digits that carries positions
// along with the keys. One counting pass histograms every digit; a digit on
// which all keys agree would be an identity pass and is skipped (the high
// exponent bytes of likelihoods in [0, 1] mostly are).
std::vector<int32_t> RadixSortPositions(std::vector<uint64_t> keys) {
  constexpr int kDigitBits = 8;
  constexpr int kDigits = 64 / kDigitBits;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  const size_t n = keys.size();
  std::vector<int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (n < 2) return order;

  std::vector<std::array<size_t, kBuckets>> counts(kDigits);
  for (const uint64_t key : keys) {
    for (int d = 0; d < kDigits; ++d) {
      ++counts[static_cast<size_t>(d)][(key >> (d * kDigitBits)) &
                                       (kBuckets - 1)];
    }
  }
  std::vector<uint64_t> next_keys(n);
  std::vector<int32_t> next_order(n);
  for (int d = 0; d < kDigits; ++d) {
    const int shift = d * kDigitBits;
    std::array<size_t, kBuckets>& count = counts[static_cast<size_t>(d)];
    if (count[(keys[0] >> shift) & (kBuckets - 1)] == n) continue;
    size_t offset = 0;
    for (size_t& c : count) offset += std::exchange(c, offset);
    for (size_t i = 0; i < n; ++i) {
      const size_t dst = count[(keys[i] >> shift) & (kBuckets - 1)]++;
      next_keys[dst] = keys[i];
      next_order[dst] = order[i];
    }
    keys.swap(next_keys);
    order.swap(next_order);
  }
  return order;
}

}  // namespace

Result<std::vector<int32_t>> MakeLabelingOrder(const CandidateSet& pairs,
                                               OrderKind kind,
                                               const GroundTruthOracle* truth,
                                               Rng* rng) {
  if (kind == OrderKind::kRandom) {
    if (rng == nullptr) {
      return Status::InvalidArgument("random order requires an Rng");
    }
    std::vector<int32_t> order(pairs.size());
    std::iota(order.begin(), order.end(), 0);
    rng->Shuffle(order);
    return order;
  }
  const bool by_truth =
      kind == OrderKind::kOptimal || kind == OrderKind::kWorst;
  if (!by_truth && kind != OrderKind::kExpected) {
    return Status::InvalidArgument("unknown order kind");
  }
  if (by_truth && truth == nullptr) {
    return Status::InvalidArgument("optimal/worst orders require ground truth");
  }

  // Decreasing likelihood, ties by position (the sort is stable).
  std::vector<uint64_t> keys(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    keys[i] = DescendingLikelihoodKey(pairs[i].likelihood);
  }
  std::vector<int32_t> order = RadixSortPositions(std::move(keys));
  if (by_truth) {
    // The truth group leads; the stable partition keeps the likelihood
    // order inside each group.
    const Label first_group =
        kind == OrderKind::kOptimal ? Label::kMatching : Label::kNonMatching;
    std::stable_partition(order.begin(), order.end(), [&](int32_t pos) {
      const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
      return truth->Truth(pair.a, pair.b) == first_group;
    });
  }
  return order;
}

}  // namespace crowdjoin
