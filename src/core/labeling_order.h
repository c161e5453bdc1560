#ifndef CROWDJOIN_CORE_LABELING_ORDER_H_
#define CROWDJOIN_CORE_LABELING_ORDER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/candidate.h"
#include "core/oracle.h"

namespace crowdjoin {

/// \brief The labeling orders studied in Section 4 and compared in Fig. 12.
enum class OrderKind : uint8_t {
  /// All matching pairs before all non-matching pairs (Theorem 1). Needs
  /// ground truth, so it is an unachievable yardstick, not a real strategy.
  kOptimal = 0,
  /// Decreasing machine likelihood — the paper's heuristic for the
  /// (NP-hard) expected-optimal order problem (Section 4.2).
  kExpected = 1,
  /// Uniformly random permutation.
  kRandom = 2,
  /// All non-matching pairs before all matching pairs (adversarial bound).
  kWorst = 3,
};

/// Stable display name ("Optimal Order", ...) as used in Figure 12.
std::string_view OrderKindToString(OrderKind kind);

/// \brief Builds a labeling order: a permutation of positions into `pairs`.
///
/// `truth` is required for kOptimal / kWorst (they partition by the real
/// label); `rng` is required for kRandom. Ties inside a group are broken by
/// decreasing likelihood, then by position, so orders are deterministic.
/// -0.0 and +0.0 are one likelihood, and NaN likelihoods go after every
/// other pair of their group, by position.
///
/// Returns InvalidArgument when a required input is missing.
Result<std::vector<int32_t>> MakeLabelingOrder(const CandidateSet& pairs,
                                               OrderKind kind,
                                               const GroundTruthOracle* truth,
                                               Rng* rng);

}  // namespace crowdjoin

#endif  // CROWDJOIN_CORE_LABELING_ORDER_H_
