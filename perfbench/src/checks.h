#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks of the benchmark. Every check here holds at every seed;
// the seed-42 pins are layered on top by the workloads. Each check records
// itself in a `Checker`, which the run turns into the `attempted` and
// `failed` fields of its result line.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate.h"
#include "core/labeling_result.h"
#include "core/oracle.h"
#include "serve/resolution_service.h"

namespace perfbench {

class Checker {
 public:
  /// Records one check; `what` describes it when it fails.
  bool Expect(bool ok, const std::string& what);
  bool ExpectEqual(const std::string& what, int64_t got, int64_t want);

  int64_t attempted() const { return attempted_; }
  const std::vector<std::string>& failures() const { return failures_; }
  bool ok() const { return failures_.empty(); }

 private:
  int64_t attempted_ = 0;
  std::vector<std::string> failures_;
};

/// The report accounts for every candidate: crowdsourced + deduced ==
/// candidates, nothing unlabeled, and the per-iteration batch sizes sum to
/// the crowdsourced count.
void CheckReportComplete(Checker& checker, const std::string& what,
                         const crowdjoin::LabelingReport& report);

/// Every final label equals ground truth. `pairs[i]` is the pair whose
/// outcome is `report.outcomes[i]` (for a streamed run: the rounds
/// concatenated in emission order).
void CheckLabelsMatchTruth(Checker& checker, const std::string& what,
                           const crowdjoin::LabelingReport& report,
                           const crowdjoin::CandidateSet& pairs,
                           const crowdjoin::GroundTruthOracle& truth);

/// Two runs of one workload produced the same report, field for field.
void CheckReportsIdentical(Checker& checker, const std::string& what,
                           const crowdjoin::LabelingReport& got,
                           const crowdjoin::LabelingReport& want);

/// Every (record, candidate) pair the service reported is decided at its
/// latest snapshot, with the ground-truth label (`entities[id]` equal means
/// matching).
void CheckServedLabels(
    Checker& checker, const std::string& what,
    const crowdjoin::ResolutionService& service,
    const std::vector<std::pair<crowdjoin::ObjectId, crowdjoin::ObjectId>>&
        pairs,
    const std::vector<int32_t>& entities);

/// One expected top-k entry of the brute-force reference.
struct ExactMatch {
  crowdjoin::ObjectId id = -1;
  int64_t overlap = 0;
  int64_t union_size = 0;
};

/// \brief Brute-force exact-Jaccard top-k over a corpus of texts, with the
/// service's contract: distinct word tokens, similarity >= threshold,
/// similarity descending and id ascending, at most `top_k` entries.
class BruteForceIndex {
 public:
  explicit BruteForceIndex(const std::vector<std::string>& texts);
  std::vector<ExactMatch> TopK(const std::string& query, double threshold,
                               int32_t top_k) const;

 private:
  std::vector<std::vector<std::string>> token_sets_;  // sorted, distinct
};

/// The service's answer lists the same records, in the same order, with
/// the exact similarities of the brute-force reference.
void CheckTopKMatches(Checker& checker, const std::string& what,
                      const std::vector<crowdjoin::ServeCandidate>& got,
                      const std::vector<ExactMatch>& want);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
