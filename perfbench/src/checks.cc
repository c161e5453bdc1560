#include "checks.h"

#include <algorithm>

#include "common/string_util.h"
#include "text/tokenize.h"

namespace perfbench {

using crowdjoin::StrFormat;

bool Checker::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) failures_.push_back(what);
  return ok;
}

bool Checker::ExpectEqual(const std::string& what, int64_t got, int64_t want) {
  return Expect(got == want,
                StrFormat("%s: got %lld, want %lld", what.c_str(),
                          static_cast<long long>(got),
                          static_cast<long long>(want)));
}

void CheckReportComplete(Checker& checker, const std::string& what,
                         const crowdjoin::LabelingReport& report) {
  checker.ExpectEqual(what + ": unlabeled pairs", report.num_unlabeled, 0);
  checker.ExpectEqual(what + ": crowdsourced + deduced",
                      report.num_crowdsourced + report.num_deduced,
                      report.num_candidates);
  int64_t batched = 0;
  for (int64_t size : report.crowdsourced_per_iteration) batched += size;
  checker.ExpectEqual(what + ": sum of per-iteration batches", batched,
                      report.num_crowdsourced);
}

void CheckLabelsMatchTruth(Checker& checker, const std::string& what,
                           const crowdjoin::LabelingReport& report,
                           const crowdjoin::CandidateSet& pairs,
                           const crowdjoin::GroundTruthOracle& truth) {
  if (!checker.ExpectEqual(what + ": outcomes vs candidates",
                           static_cast<int64_t>(report.outcomes.size()),
                           static_cast<int64_t>(pairs.size()))) {
    return;
  }
  int64_t missing = 0;
  int64_t wrong = 0;
  int64_t first_wrong = -1;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& outcome = report.outcomes[i];
    if (!outcome.has_value()) {
      ++missing;
    } else if (outcome->label != truth.Truth(pairs[i].a, pairs[i].b)) {
      if (first_wrong < 0) first_wrong = static_cast<int64_t>(i);
      ++wrong;
    }
  }
  checker.ExpectEqual(what + ": pairs without a final label", missing, 0);
  checker.Expect(wrong == 0,
                 StrFormat("%s: %lld labels differ from ground truth "
                           "(first at position %lld)",
                           what.c_str(), static_cast<long long>(wrong),
                           static_cast<long long>(first_wrong)));
}

void CheckReportsIdentical(Checker& checker, const std::string& what,
                           const crowdjoin::LabelingReport& got,
                           const crowdjoin::LabelingReport& want) {
  checker.ExpectEqual(what + ": candidates", got.num_candidates,
                      want.num_candidates);
  checker.ExpectEqual(what + ": crowdsourced", got.num_crowdsourced,
                      want.num_crowdsourced);
  checker.ExpectEqual(what + ": deduced", got.num_deduced, want.num_deduced);
  checker.ExpectEqual(what + ": iterations",
                      static_cast<int64_t>(got.crowdsourced_per_iteration.size()),
                      static_cast<int64_t>(want.crowdsourced_per_iteration.size()));
  checker.Expect(got == want, what + ": reports differ");
}

void CheckServedLabels(
    Checker& checker, const std::string& what,
    const crowdjoin::ResolutionService& service,
    const std::vector<std::pair<crowdjoin::ObjectId, crowdjoin::ObjectId>>&
        pairs,
    const std::vector<int32_t>& entities) {
  int64_t undecided = 0;
  int64_t wrong = 0;
  for (const auto& [a, b] : pairs) {
    const crowdjoin::Deduction deduction = service.DeducePair(a, b);
    if (deduction == crowdjoin::Deduction::kUndeduced) {
      ++undecided;
    } else if ((crowdjoin::DeductionToLabel(deduction) ==
                crowdjoin::Label::kMatching) !=
               (entities[static_cast<size_t>(a)] ==
                entities[static_cast<size_t>(b)])) {
      ++wrong;
    }
  }
  checker.ExpectEqual(what + ": undecided candidate pairs", undecided, 0);
  checker.ExpectEqual(what + ": labels differing from ground truth", wrong, 0);
}

BruteForceIndex::BruteForceIndex(const std::vector<std::string>& texts) {
  token_sets_.reserve(texts.size());
  for (const std::string& text : texts) {
    std::vector<std::string> tokens = crowdjoin::WordTokens(text);
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    token_sets_.push_back(std::move(tokens));
  }
}

std::vector<ExactMatch> BruteForceIndex::TopK(const std::string& query,
                                              double threshold,
                                              int32_t top_k) const {
  std::vector<std::string> q = crowdjoin::WordTokens(query);
  std::sort(q.begin(), q.end());
  q.erase(std::unique(q.begin(), q.end()), q.end());
  std::vector<ExactMatch> matches;
  for (size_t r = 0; r < token_sets_.size(); ++r) {
    const std::vector<std::string>& doc = token_sets_[r];
    int64_t overlap = 0;
    auto x = q.begin();
    auto y = doc.begin();
    while (x != q.end() && y != doc.end()) {
      if (*x < *y) {
        ++x;
      } else if (*y < *x) {
        ++y;
      } else {
        ++overlap;
        ++x;
        ++y;
      }
    }
    if (overlap == 0) continue;
    const int64_t union_size =
        static_cast<int64_t>(q.size() + doc.size()) - overlap;
    if (static_cast<double>(overlap) >=
        threshold * static_cast<double>(union_size)) {
      matches.push_back(
          ExactMatch{static_cast<crowdjoin::ObjectId>(r), overlap, union_size});
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const ExactMatch& a, const ExactMatch& b) {
              const int64_t lhs = a.overlap * b.union_size;
              const int64_t rhs = b.overlap * a.union_size;
              if (lhs != rhs) return lhs > rhs;
              return a.id < b.id;
            });
  if (matches.size() > static_cast<size_t>(top_k)) {
    matches.resize(static_cast<size_t>(top_k));
  }
  return matches;
}

void CheckTopKMatches(Checker& checker, const std::string& what,
                      const std::vector<crowdjoin::ServeCandidate>& got,
                      const std::vector<ExactMatch>& want) {
  bool same = got.size() == want.size();
  for (size_t i = 0; same && i < got.size(); ++i) {
    same = got[i].id == want[i].id &&
           got[i].similarity == static_cast<double>(want[i].overlap) /
                                    static_cast<double>(want[i].union_size);
  }
  checker.Expect(same, StrFormat("%s: top-k differs from brute force "
                                 "(%zu served, %zu expected)",
                                 what.c_str(), got.size(), want.size()));
}

}  // namespace perfbench
