#ifndef PERFBENCH_TAPS_H_
#define PERFBENCH_TAPS_H_

// Decorators over the public labeling interfaces, used only by the traced
// run: each forwards to the wrapped object unchanged and records how often
// and how long it was called, so the session's own time can be separated
// from the time spent answering it.

#include <atomic>
#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "core/labeling_session.h"
#include "core/oracle.h"
#include "core/retry_policy.h"

namespace perfbench {

/// `CandidateStream` decorator: times every `NextRound` and keeps a copy of
/// each round, so labels can be checked and the graph replayed afterwards.
class StreamTap : public crowdjoin::CandidateStream {
 public:
  StreamTap(crowdjoin::CandidateStream* inner, SpanLog* log, int64_t parent)
      : inner_(inner), log_(log), parent_(parent) {}

  crowdjoin::Result<crowdjoin::CandidateSet> NextRound() override {
    ScopedSpan span(log_, "stream.next_round", parent_);
    const int64_t start = NowNs();
    crowdjoin::Result<crowdjoin::CandidateSet> round = inner_->NextRound();
    const int64_t end = NowNs();
    inside_ns_ += end - start;
    call_start_ns_.push_back(start);
    call_end_ns_.push_back(end);
    if (round.ok() && !round.value().empty()) rounds_.push_back(round.value());
    return round;
  }

  int64_t inside_ns() const { return inside_ns_; }
  /// Non-empty rounds, in the order the session consumed them.
  const std::vector<crowdjoin::CandidateSet>& rounds() const { return rounds_; }
  /// Session time between consecutive `NextRound` calls: the labeling time
  /// of each round, in ms.
  std::vector<double> RoundLabelMs() const {
    std::vector<double> ms;
    for (size_t i = 0; i + 1 < call_start_ns_.size(); ++i) {
      ms.push_back(static_cast<double>(call_start_ns_[i + 1] -
                                       call_end_ns_[i]) * 1e-6);
    }
    return ms;
  }

 private:
  crowdjoin::CandidateStream* inner_;
  SpanLog* log_;
  int64_t parent_;
  int64_t inside_ns_ = 0;
  std::vector<int64_t> call_start_ns_;
  std::vector<int64_t> call_end_ns_;
  std::vector<crowdjoin::CandidateSet> rounds_;
};

/// `LabelOracle` decorator: counts calls and their busy time (summed over
/// the worker threads that make them). Batch safety is the wrapped
/// oracle's, so the session's thread-count contract is unchanged.
class OracleTap : public crowdjoin::LabelOracle {
 public:
  explicit OracleTap(crowdjoin::LabelOracle* inner) : inner_(inner) {}

  crowdjoin::Label GetLabel(crowdjoin::ObjectId a,
                            crowdjoin::ObjectId b) override {
    ++num_queries_;
    const int64_t start = NowNs();
    const crowdjoin::Label label = inner_->GetLabel(a, b);
    busy_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
    return label;
  }
  bool IsBatchSafe() const override { return inner_->IsBatchSafe(); }

  int64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }

 private:
  crowdjoin::LabelOracle* inner_;
  std::atomic<int64_t> busy_ns_{0};
};

/// `AttemptFaultFn` decorator: counts failed attempts and busy time. `Wrap`
/// returns a closure that refers to this tap, which must outlive every
/// session using it.
class FaultTap {
 public:
  crowdjoin::AttemptFaultFn Wrap(crowdjoin::AttemptFaultFn inner) {
    if (!inner) return nullptr;
    return [this, inner = std::move(inner)](crowdjoin::ObjectId a,
                                            crowdjoin::ObjectId b,
                                            int attempt) {
      const int64_t start = NowNs();
      const bool fails = inner(a, b, attempt);
      busy_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
      if (fails) failures_.fetch_add(1, std::memory_order_relaxed);
      return fails;
    };
  }

  int64_t failures() const { return failures_.load(std::memory_order_relaxed); }
  int64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> failures_{0};
  std::atomic<int64_t> busy_ns_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TAPS_H_
