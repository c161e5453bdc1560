#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

// Shared plumbing of the benchmark: clocks, process counters, order
// statistics, the metric list a run prints, and the span log of the traced
// run.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary epoch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

/// Peak resident set size of this process, in MiB.
double PeakRssMiB();
/// User + system CPU seconds this process has consumed so far.
double ProcessCpuSeconds();

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Max(const std::vector<double>& values);

/// Aborts the run (exit 1, no result line) when `status` is not OK: a
/// failed operation is a harness failure, not a slow measurement.
void CheckOk(const crowdjoin::Status& status, const char* what);

template <typename R>
auto Unwrap(R result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// One reported number. `samples` is the sample count behind a timing
/// (0 for counts and single measurements).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

/// What a workload hands back to `main`: the metrics of this run plus the
/// bookkeeping of the result line.
struct RunOutput {
  std::vector<Metric> metrics;
  /// Checks made and checks that failed; a failed check is described in
  /// `failures` and makes the run exit non-zero.
  int64_t attempted = 0;
  std::vector<std::string> failures;
  /// Free-form lines printed before the metric table (timelines, skew).
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit,
           int64_t samples = 0) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
};

/// Workload parameters from the command line.
struct RunConfig {
  uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  /// Where the traced run writes its span file (empty = nowhere).
  std::string trace_path;
};

/// \brief Span records of the traced run, kept in memory and written once
/// at exit as Chrome trace JSON.
///
/// Unlike `obs::Span`, every record carries its parent span and the
/// request it belongs to, so a layer's self time (its duration minus its
/// children's) and a request's critical path can be read from the file.
class SpanLog {
 public:
  struct Record {
    const char* name;
    int64_t id;
    int64_t parent;   // 0 = root
    int64_t request;  // 0 = not part of a request
    int tid;
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Appends a finished span and returns its id.
  int64_t Add(const char* name, int64_t parent, int64_t request, int tid,
              int64_t start_ns, int64_t end_ns);
  /// Reserves an id for a span whose children finish before it does.
  int64_t NewId();
  /// Appends a finished span under a previously reserved id.
  void AddWithId(int64_t id, const char* name, int64_t parent,
                 int64_t request, int tid, int64_t start_ns, int64_t end_ns);

  size_t size() const;

  /// Writes the log as Chrome trace JSON; false when the file cannot be
  /// written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Record> records_;
  int64_t next_id_ = 1;
};

/// RAII span appended to a `SpanLog` on destruction; a null log records
/// nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent = 0,
             int64_t request = 0, int tid = 0)
      : log_(log),
        name_(name),
        parent_(parent),
        request_(request),
        tid_(tid),
        id_(log != nullptr ? log->NewId() : 0),
        start_ns_(NowNs()) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->AddWithId(id_, name_, parent_, request_, tid_, start_ns_, NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  const char* name_;
  int64_t parent_;
  int64_t request_;
  int tid_;
  int64_t id_;
  int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
