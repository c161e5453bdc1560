#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<size_t>(rank)) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

void CheckOk(const crowdjoin::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

int64_t SpanLog::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

int64_t SpanLog::Add(const char* name, int64_t parent, int64_t request,
                     int tid, int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = next_id_++;
  records_.push_back(Record{name, id, parent, request, tid, start_ns, end_ns});
  return id;
}

void SpanLog::AddWithId(int64_t id, const char* name, int64_t parent,
                        int64_t request, int tid, int64_t start_ns,
                        int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(Record{name, id, parent, request, tid, start_ns, end_ns});
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  for (const Record& r : records_) origin = std::min(origin, r.start_ns);
  std::fputs("{\"traceEvents\":[", file);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"request\":%lld}}",
                 i == 0 ? "" : ",", r.name, r.tid,
                 static_cast<double>(r.start_ns - origin) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
                 static_cast<long long>(r.id), static_cast<long long>(r.parent),
                 static_cast<long long>(r.request));
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
