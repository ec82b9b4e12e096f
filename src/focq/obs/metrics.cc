#include "focq/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace focq {

double ValueStats::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min);
  if (q >= 1.0) return static_cast<double>(max);
  std::int64_t rank = static_cast<std::int64_t>(std::ceil(q * count));
  rank = std::clamp<std::int64_t>(rank, 1, count);
  std::int64_t cum = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (cum + buckets[i] < rank) {
      cum += buckets[i];
      continue;
    }
    // The rank lands in bucket i: interpolate the j-th of c samples
    // uniformly over the bucket's value range, tightened by min/max.
    double lo = i == 0 ? static_cast<double>(std::min<std::int64_t>(min, 0))
                       : static_cast<double>(std::int64_t{1} << (i - 1));
    double hi = i == kNumBuckets - 1
                    ? static_cast<double>(max)
                    : static_cast<double>(BucketUpperBound(i));
    double j = static_cast<double>(rank - cum);
    double c = static_cast<double>(buckets[i]);
    double estimate = lo + (hi - lo) * (j / c);
    return std::clamp(estimate, static_cast<double>(min),
                      static_cast<double>(max));
  }
  return static_cast<double>(max);  // unreachable when buckets sum to count
}

std::string EvalMetrics::ToJson() const {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(&out, name);
    out += ": " + std::to_string(value);
  }
  out += "}, \"values\": {";
  first = true;
  for (const auto& [name, stats] : values) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(&out, name);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ", \"mean\": %.6g, \"p50\": %.6g, \"p95\": %.6g, "
                  "\"p99\": %.6g}",
                  stats.Mean(), stats.Quantile(0.50), stats.Quantile(0.95),
                  stats.Quantile(0.99));
    out += ": {\"count\": " + std::to_string(stats.count) +
           ", \"sum\": " + std::to_string(stats.sum) +
           ", \"min\": " + std::to_string(stats.min) +
           ", \"max\": " + std::to_string(stats.max) + buf;
  }
  out += "}}";
  return out;
}

void MetricsSink::AddCounter(std::string_view name, std::int64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  data_.counters[std::string(name)] += delta;
}

void MetricsSink::MaxCounter(std::string_view name, std::int64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t& slot = data_.counters[std::string(name)];
  if (value > slot) slot = value;
}

void MetricsSink::RecordValue(std::string_view name, std::int64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  data_.values[std::string(name)].Record(value);
}

void MetricsSink::MergeValue(std::string_view name, const ValueStats& stats) {
  if (stats.count == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  data_.values[std::string(name)].Merge(stats);
}

std::int64_t MetricsSink::Counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = data_.counters.find(std::string(name));
  return it == data_.counters.end() ? 0 : it->second;
}

EvalMetrics MetricsSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_;
}

void MetricsSink::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  data_ = EvalMetrics{};
}

void ShardedCounter::FlushTo(MetricsSink* sink, std::string_view name) const {
  if (sink == nullptr) return;
  sink->AddCounter(name, Total());
}

}  // namespace focq
