#include "focq/obs/openmetrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>

namespace focq {
namespace {

// Timestamp in seconds with millisecond precision, as the format wants.
std::string TsString(std::int64_t ts_ms) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ts_ms / 1000),
                static_cast<long long>(ts_ms % 1000));
  return buf;
}

// HELP text: escape backslash and newline per the exposition format.
std::string EscapeHelp(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void AppendFamilyHeader(std::string* out, const std::string& family,
                        const char* type, const std::string& help) {
  *out += "# TYPE " + family + " " + type + "\n";
  *out += "# HELP " + family + " " + EscapeHelp(help) + "\n";
}

}  // namespace

std::int64_t UnixMillisNow() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string OpenMetricsSeries::SanitizeName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    if (c >= 'A' && c <= 'Z') {
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

void OpenMetricsSeries::Sample(std::int64_t ts_ms, const EvalMetrics& metrics,
                               const ProgressSink* progress) {
  Sample(ts_ms, metrics, progress, {});
}

void OpenMetricsSeries::Sample(std::int64_t ts_ms, const EvalMetrics& metrics,
                               const ProgressSink* progress,
                               std::map<std::string, std::int64_t> gauges) {
  OpenMetricsSample s;
  s.ts_ms = ts_ms;
  s.metrics = metrics;
  if (progress != nullptr) {
    s.progress = progress->Snapshot();
    s.has_progress = true;
  }
  s.gauges = std::move(gauges);
  std::lock_guard<std::mutex> lock(mutex_);
  // Per-call sampling can land twice in one millisecond; the format needs
  // strictly increasing timestamps per series.
  if (!samples_.empty() && s.ts_ms <= samples_.back().ts_ms) {
    s.ts_ms = samples_.back().ts_ms + 1;
  }
  if (samples_.size() >= max_samples_) {
    samples_.erase(samples_.begin());
  }
  samples_.push_back(std::move(s));
}

std::size_t OpenMetricsSeries::sample_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_.size();
}

std::string OpenMetricsSeries::Render() const {
  std::lock_guard<std::mutex> lock(mutex_);

  std::set<std::string> counter_names;
  std::set<std::string> value_names;
  std::set<std::string> gauge_names;
  bool any_progress = false;
  for (const OpenMetricsSample& s : samples_) {
    for (const auto& [name, value] : s.metrics.counters) counter_names.insert(name);
    for (const auto& [name, stats] : s.metrics.values) value_names.insert(name);
    for (const auto& [name, value] : s.gauges) gauge_names.insert(name);
    any_progress = any_progress || s.has_progress;
  }

  std::string out;

  // Counter families: focq_<name>, sample lines carry the _total suffix.
  for (const std::string& name : counter_names) {
    std::string family = "focq_" + SanitizeName(name);
    AppendFamilyHeader(&out, family, "counter", "focq counter " + name);
    for (const OpenMetricsSample& s : samples_) {
      auto it = s.metrics.counters.find(name);
      if (it == s.metrics.counters.end()) continue;
      out += family + "_total " + std::to_string(it->second) + " " +
             TsString(s.ts_ms) + "\n";
    }
  }

  // Progress gauges: one series per phase per family, points in time order.
  if (any_progress) {
    const struct {
      const char* family;
      const char* help;
      std::int64_t PhaseProgress::* field;
    } kGaugeFamilies[] = {
        {"focq_progress_done", "work items completed per pipeline phase",
         &PhaseProgress::done},
        {"focq_progress_goal", "work items announced per pipeline phase",
         &PhaseProgress::total},
    };
    for (const auto& fam : kGaugeFamilies) {
      AppendFamilyHeader(&out, fam.family, "gauge", fam.help);
      for (int p = 0; p < kNumProgressPhases; ++p) {
        for (const OpenMetricsSample& s : samples_) {
          if (!s.has_progress) continue;
          out += std::string(fam.family) + "{phase=\"" +
                 ProgressPhaseName(static_cast<ProgressPhase>(p)) + "\"} " +
                 std::to_string(s.progress[p].*fam.field) + " " +
                 TsString(s.ts_ms) + "\n";
        }
      }
    }
  }

  // Point-in-time gauges (queue depth, in-flight requests, ...): bare-name
  // sample lines, one family per name.
  for (const std::string& name : gauge_names) {
    std::string family = "focq_" + SanitizeName(name);
    AppendFamilyHeader(&out, family, "gauge", "focq gauge " + name);
    for (const OpenMetricsSample& s : samples_) {
      auto it = s.gauges.find(name);
      if (it == s.gauges.end()) continue;
      out += family + " " + std::to_string(it->second) + " " +
             TsString(s.ts_ms) + "\n";
    }
  }

  // Value distributions as histograms over the deterministic log2 buckets.
  for (const std::string& name : value_names) {
    std::string family = "focq_dist_" + SanitizeName(name);
    AppendFamilyHeader(&out, family, "histogram", "focq value stats " + name);
    // One consistent bucket set across all samples: up to the highest
    // occupied bucket anywhere in the series, plus the mandatory +Inf.
    int max_bucket = 0;
    for (const OpenMetricsSample& s : samples_) {
      auto it = s.metrics.values.find(name);
      if (it == s.metrics.values.end()) continue;
      for (int i = ValueStats::kNumBuckets - 1; i > max_bucket; --i) {
        if (it->second.buckets[i] != 0) {
          max_bucket = i;
          break;
        }
      }
    }
    int finite_buckets = std::min(max_bucket + 1, ValueStats::kNumBuckets - 1);
    for (int i = 0; i < finite_buckets; ++i) {
      std::string le = std::to_string(ValueStats::BucketUpperBound(i));
      for (const OpenMetricsSample& s : samples_) {
        auto it = s.metrics.values.find(name);
        if (it == s.metrics.values.end()) continue;
        std::int64_t cum = 0;
        for (int j = 0; j <= i; ++j) cum += it->second.buckets[j];
        out += family + "_bucket{le=\"" + le + "\"} " + std::to_string(cum) +
               " " + TsString(s.ts_ms) + "\n";
      }
    }
    for (const OpenMetricsSample& s : samples_) {
      auto it = s.metrics.values.find(name);
      if (it == s.metrics.values.end()) continue;
      out += family + "_bucket{le=\"+Inf\"} " +
             std::to_string(it->second.count) + " " + TsString(s.ts_ms) + "\n";
    }
    for (const OpenMetricsSample& s : samples_) {
      auto it = s.metrics.values.find(name);
      if (it == s.metrics.values.end()) continue;
      out += family + "_sum " + std::to_string(it->second.sum) + " " +
             TsString(s.ts_ms) + "\n";
    }
    for (const OpenMetricsSample& s : samples_) {
      auto it = s.metrics.values.find(name);
      if (it == s.metrics.values.end()) continue;
      out += family + "_count " + std::to_string(it->second.count) + " " +
             TsString(s.ts_ms) + "\n";
    }
  }

  out += "# EOF\n";
  return out;
}

}  // namespace focq
