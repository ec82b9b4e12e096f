// OpenMetrics / Prometheus text exporter: turns periodic snapshots of the
// metrics sink and the progress sink into a scrapeable time series in the
// OpenMetrics text format (https://prometheus.io/docs/specs/om/open_metrics_spec/).
// This is the monitoring substrate a long-running process (focq_serve)
// mounts directly; the CLI uses it via --openmetrics=FILE.
//
// Mapping:
//   * counters  -> one counter family per name: focq_<name>_total
//     (cumulative sink snapshots are monotone, as the format requires; the
//     high-water-mark counters are monotone by construction).
//   * progress  -> two gauge families with a phase label:
//     focq_progress_done{phase="..."} / focq_progress_goal{phase="..."}.
//   * values    -> one histogram family per name (focq_dist_<name>) built
//     from the deterministic log2 buckets of ValueStats: cumulative
//     _bucket{le="..."} lines, _sum and _count.
//
// Each Sample() appends one MetricPoint per series, stamped with the given
// wall-clock timestamp; Render() groups lines by family (the format forbids
// interleaving) and emits points in sample order, ending with '# EOF'.
// tools/check_openmetrics.py validates the output in CI.
//
// Thread-safety: Sample/Render are mutex-guarded (sampling happens at call
// boundaries, never on the evaluation hot path). The series is bounded:
// past `max_samples` the oldest snapshot is dropped.
#ifndef FOCQ_OBS_OPENMETRICS_H_
#define FOCQ_OBS_OPENMETRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "focq/obs/metrics.h"
#include "focq/obs/progress.h"

namespace focq {

/// One timestamped snapshot of everything the exporter renders.
struct OpenMetricsSample {
  std::int64_t ts_ms = 0;  // unix epoch milliseconds
  EvalMetrics metrics;
  std::array<PhaseProgress, kNumProgressPhases> progress{};
  bool has_progress = false;
  /// Point-in-time gauges (queue depth, in-flight requests, live
  /// connections): rendered as one gauge family per name (focq_<name>,
  /// bare-name samples). Unlike counters these may go down between samples.
  std::map<std::string, std::int64_t> gauges;
};

/// Wall-clock now in unix epoch milliseconds (the timestamp Sample wants).
std::int64_t UnixMillisNow();

/// A bounded in-memory time series of snapshots plus the text renderer.
class OpenMetricsSeries {
 public:
  explicit OpenMetricsSeries(std::size_t max_samples = 512)
      : max_samples_(max_samples == 0 ? 1 : max_samples) {}

  OpenMetricsSeries(const OpenMetricsSeries&) = delete;
  OpenMetricsSeries& operator=(const OpenMetricsSeries&) = delete;

  /// Appends one snapshot. `progress` may be null (then only counters and
  /// value histograms are rendered). The renderer emits points in insertion
  /// order and the format requires strictly increasing timestamps per
  /// series, so a `ts_ms` not past the previous sample's is stored as 1 ms
  /// after it.
  void Sample(std::int64_t ts_ms, const EvalMetrics& metrics,
              const ProgressSink* progress);

  /// Same, plus point-in-time gauges (see OpenMetricsSample::gauges).
  void Sample(std::int64_t ts_ms, const EvalMetrics& metrics,
              const ProgressSink* progress,
              std::map<std::string, std::int64_t> gauges);

  std::size_t sample_count() const;

  /// The full OpenMetrics text exposition, '# EOF'-terminated.
  std::string Render() const;

  /// Lowercases and maps every character outside [a-z0-9_] to '_' and
  /// prefixes a '_' when the result would start with a digit — the metric
  /// name charset of the format.
  static std::string SanitizeName(std::string_view name);

 private:
  mutable std::mutex mutex_;
  std::size_t max_samples_;
  std::vector<OpenMetricsSample> samples_;
};

}  // namespace focq

#endif  // FOCQ_OBS_OPENMETRICS_H_
