#include "focq/obs/benchdiff.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "focq/util/json.h"

namespace focq {
namespace {

// Numeric row fields that are benchmark bookkeeping, not focq counters.
bool IsBookkeepingField(const std::string& name) {
  return name == "iterations" || name == "real_time" || name == "cpu_time" ||
         name == "repetitions" || name == "repetition_index" ||
         name == "threads" || name == "family_index" ||
         name == "per_family_instance_index";
}

// Rate counters are timings in disguise (Google Benchmark's
// items_per_second / bytes_per_second, focq's ns_per_elem): machine-dependent,
// so they are never compared as counters.
bool IsRateField(const std::string& name) {
  return name.ends_with("_per_second") || name.starts_with("ns_per_");
}

std::string FormatStamp(const std::map<std::string, std::string>& build) {
  if (build.empty()) return "unstamped";
  std::string out;
  for (const auto& [key, value] : build) {
    if (!out.empty()) out += ", ";
    out += key + "=`" + value + "`";
  }
  return out;
}

void AppendJsonStamp(std::string* out,
                     const std::map<std::string, std::string>& build) {
  *out += "{";
  for (auto it = build.begin(); it != build.end(); ++it) {
    if (it != build.begin()) *out += ",";
    AppendJsonString(out, it->first);
    *out += ":";
    AppendJsonString(out, it->second);
  }
  *out += "}";
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Relative change |current - base| / max(|base|, |current|); 0 when both 0.
double RelativeChange(double base, double current) {
  double denom = std::max(std::fabs(base), std::fabs(current));
  if (denom == 0.0) return 0.0;
  return std::fabs(current - base) / denom;
}

}  // namespace

Result<BenchRun> ParseBenchJson(const std::string& json) {
  Result<JsonValue> doc = ParseJson(json);
  if (!doc.ok()) return doc.status();
  if (doc->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("benchmark JSON: top level is not an object");
  }
  const JsonValue* benchmarks = doc->Find("benchmarks");
  if (benchmarks == nullptr || benchmarks->kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(
        "benchmark JSON: missing \"benchmarks\" array");
  }
  BenchRun run;
  for (const JsonValue& row : benchmarks->array) {
    if (row.kind != JsonValue::Kind::kObject) continue;
    const JsonValue* run_type = row.Find("run_type");
    if (run_type != nullptr && run_type->kind == JsonValue::Kind::kString &&
        run_type->str != "iteration") {
      continue;  // aggregates (_mean/_stddev/...) are not comparable rows
    }
    const JsonValue* name = row.Find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) continue;
    BenchRow out;
    out.name = name->str;
    for (const auto& [key, value] : row.object) {
      if (value.kind != JsonValue::Kind::kNumber) continue;
      if (key == "real_time") {
        out.real_time = value.number;
      } else if (key == "cpu_time") {
        out.cpu_time = value.number;
      } else if (!IsBookkeepingField(key) && !IsRateField(key)) {
        out.counters[key] = value.number;
      }
    }
    const JsonValue* unit = row.Find("time_unit");
    if (unit != nullptr && unit->kind == JsonValue::Kind::kString) {
      out.time_unit = unit->str;
    }
    run.rows.push_back(std::move(out));
  }
  if (const JsonValue* context = doc->Find("context");
      context != nullptr && context->kind == JsonValue::Kind::kObject) {
    for (const auto& [key, value] : context->object) {
      if (key.starts_with("focq_") && value.kind == JsonValue::Kind::kString) {
        run.build[key] = value.str;
      }
    }
  }
  return run;
}

BenchDiffReport DiffBenchRuns(const BenchRun& base, const BenchRun& current,
                              const BenchDiffOptions& options) {
  BenchDiffReport report;
  report.options = options;
  report.base_build = base.build;
  report.current_build = current.build;
  std::map<std::string, const BenchRow*> base_by_name;
  for (const BenchRow& row : base.rows) base_by_name.emplace(row.name, &row);
  std::map<std::string, const BenchRow*> seen;
  for (const BenchRow& row : current.rows) {
    if (!seen.emplace(row.name, &row).second) continue;  // first rep wins
    auto it = base_by_name.find(row.name);
    if (it == base_by_name.end()) {
      report.added.push_back(row.name);
      continue;
    }
    const BenchRow& b = *it->second;
    BenchDiffEntry entry;
    entry.name = row.name;
    entry.base_time = b.real_time;
    entry.current_time = row.real_time;
    entry.time_unit = row.time_unit.empty() ? b.time_unit : row.time_unit;
    entry.time_ratio = b.real_time > 0.0 ? row.real_time / b.real_time : 0.0;
    if (b.real_time > 0.0) {
      double change = (row.real_time - b.real_time) / b.real_time;
      entry.regression = change > options.time_threshold;
      entry.improvement = change < -options.time_threshold;
    }
    for (const auto& [cname, cbase] : b.counters) {
      auto cit = row.counters.find(cname);
      if (cit == row.counters.end()) continue;
      if (RelativeChange(cbase, cit->second) > options.counter_threshold) {
        entry.counter_changes.emplace(cname,
                                      std::make_pair(cbase, cit->second));
      }
    }
    report.compared.push_back(std::move(entry));
  }
  for (const BenchRow& row : base.rows) {
    if (seen.find(row.name) == seen.end()) report.removed.push_back(row.name);
  }
  return report;
}

std::size_t BenchDiffReport::NumRegressions() const {
  std::size_t n = 0;
  for (const BenchDiffEntry& e : compared) n += e.regression ? 1 : 0;
  return n;
}

std::size_t BenchDiffReport::NumImprovements() const {
  std::size_t n = 0;
  for (const BenchDiffEntry& e : compared) n += e.improvement ? 1 : 0;
  return n;
}

std::size_t BenchDiffReport::NumCounterChanges() const {
  std::size_t n = 0;
  for (const BenchDiffEntry& e : compared) n += e.counter_changes.size();
  return n;
}

std::vector<std::string> BenchDiffReport::BuildDifferences() const {
  std::vector<std::string> fields;
  if (base_build.empty() || current_build.empty()) return fields;
  std::map<std::string, std::string> keys = base_build;
  keys.insert(current_build.begin(), current_build.end());
  for (const auto& [key, unused] : keys) {
    if (key == "focq_git_sha") continue;
    auto b = base_build.find(key);
    auto c = current_build.find(key);
    if (b == base_build.end() || c == current_build.end() ||
        b->second != c->second) {
      fields.push_back(key);
    }
  }
  return fields;
}

std::string BenchDiffReport::ToMarkdown() const {
  std::string out = "# benchdiff\n\n";
  out += "base build: " + FormatStamp(base_build) + "\n\n";
  out += "current build: " + FormatStamp(current_build) + "\n\n";
  if (std::vector<std::string> fields = BuildDifferences(); !fields.empty()) {
    out += "**warning**: the two files were built differently (";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      out += (i > 0 ? ", " : "") + fields[i];
    }
    out += "); timings are not comparable\n\n";
  }
  out += std::to_string(compared.size()) + " compared, " +
         std::to_string(NumRegressions()) + " regressions, " +
         std::to_string(NumImprovements()) + " improvements, " +
         std::to_string(NumCounterChanges()) + " counter changes, " +
         std::to_string(added.size()) + " added, " +
         std::to_string(removed.size()) + " removed (time threshold " +
         FormatNumber(options.time_threshold * 100) + "%)\n\n";
  out += "| benchmark | base | current | ratio | status |\n";
  out += "|---|---:|---:|---:|---|\n";
  for (const BenchDiffEntry& e : compared) {
    out += "| " + e.name + " | " + FormatNumber(e.base_time) + " " +
           e.time_unit + " | " + FormatNumber(e.current_time) + " " +
           e.time_unit + " | " + FormatNumber(e.time_ratio) + " | " +
           (e.regression ? "**regression**"
                         : (e.improvement ? "improvement" : "ok")) +
           " |\n";
  }
  bool any_counters = false;
  for (const BenchDiffEntry& e : compared) {
    for (const auto& [name, change] : e.counter_changes) {
      if (!any_counters) {
        out += "\nCounter changes:\n";
        any_counters = true;
      }
      out += "- " + e.name + ": " + name + " " +
             FormatNumber(change.first) + " -> " +
             FormatNumber(change.second) + "\n";
    }
  }
  if (!added.empty()) {
    out += "\nAdded:\n";
    for (const std::string& name : added) out += "- " + name + "\n";
  }
  if (!removed.empty()) {
    out += "\nRemoved:\n";
    for (const std::string& name : removed) out += "- " + name + "\n";
  }
  return out;
}

std::string BenchDiffReport::ToJson() const {
  std::string out = "{\"benchdiff\":{";
  out += "\"time_threshold\":" + FormatNumber(options.time_threshold);
  out += ",\"counter_threshold\":" + FormatNumber(options.counter_threshold);
  out += ",\"compared\":" + std::to_string(compared.size());
  out += ",\"regressions\":" + std::to_string(NumRegressions());
  out += ",\"improvements\":" + std::to_string(NumImprovements());
  out += ",\"counter_changes\":" + std::to_string(NumCounterChanges());
  out += ",\"added\":[";
  for (std::size_t i = 0; i < added.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(&out, added[i]);
  }
  out += "],\"removed\":[";
  for (std::size_t i = 0; i < removed.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(&out, removed[i]);
  }
  out += "],\"entries\":[";
  for (std::size_t i = 0; i < compared.size(); ++i) {
    const BenchDiffEntry& e = compared[i];
    if (i > 0) out += ",";
    out += "{\"name\":";
    AppendJsonString(&out, e.name);
    out += ",\"base_time\":" + FormatNumber(e.base_time);
    out += ",\"current_time\":" + FormatNumber(e.current_time);
    out += ",\"time_unit\":";
    AppendJsonString(&out, e.time_unit);
    out += ",\"time_ratio\":" + FormatNumber(e.time_ratio);
    out += std::string(",\"regression\":") + (e.regression ? "true" : "false");
    out += std::string(",\"improvement\":") +
           (e.improvement ? "true" : "false");
    out += ",\"counter_changes\":{";
    bool first = true;
    for (const auto& [name, change] : e.counter_changes) {
      if (!first) out += ",";
      first = false;
      AppendJsonString(&out, name);
      out += ":{\"base\":" + FormatNumber(change.first) +
             ",\"current\":" + FormatNumber(change.second) + "}";
    }
    out += "}}";
  }
  out += "]},\"builds\":{\"base\":";
  AppendJsonStamp(&out, base_build);
  out += ",\"current\":";
  AppendJsonStamp(&out, current_build);
  out += "}}";
  return out;
}

}  // namespace focq
