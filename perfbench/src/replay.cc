#include "replay.h"

#include <chrono>
#include <unordered_set>

#include "focq/core/evaluator.h"
#include "focq/core/plan.h"
#include "focq/locality/cl_term.h"
#include "focq/logic/build.h"
#include "focq/logic/fragment.h"
#include "focq/logic/parser.h"
#include "focq/structure/io.h"
#include "focq/structure/update.h"
#include "loadgen.h"

namespace perfbench {
namespace {

using focq::Result;
using focq::Status;

std::string CountText(focq::CountInt value) {
  return std::to_string(static_cast<long long>(value));
}

// Times `fn` into `*ns` and returns its result.
template <typename Fn>
auto Timed(std::int64_t* ns, Fn&& fn) {
  const std::int64_t start = NowNs();
  auto out = fn();
  *ns += NowNs() - start;
  return out;
}

// The same counters api.cc's RecordPlanMetrics adds per compilation.
void RecordPlan(const focq::EvalPlan& plan, focq::MetricsSink* sink) {
  if (sink == nullptr) return;
  focq::EvalPlan::Stats stats = plan.ComputeStats();
  sink->AddCounter("plan.compilations", 1);
  sink->AddCounter("plan.layers", static_cast<std::int64_t>(stats.num_layers));
  sink->AddCounter("plan.basic_cl_terms",
                   static_cast<std::int64_t>(stats.num_basic_cl_terms));
  sink->AddCounter("plan.fallback_relations",
                   static_cast<std::int64_t>(stats.num_fallback_relations));
}

// Executor phases of one compiled plan: constructor, MaterializeLayers, then
// CheckSentence (formula plans) or TermValue (term plans).
Result<std::string> RunPlan(const focq::EvalPlan& plan,
                            const focq::Structure& a, focq::EvalContext* ctx,
                            const focq::ExecOptions& exec, LayerNs* ns) {
  RecordPlan(plan, exec.metrics);
  std::int64_t start = NowNs();
  focq::PlanExecutor executor(plan, a, exec, ctx);
  ns->setup += NowNs() - start;
  Status materialized =
      Timed(&ns->materialize, [&] { return executor.MaterializeLayers(); });
  if (!materialized.ok()) return materialized;
  if (plan.is_term) {
    Result<focq::CountInt> value =
        Timed(&ns->residual, [&] { return executor.TermValue(); });
    if (!value.ok()) return value.status();
    return CountText(*value);
  }
  Result<bool> holds =
      Timed(&ns->residual, [&] { return executor.CheckSentence(); });
  if (!holds.ok()) return holds.status();
  return std::string(*holds ? "true" : "false");
}

// One read statement along focq_serve's read path (Server::ExecuteRead) and
// the api.cc entry points it calls, with the layers timed from outside.
Result<std::string> DispatchRead(const Statement& s, const focq::Structure& a,
                                 focq::EvalContext* ctx,
                                 const focq::ExecOptions& exec, LayerNs* ns) {
  const focq::Signature& sig = a.signature();
  if (s.kind == FrameKind::kTerm) {
    Result<focq::Term> term = Timed(&ns->parse, [&]() -> Result<focq::Term> {
      Result<focq::Term> t = focq::ParseTerm(s.text);
      if (!t.ok()) return t;
      FOCQ_RETURN_IF_ERROR(focq::CheckSymbols(*t, sig));
      return t;
    });
    if (!term.ok()) return term.status();
    if (!focq::FreeVars(*term).empty()) {
      return Status::InvalidArgument(
          "EvaluateGroundTerm expects a ground term");
    }
    Result<focq::EvalPlan> plan =
        Timed(&ns->compile, [&] { return focq::CompileTerm(*term, sig); });
    if (!plan.ok()) return plan.status();
    return RunPlan(*plan, a, ctx, exec, ns);
  }
  Result<focq::Formula> formula =
      Timed(&ns->parse, [&]() -> Result<focq::Formula> {
        Result<focq::Formula> f = focq::ParseFormula(s.text);
        if (!f.ok()) return f;
        FOCQ_RETURN_IF_ERROR(focq::CheckSymbols(*f, sig));
        return f;
      });
  if (!formula.ok()) return formula.status();
  std::vector<focq::Var> free = focq::FreeVars(*formula);
  if (s.kind == FrameKind::kCheck && !free.empty()) {
    return Status::InvalidArgument("ModelCheck expects a sentence");
  }
  if (free.empty()) {
    // check, and count of a sentence (CountSolutions -> ModelCheck: 1 / 0).
    Result<focq::EvalPlan> plan = Timed(
        &ns->compile, [&] { return focq::CompileFormula(*formula, sig); });
    if (!plan.ok()) return plan.status();
    Result<std::string> holds = RunPlan(*plan, a, ctx, exec, ns);
    if (!holds.ok() || s.kind == FrameKind::kCheck) return holds;
    return std::string(*holds == "true" ? "1" : "0");
  }
  Result<focq::EvalPlan> plan = Timed(&ns->compile, [&] {
    return focq::CompileTerm(focq::Count(free, *formula), sig);
  });
  if (!plan.ok()) return plan.status();
  return RunPlan(*plan, a, ctx, exec, ns);
}

focq::ExecOptions MakeExec(const Workload& w, focq::MetricsSink* sink) {
  focq::ExecOptions exec;
  exec.term_engine = w.engine == "cover" ? focq::TermEngine::kSparseCover
                                         : focq::TermEngine::kBall;
  exec.num_threads = 1;  // focq_serve's default --threads
  exec.metrics = sink;
  return exec;
}

double MsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

}  // namespace

Result<std::string> ExecuteReference(focq::Session& session,
                                     const Statement& s) {
  const focq::Signature& sig = session.structure().signature();
  if (s.kind == FrameKind::kUpdate) {
    Result<focq::TupleUpdate> update = focq::ParseUpdate(s.text, sig);
    if (!update.ok()) return update.status();
    Result<focq::UpdateStats> applied = session.ApplyUpdate(*update);
    if (!applied.ok()) return applied.status();
    return std::string(applied->changed ? "applied" : "noop");
  }
  if (s.kind == FrameKind::kTerm) {
    Result<focq::Term> term = focq::ParseTerm(s.text);
    if (!term.ok()) return term.status();
    FOCQ_RETURN_IF_ERROR(focq::CheckSymbols(*term, sig));
    Result<focq::CountInt> value = session.EvaluateGroundTerm(*term);
    if (!value.ok()) return value.status();
    return CountText(*value);
  }
  Result<focq::Formula> formula = focq::ParseFormula(s.text);
  if (!formula.ok()) return formula.status();
  FOCQ_RETURN_IF_ERROR(focq::CheckSymbols(*formula, sig));
  if (s.kind == FrameKind::kCheck) {
    Result<bool> holds = session.ModelCheck(*formula);
    if (!holds.ok()) return holds.status();
    return std::string(*holds ? "true" : "false");
  }
  Result<focq::CountInt> count = session.CountSolutions(*formula);
  if (!count.ok()) return count.status();
  return CountText(*count);
}

Result<ReadOracle> ReadOracle::Build(const Workload& workload,
                                     const focq::Structure& a) {
  focq::Session session(a);
  ReadOracle oracle;
  for (const Template& t : workload.templates) {
    std::vector<std::string> texts;
    for (std::int64_t k = 0; k < (workload.offsets ? 3 : 1); ++k) {
      Result<std::string> text =
          ExecuteReference(session, {t.kind, Instantiate(t, k)});
      if (!text.ok()) {
        return Status::Internal("reference failed on '" + t.text +
                                "': " + text.status().ToString());
      }
      texts.push_back(*text);
    }
    Answer answer;
    answer.text = texts[0];
    answer.numeric = t.kind != FrameKind::kCheck;
    if (answer.numeric) {
      answer.base = std::stoll(texts[0]);
      if (workload.offsets) {
        answer.slope = std::stoll(texts[1]) - answer.base;
        if (std::stoll(texts[2]) != answer.base + 2 * answer.slope) {
          return Status::Internal("answer not affine in k: " + t.text);
        }
      }
    } else if (workload.offsets &&
               (texts[1] != texts[0] || texts[2] != texts[0])) {
      return Status::Internal("check answer depends on k: " + t.text);
    }
    oracle.answers_.push_back(answer);
  }
  return oracle;
}

std::string ReadOracle::Expected(const Statement& s) const {
  const Answer& answer = answers_[s.template_index];
  if (!answer.numeric) return answer.text;
  return std::to_string(answer.base + answer.slope * s.offset);
}

Result<SetupLayers> MeasureSetupLayers(const std::string& structure_path,
                                       const std::set<std::uint32_t>& radii) {
  SetupLayers layers;
  std::int64_t start = NowNs();
  Result<focq::Structure> a = focq::ReadStructureFile(structure_path);
  layers.load_ms = MsSince(start);
  if (!a.ok()) return a.status();
  focq::EvalContext ctx(*a);
  start = NowNs();
  ctx.Gaifman();
  layers.gaifman_ms = MsSince(start);
  for (std::uint32_t r : radii) {
    start = NowNs();
    ctx.Cover(r, focq::CoverBackend::kSparse);
    layers.cover_ms[r] = MsSince(start);
  }
  return layers;
}

std::set<std::uint32_t> CoverRadii(const Workload& workload,
                                   const focq::Signature& signature) {
  std::set<std::uint32_t> radii;
  if (workload.engine != "cover") return radii;
  auto add = [&](const focq::ClTerm& term) {
    for (const focq::BasicClTerm& b : term.basics()) {
      radii.insert(focq::RequiredCoverRadius(b));
    }
  };
  for (const Template& t : workload.templates) {
    const std::string text = Instantiate(t, 0);
    Result<focq::EvalPlan> plan = Status::Internal("unparsed");
    if (t.kind == FrameKind::kTerm) {
      Result<focq::Term> term = focq::ParseTerm(text);
      if (term.ok()) plan = focq::CompileTerm(*term, signature);
    } else {
      Result<focq::Formula> f = focq::ParseFormula(text);
      if (f.ok()) {
        std::vector<focq::Var> free = focq::FreeVars(*f);
        plan = free.empty() ? focq::CompileFormula(*f, signature)
                            : focq::CompileTerm(focq::Count(free, *f),
                                                signature);
      }
    }
    if (!plan.ok()) continue;
    for (const auto& layer : plan->layers) {
      for (const focq::LayerRelationDef& def : layer) {
        for (const focq::ClTerm& arg : def.args) add(arg);
      }
    }
    if (plan->final_term_decomposed) add(plan->final_cl_term);
  }
  return radii;
}

Result<ReplayReport> TracedReplay(
    const Workload& workload, const focq::Structure& initial,
    const StatementStream& stream,
    const std::function<std::string(const Statement&)>& reference) {
  focq::Structure a = initial;
  focq::EvalContext ctx(a);
  ReplayReport report;

  // Untimed warm-up: the first touch builds the Gaifman graph and covers,
  // exactly as the served run's warm-up pass does.
  for (const Template& t : workload.templates) {
    LayerNs ignored;
    Result<std::string> r = DispatchRead({t.kind, Instantiate(t, 0)}, a, &ctx,
                                         MakeExec(workload, nullptr), &ignored);
    if (!r.ok()) return r.status();
  }

  focq::MetricsSink sink;
  const focq::ExecOptions exec = MakeExec(workload, &sink);
  focq::ArtifactOptions artifact_opts;
  artifact_opts.metrics = &sink;
  const focq::EvalContext::CacheStats before = ctx.cache_stats();
  std::unordered_set<std::string> texts;
  for (std::size_t i = 0; i < workload.replay_prefix; ++i) {
    const Statement s = stream.At(i);
    texts.insert(s.text);
    std::string answer;
    if (s.kind == FrameKind::kUpdate) {
      const std::int64_t start = NowNs();
      Result<focq::TupleUpdate> update = focq::ParseUpdate(s.text, a.signature());
      if (!update.ok()) return update.status();
      Result<focq::UpdateStats> stats =
          ctx.ApplyUpdate(&a, *update, artifact_opts);
      report.update_ns.push_back(NowNs() - start);
      if (!stats.ok()) return stats.status();
      ++report.updates;
      report.clusters_rebuilt += stats->clusters_rebuilt;
      report.edges_added += stats->edges_added;
      report.edges_removed += stats->edges_removed;
      answer = stats->changed ? "applied" : "noop";
    } else {
      LayerNs ns;
      const std::int64_t start = NowNs();
      Result<std::string> r = DispatchRead(s, a, &ctx, exec, &ns);
      ns.total = NowNs() - start;
      if (!r.ok()) return r.status();
      ++report.reads;
      report.read_ns.Add(ns);
      answer = *r;
    }
    if (answer != reference(s)) ++report.mismatches;
  }
  const focq::EvalContext::CacheStats after = ctx.cache_stats();
  const std::int64_t lookups =
      (after.hits - before.hits) + (after.misses - before.misses);
  report.cache_hit_ratio =
      lookups == 0 ? 0
                   : static_cast<double>(after.hits - before.hits) /
                         static_cast<double>(lookups);
  report.cache_bytes = after.bytes;
  report.metrics = sink.Snapshot();
  report.repeat_share =
      workload.replay_prefix == 0
          ? 0
          : 1.0 - static_cast<double>(texts.size()) /
                      static_cast<double>(workload.replay_prefix);
  return report;
}

}  // namespace perfbench
