#include "focq/testing/differential.h"

#include <algorithm>
#include <cmath>

#include "focq/approx/estimator.h"
#include "focq/hanf/sphere.h"
#include "focq/logic/build.h"
#include "focq/logic/printer.h"
#include "focq/obs/metrics.h"
#include "focq/structure/gaifman.h"
#include "focq/testing/error_band.h"
#include "focq/util/check.h"

namespace focq::fuzz {

std::string CaseModeName(CaseMode mode) {
  switch (mode) {
    case CaseMode::kCheck: return "check";
    case CaseMode::kCount: return "count";
    case CaseMode::kTerm: return "term";
    case CaseMode::kQuery: return "query";
  }
  FOCQ_CHECK(false);
  return "";
}

std::optional<CaseMode> ParseCaseMode(const std::string& name) {
  for (CaseMode mode : {CaseMode::kCheck, CaseMode::kCount, CaseMode::kTerm,
                        CaseMode::kQuery}) {
    if (CaseModeName(mode) == name) return mode;
  }
  return std::nullopt;
}

const Expr& DiffCase::expr() const {
  return mode == CaseMode::kTerm ? term.node() : formula.node();
}

bool IsApproxMetric(const std::string& name) {
  return name.rfind("approx.", 0) == 0;
}

Foc1Query DiffCase::ToQuery() const {
  // Head variables are recomputed from the current condition/terms so that
  // shrinking, which may prune variables, always yields a valid query.
  std::vector<Var> head = FreeVars(formula);
  for (const Term& t : head_terms) {
    for (Var v : FreeVars(t)) head.push_back(v);
  }
  std::sort(head.begin(), head.end());
  head.erase(std::unique(head.begin(), head.end()), head.end());
  Foc1Query q;
  q.head_vars = std::move(head);
  q.head_terms = head_terms;
  q.condition = formula;
  return q;
}

Outcome RunSubject(const DiffCase& c, const EvalOptions& options) {
  Outcome out;
  switch (c.mode) {
    case CaseMode::kCheck: {
      Result<bool> holds = ModelCheck(c.formula, c.structure, options);
      if (!holds.ok()) {
        out.status = holds.status();
      } else if (*holds) {
        out.rows.push_back(QueryRow{{}, {1}});
      }
      return out;
    }
    case CaseMode::kCount: {
      Result<CountInt> n = CountSolutions(c.formula, c.structure, options);
      if (!n.ok()) {
        out.status = n.status();
      } else {
        out.rows.push_back(QueryRow{{}, {*n}});
      }
      return out;
    }
    case CaseMode::kTerm: {
      Result<CountInt> v = EvaluateGroundTerm(c.term, c.structure, options);
      if (!v.ok()) {
        out.status = v.status();
      } else {
        out.rows.push_back(QueryRow{{}, {*v}});
      }
      return out;
    }
    case CaseMode::kQuery: {
      Result<QueryResult> r = EvaluateQuery(c.ToQuery(), c.structure, options);
      if (!r.ok()) {
        out.status = r.status();
      } else {
        out.rows = r->rows;
      }
      return out;
    }
  }
  FOCQ_CHECK(false);
  return out;
}

std::string RowsToString(const std::vector<QueryRow>& rows) {
  std::string out = "{";
  for (std::size_t i = 0; i < rows.size() && i < 24; ++i) {
    if (i > 0) out += " ";
    out += "(";
    for (std::size_t j = 0; j < rows[i].elements.size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(rows[i].elements[j]);
    }
    out += "|";
    for (std::size_t j = 0; j < rows[i].counts.size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(rows[i].counts[j]);
    }
    out += ")";
  }
  if (rows.size() > 24) out += " ... " + std::to_string(rows.size()) + " rows";
  return out + "}";
}

namespace {

std::string TermEngineName(TermEngine engine) {
  switch (engine) {
    case TermEngine::kBall: return "ball";
    case TermEngine::kSparseCover: return "sparse-cover";
    case TermEngine::kExactCover: return "exact-cover";
  }
  return "?";
}

std::string OutcomeToString(const Outcome& out) {
  if (!out.status.ok()) return out.status.ToString();
  return RowsToString(out.rows);
}

std::string CaseHeadline(const DiffCase& c) {
  std::string text = "mode=" + CaseModeName(c.mode) +
                     " |A|=" + std::to_string(c.structure.Order()) + " ";
  text += c.mode == CaseMode::kTerm ? ToString(c.term) : ToString(c.formula);
  return text;
}

// Outcomes agree when both fail with the same status code or both succeed
// with identical row relations (order included: every engine emits rows
// sorted lexicographically by element tuple).
bool Agrees(const Outcome& oracle, const Outcome& subject) {
  if (!oracle.status.ok() || !subject.status.ok()) {
    return oracle.status.code() == subject.status.code();
  }
  return oracle.rows == subject.rows;
}

bool SnapshotsEqual(const EvalMetrics& a, const EvalMetrics& b) {
  return a.counters == b.counters && a.values == b.values;
}

// Metrics that describe artifact builds / cache state rather than the
// evaluation itself: a warm context legitimately skips builds, so these
// differ between cold and warm runs by design. Note "cover." does not match
// the evaluation counters "cover_eval.*" — exactly the split we want. The
// "mem.<artifact>.bytes" footprints are recorded at build time, so they are
// cache state too; "mem.structure.bytes" is not listed because both runs
// materialise the same working copy.
bool IsCacheStateMetric(const std::string& name) {
  for (const char* prefix : {"gaifman.", "cover.", "ctx.cache.",
                             "mem.gaifman.", "mem.cover.", "mem.spheres."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

EvalMetrics StripCacheStateMetrics(EvalMetrics m) {
  std::erase_if(m.counters,
                [](const auto& kv) { return IsCacheStateMetric(kv.first); });
  std::erase_if(m.values,
                [](const auto& kv) { return IsCacheStateMetric(kv.first); });
  return m;
}

// The approx.* sampling tallies are stripped (like the cache-state metrics)
// before every cross-run deterministic-metrics comparison: they are scoped
// to the (eps, delta, seed) sampling contract rather than the input, and
// approx.strata_reused is outright cache state.
EvalMetrics StripApproxMetrics(EvalMetrics m) {
  std::erase_if(m.counters,
                [](const auto& kv) { return IsApproxMetric(kv.first); });
  std::erase_if(m.values,
                [](const auto& kv) { return IsApproxMetric(kv.first); });
  return m;
}

// Update mode: every subject variant shares one EvalContext across the whole
// sequence — primed on the initial structure, repaired in place by
// EvalContext::ApplyUpdate after every step — while the oracle re-evaluates
// naively on a freshly updated copy. Incremental warm answers must be
// bit-identical to the cold rebuild at every step, for every engine and
// thread count.
std::optional<DiffFailure> RunUpdateCase(const DiffCase& c,
                                         const DiffConfig& config) {
  auto subject = config.subject
                     ? config.subject
                     : [](const DiffCase& cs, const EvalOptions& options) {
                         return RunSubject(cs, options);
                       };

  EvalOptions oracle_options;
  oracle_options.engine = Engine::kNaive;
  oracle_options.num_threads = 1;
  // oracle_steps[0]: before any update; oracle_steps[i + 1]: after update i.
  std::vector<Outcome> oracle_steps;
  {
    DiffCase scratch = c;
    scratch.updates.clear();
    oracle_steps.push_back(RunSubject(scratch, oracle_options));
    for (const TupleUpdate& u : c.updates) {
      Result<bool> changed = ApplyToStructure(&scratch.structure, u);
      FOCQ_CHECK(changed.ok());  // generator/shrinker only emit valid updates
      oracle_steps.push_back(RunSubject(scratch, oracle_options));
    }
  }

  for (TermEngine term_engine : config.term_engines) {
    for (int threads : config.thread_counts) {
      DiffCase scratch = c;
      scratch.updates.clear();
      EvalContext ctx(scratch.structure);
      EvalOptions options;
      options.engine = Engine::kLocal;
      options.term_engine = term_engine;
      options.num_threads = threads;
      options.context = &ctx;
      if (config.soft_deadline_ms > 0) {
        options.deadline = Deadline{config.soft_deadline_ms, 0};
      }
      ArtifactOptions repair_options;
      repair_options.num_threads = threads;
      for (std::size_t step = 0; step < oracle_steps.size(); ++step) {
        if (step > 0) {
          const TupleUpdate& u = c.updates[step - 1];
          Result<UpdateStats> applied =
              ctx.ApplyUpdate(&scratch.structure, u, repair_options);
          FOCQ_CHECK(applied.ok());
        }
        Outcome got = subject(scratch, options);
        if (Agrees(oracle_steps[step], got)) continue;
        DiffFailure failure;
        std::string where =
            step == 0 ? "initial evaluation"
                      : "after update " + std::to_string(step - 1) + " (" +
                            UpdateToString(c.updates[step - 1],
                                           c.structure.signature()) +
                            ")";
        failure.description =
            CaseHeadline(c) + "\n  update mode, " + where +
            "\n  variant: engine=local term_engine=" +
            TermEngineName(term_engine) +
            " threads=" + std::to_string(threads) +
            "\n  oracle (naive, cold rebuild): " +
            OutcomeToString(oracle_steps[step]) +
            "\n  subject (warm incremental):   " + OutcomeToString(got);
        failure.c = c;
        return failure;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<DiffFailure> RunCase(const DiffCase& c,
                                   const DiffConfig& config) {
  if (!c.updates.empty()) return RunUpdateCase(c, config);
  auto subject = config.subject
                     ? config.subject
                     : [](const DiffCase& cs, const EvalOptions& options) {
                         return RunSubject(cs, options);
                       };

  EvalOptions oracle_options;
  oracle_options.engine = Engine::kNaive;
  oracle_options.num_threads = 1;
  Outcome oracle = RunSubject(c, oracle_options);

  for (TermEngine term_engine : config.term_engines) {
    std::optional<EvalMetrics> reference_metrics;
    int reference_threads = 0;
    for (int threads : config.thread_counts) {
      EvalOptions options;
      options.engine = Engine::kLocal;
      options.term_engine = term_engine;
      options.num_threads = threads;
      if (config.soft_deadline_ms > 0) {
        options.deadline = Deadline{config.soft_deadline_ms, 0};
      }
      MetricsSink sink;
      if (config.compare_metrics) options.metrics = &sink;
      Outcome got = subject(c, options);
      if (!Agrees(oracle, got)) {
        DiffFailure failure;
        failure.description =
            CaseHeadline(c) + "\n  variant: engine=local term_engine=" +
            TermEngineName(term_engine) +
            " threads=" + std::to_string(threads) +
            "\n  oracle (naive): " + OutcomeToString(oracle) +
            "\n  subject:        " + OutcomeToString(got);
        failure.c = c;
        return failure;
      }
      EvalMetrics snapshot;
      if (config.compare_metrics) {
        snapshot = StripApproxMetrics(sink.Snapshot());
        if (!reference_metrics.has_value()) {
          reference_metrics = snapshot;
          reference_threads = threads;
        } else if (!SnapshotsEqual(*reference_metrics, snapshot)) {
          DiffFailure failure;
          failure.description =
              CaseHeadline(c) +
              "\n  nondeterministic metrics: term_engine=" +
              TermEngineName(term_engine) + " threads=" +
              std::to_string(reference_threads) + " vs threads=" +
              std::to_string(threads);
          failure.c = c;
          return failure;
        }
      }
      if (config.warm_context) {
        // Prime a shared context with one run, then re-run against the
        // populated cache: warm answers must match the oracle, warm
        // evaluation counters must match the uncached run bit-identically
        // (modulo artifact-build metrics), and the cache must actually serve
        // artifacts the second time around.
        EvalContext ctx(c.structure);
        EvalOptions warm_options = options;
        warm_options.context = &ctx;
        MetricsSink prime_sink;
        warm_options.metrics = config.compare_metrics ? &prime_sink : nullptr;
        Outcome primed = subject(c, warm_options);
        MetricsSink warm_sink;
        warm_options.metrics = config.compare_metrics ? &warm_sink : nullptr;
        Outcome warm = subject(c, warm_options);
        for (const auto& [label, run] :
             {std::pair<const char*, const Outcome*>{"context-cold", &primed},
              {"context-warm", &warm}}) {
          if (Agrees(oracle, *run)) continue;
          DiffFailure failure;
          failure.description =
              CaseHeadline(c) + "\n  variant: engine=local term_engine=" +
              TermEngineName(term_engine) +
              " threads=" + std::to_string(threads) + " " + label +
              "\n  oracle (naive): " + OutcomeToString(oracle) +
              "\n  subject:        " + OutcomeToString(*run);
          failure.c = c;
          return failure;
        }
        if (config.compare_metrics) {
          EvalMetrics cold_eval = StripCacheStateMetrics(snapshot);
          for (const auto& [label, run_sink] :
               {std::pair<const char*, MetricsSink*>{"context-cold",
                                                     &prime_sink},
                {"context-warm", &warm_sink}}) {
            if (SnapshotsEqual(cold_eval,
                               StripCacheStateMetrics(run_sink->Snapshot()))) {
              continue;
            }
            DiffFailure failure;
            failure.description =
                CaseHeadline(c) +
                "\n  input-determined counters differ between the uncached "
                "run and the " +
                std::string(label) + " run: term_engine=" +
                TermEngineName(term_engine) +
                " threads=" + std::to_string(threads);
            failure.c = c;
            return failure;
          }
        }
        if (warm.status.ok() && ctx.cache_stats().hits == 0) {
          DiffFailure failure;
          failure.description =
              CaseHeadline(c) +
              "\n  warm run never hit the artifact cache: term_engine=" +
              TermEngineName(term_engine) +
              " threads=" + std::to_string(threads);
          failure.c = c;
          return failure;
        }
      }
    }
  }
  return std::nullopt;
}

namespace {

// Per-column |approx - exact| slack the band admits for case `c`: one bound
// per count column, mirroring exactly which term Engine::kApprox estimates
// in each mode. Booleans (kCheck, row membership) are exact, so their slack
// is 0; kCount estimates the term #(free vars). phi; kQuery estimates every
// head term per row (the bound does not depend on the row binding — frames
// are n^k over the binder's own variables).
std::vector<std::optional<CountInt>> ApproxCaseBounds(
    const DiffCase& c, const ApproxParams& params, double tail_delta,
    const SphereTypeAssignment* strata) {
  std::vector<std::optional<CountInt>> bounds;
  const std::size_t n = c.structure.universe_size();
  switch (c.mode) {
    case CaseMode::kCheck:
      bounds.emplace_back(0);  // model checking is exact under kApprox
      break;
    case CaseMode::kCount: {
      Term whole = Count(FreeVars(c.formula), c.formula);
      bounds.push_back(
          ApproxErrorBound(whole.node(), n, params, tail_delta, strata));
      break;
    }
    case CaseMode::kTerm:
      bounds.push_back(
          ApproxErrorBound(c.term.node(), n, params, tail_delta, strata));
      break;
    case CaseMode::kQuery:
      for (const Term& t : c.head_terms) {
        bounds.push_back(
            ApproxErrorBound(t.node(), n, params, tail_delta, strata));
      }
      break;
  }
  return bounds;
}

// Band-level agreement: nullopt when the pair is acceptable, else a one-line
// description. Status leniency is asymmetric to the exact harness: a
// kOutOfRange on either side (only) is accepted against success on the
// other, because an estimate within the band need not overflow exactly
// where the exact arithmetic does, and vice versa.
std::optional<std::string> BandDisagreement(
    const Outcome& oracle, const Outcome& got,
    const std::vector<std::optional<CountInt>>& bounds) {
  if (!oracle.status.ok() || !got.status.ok()) {
    if (oracle.status.code() == got.status.code()) return std::nullopt;
    if (oracle.status.code() == StatusCode::kOutOfRange && got.status.ok()) {
      return std::nullopt;
    }
    if (got.status.code() == StatusCode::kOutOfRange && oracle.status.ok()) {
      return std::nullopt;
    }
    return "status mismatch (outside the kOutOfRange leniency)";
  }
  return CheckErrorBand(oracle.rows, got.rows, bounds);
}

}  // namespace

std::optional<DiffFailure> RunApproxCase(const DiffCase& c,
                                         const ApproxDiffConfig& config) {
  FOCQ_CHECK(c.updates.empty());  // approx cases never carry update sequences
  auto subject = config.subject
                     ? config.subject
                     : [](const DiffCase& cs, const EvalOptions& options) {
                         return RunSubject(cs, options);
                       };

  EvalOptions oracle_options;
  oracle_options.engine = Engine::kNaive;
  oracle_options.num_threads = 1;
  Outcome oracle = RunSubject(c, oracle_options);

  // The radius-r typing used to size the stratified band. Built lazily and
  // independently of the engine (which builds its own, or pulls a cached
  // one) — both are the same pure function of (structure, radius), which is
  // exactly the property the warm-context check below asserts.
  std::optional<SphereTypeAssignment> typing;
  auto strata_for = [&](bool stratify) -> const SphereTypeAssignment* {
    if (!stratify) return nullptr;
    if (!typing.has_value()) {
      Graph gaifman = BuildGaifmanGraph(c.structure);
      typing.emplace(ComputeSphereTypes(c.structure, gaifman,
                                        kApproxStratifyRadius));
    }
    return &*typing;
  };

  for (bool stratify : config.stratify_modes) {
    ApproxParams params = config.params;
    params.stratify = stratify;
    std::vector<std::optional<CountInt>> bounds = ApproxCaseBounds(
        c, params, config.band_tail_delta, strata_for(stratify));
    auto variant_text = [&](int threads) {
      return std::string("engine=approx stratify=") +
             (stratify ? "on" : "off") +
             " threads=" + std::to_string(threads) +
             " seed=" + std::to_string(params.seed);
    };
    auto fail = [&](int threads, const std::string& what) {
      DiffFailure failure;
      failure.description =
          CaseHeadline(c) + "\n  variant: " + variant_text(threads) + "\n  " +
          what;
      failure.c = c;
      return failure;
    };
    // Within one stratify mode every thread count must produce the same
    // bits: the first thread count is the reference.
    std::optional<Outcome> reference;
    int reference_threads = 0;
    std::optional<EvalMetrics> reference_metrics;
    for (int threads : config.thread_counts) {
      EvalOptions options;
      options.engine = Engine::kApprox;
      options.approx = params;
      options.num_threads = threads;
      MetricsSink sink;
      if (config.compare_metrics) options.metrics = &sink;
      Outcome got = subject(c, options);
      if (std::optional<std::string> violation =
              BandDisagreement(oracle, got, bounds);
          violation.has_value()) {
        return fail(threads, "oracle (naive):   " + OutcomeToString(oracle) +
                                 "\n  subject (approx): " +
                                 OutcomeToString(got) + "\n  " + *violation);
      }
      if (!reference.has_value()) {
        reference = got;
        reference_threads = threads;
      } else if (reference->status.code() != got.status.code() ||
                 reference->rows != got.rows) {
        return fail(threads,
                    "nondeterministic estimates across thread counts: "
                    "threads=" + std::to_string(reference_threads) + " got " +
                        OutcomeToString(*reference) + " vs " +
                        OutcomeToString(got));
      }
      if (config.compare_metrics) {
        EvalMetrics snapshot = StripApproxMetrics(sink.Snapshot());
        if (!reference_metrics.has_value()) {
          reference_metrics = snapshot;
        } else if (!SnapshotsEqual(*reference_metrics, snapshot)) {
          return fail(threads,
                      "nondeterministic metrics vs threads=" +
                          std::to_string(reference_threads) +
                          " (after stripping approx.* tallies)");
        }
      }
      if (config.warm_context) {
        // Same seed through a shared context, primed then warm: the draws
        // are pure functions of the seed, so all three runs (uncached, cold
        // context, warm context) must be bit-identical — and the stratified
        // variant must actually serve its typing from the cache on the warm
        // run.
        EvalContext ctx(c.structure);
        EvalOptions warm_options = options;
        warm_options.context = &ctx;
        warm_options.metrics = nullptr;
        Outcome primed = subject(c, warm_options);
        Outcome warm = subject(c, warm_options);
        for (const auto& [label, run] :
             {std::pair<const char*, const Outcome*>{"context-cold", &primed},
              {"context-warm", &warm}}) {
          if (run->status.code() == got.status.code() &&
              run->rows == got.rows) {
            continue;
          }
          return fail(threads,
                      std::string("estimates depend on context state (") +
                          label + "): uncached " + OutcomeToString(got) +
                          " vs " + OutcomeToString(*run));
        }
        if (stratify && warm.status.ok() && ctx.cache_stats().hits == 0) {
          return fail(threads,
                      "stratified warm run never hit the sphere-typing "
                      "cache");
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<DiffFailure> RunApproxTrials(const DiffCase& c,
                                           const ApproxDiffConfig& config,
                                           int trials) {
  FOCQ_CHECK(c.updates.empty());
  auto subject = config.subject
                     ? config.subject
                     : [](const DiffCase& cs, const EvalOptions& options) {
                         return RunSubject(cs, options);
                       };

  EvalOptions oracle_options;
  oracle_options.engine = Engine::kNaive;
  oracle_options.num_threads = 1;
  Outcome oracle = RunSubject(c, oracle_options);
  if (!oracle.status.ok()) return std::nullopt;  // nothing to band-test

  std::optional<SphereTypeAssignment> typing;
  const SphereTypeAssignment* strata = nullptr;
  if (config.params.stratify) {
    Graph gaifman = BuildGaifmanGraph(c.structure);
    typing.emplace(ComputeSphereTypes(c.structure, gaifman,
                                      kApproxStratifyRadius));
    strata = &*typing;
  }

  // The delta-level band: per-binder confidence 1 - delta, the contract the
  // estimator actually advertises. (The per-binder union over a multi-binder
  // term makes the true whole-term violation rate up to B * delta; Hoeffding
  // is loose enough in practice that empirical rates sit orders of magnitude
  // below delta, so the alpha = 1e-6 binomial gate never false-alarms.)
  std::vector<std::optional<CountInt>> bounds =
      ApproxCaseBounds(c, config.params, config.params.delta, strata);

  std::int64_t failures = 0;
  std::string first_violation;
  for (int t = 0; t < trials; ++t) {
    ApproxParams params = config.params;
    params.seed = config.params.seed + static_cast<std::uint64_t>(t);
    EvalOptions options;
    options.engine = Engine::kApprox;
    options.approx = params;
    options.num_threads = 1;
    Outcome got = subject(c, options);
    // Overflow of an estimate is not a band violation (see BandDisagreement)
    // and contributes no sample to the rate.
    if (!got.status.ok()) continue;
    std::optional<std::string> violation =
        CheckErrorBand(oracle.rows, got.rows, bounds);
    if (violation.has_value()) {
      ++failures;
      if (first_violation.empty()) {
        first_violation =
            "seed " + std::to_string(params.seed) + ": " + *violation;
      }
    }
  }
  if (FailureRateConsistentWithDelta(trials, failures, config.params.delta)) {
    return std::nullopt;
  }
  DiffFailure failure;
  failure.description =
      CaseHeadline(c) + "\n  repeated trials: " + std::to_string(failures) +
      "/" + std::to_string(trials) +
      " runs violated the delta-level band, statistically inconsistent with "
      "the advertised failure probability delta=" +
      std::to_string(config.params.delta) +
      (first_violation.empty() ? "" : "\n  first violation: " + first_violation);
  failure.c = c;
  return failure;
}

namespace {

// Estimated naive-oracle cost: ||e|| * n^(quantifier rank + free arity).
// Cases above the budget get their universe shrunk (induced prefix), which
// keeps a 500-case run in seconds without skewing the formula distribution.
constexpr double kMaxEstimatedCost = 400000.0;

void BoundUniverse(DiffCase* c) {
  const Expr& e = c->expr();
  int exponent = QuantifierRank(e) + static_cast<int>(FreeVars(e).size());
  for (const Term& t : c->head_terms) {
    exponent = std::max(exponent, QuantifierRank(t.node()));
  }
  double size = static_cast<double>(ExprSize(e));
  std::size_t n = c->structure.Order();
  if (exponent <= 0 || n <= 2) return;
  double budget = kMaxEstimatedCost / std::max(1.0, size);
  std::size_t cap = static_cast<std::size_t>(
      std::pow(budget, 1.0 / static_cast<double>(exponent)));
  if (cap < 2) cap = 2;
  if (n <= cap) return;
  std::vector<ElemId> keep;
  for (ElemId v = 0; v < cap; ++v) keep.push_back(v);
  c->structure = c->structure.Induced(keep);
}

}  // namespace

Outcome MiscountingSubject(const DiffCase& c, const EvalOptions& options) {
  Outcome out = RunSubject(c, options);
  bool trigger = c.structure.signature().NumSymbols() > 0 &&
                 c.structure.relation(0).NumTuples() > 0;
  if (trigger && out.status.ok() && !out.rows.empty() &&
      !out.rows[0].counts.empty()) {
    out.rows[0].counts[0] += 1;
  }
  return out;
}

DiffCase GenerateCase(const StructureGenOptions& structure_options,
                      const FormulaGenOptions& formula_options, Rng* rng) {
  DiffCase c;
  c.structure = GenerateStructure(structure_options, rng);
  FormulaGenerator gen(c.structure.signature(), formula_options, rng);
  switch (rng->NextBelow(4)) {
    case 0:
      c.mode = CaseMode::kCheck;
      c.formula = gen.GenerateFormula({});
      break;
    case 1:
      c.mode = CaseMode::kCount;
      c.formula = gen.GenerateFormula();
      break;
    case 2:
      c.mode = CaseMode::kTerm;
      c.term = gen.GenerateGroundTerm();
      break;
    default: {
      c.mode = CaseMode::kQuery;
      c.formula = gen.GenerateFormula();
      std::vector<Var> head = FreeVars(c.formula);
      std::size_t num_terms = rng->NextBelow(3);
      for (std::size_t i = 0; i < num_terms; ++i) {
        c.head_terms.push_back(gen.GenerateTerm(head));
      }
      break;
    }
  }
  BoundUniverse(&c);
  return c;
}

void AppendRandomUpdates(DiffCase* c, std::size_t count, Rng* rng) {
  const Signature& sig = c->structure.signature();
  const std::size_t n = c->structure.universe_size();
  if (sig.NumSymbols() == 0) return;
  for (std::size_t i = 0; i < count; ++i) {
    TupleUpdate u;
    u.symbol = static_cast<SymbolId>(rng->NextBelow(sig.NumSymbols()));
    const int arity = sig.Arity(u.symbol);
    u.kind = rng->NextBool(0.5) ? UpdateKind::kDelete : UpdateKind::kInsert;
    const auto existing = c->structure.relation(u.symbol).tuples();
    if (u.kind == UpdateKind::kDelete && !existing.empty() &&
        rng->NextBool(0.75)) {
      // Bias deletes toward tuples of the initial structure so sequences
      // exercise real removals (later steps may have deleted them already —
      // then this is a legitimate no-op case).
      u.tuple = ToTuple(existing[rng->NextBelow(existing.size())]);
    } else if (arity > 0 && n == 0) {
      continue;  // no elements to form a tuple from
    } else {
      for (int j = 0; j < arity; ++j) {
        u.tuple.push_back(static_cast<ElemId>(rng->NextBelow(n)));
      }
    }
    c->updates.push_back(std::move(u));
  }
}

}  // namespace focq::fuzz
