// The differential-execution driver of the fuzzing harness: one (expression,
// structure) case is run through the naive FOC(P) oracle (Definition 3.1
// semantics) and through the Theorem 6.10 pipeline under every cover backend
// and several thread counts; any disagreement in results — or in the
// deterministic observability counters across thread counts — is a failure.
//
// The implementation under test is injectable (DiffConfig::subject), so the
// harness itself is testable: tests inject a deliberately miscounting
// subject and assert the driver catches and shrinks it.
#ifndef FOCQ_TESTING_DIFFERENTIAL_H_
#define FOCQ_TESTING_DIFFERENTIAL_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "focq/core/api.h"
#include "focq/eval/query.h"
#include "focq/logic/expr.h"
#include "focq/structure/structure.h"
#include "focq/structure/update.h"
#include "focq/testing/formula_gen.h"
#include "focq/testing/structure_gen.h"
#include "focq/util/rng.h"

namespace focq::fuzz {

/// What a case asks of the engines.
enum class CaseMode {
  kCheck,  // sentence model checking (A |= phi)
  kCount,  // the counting problem |phi(A)|
  kTerm,   // ground counting-term evaluation
  kQuery,  // full Definition 5.2 query evaluation (result relations)
};

std::string CaseModeName(CaseMode mode);
std::optional<CaseMode> ParseCaseMode(const std::string& name);

/// One self-contained differential test case.
struct DiffCase {
  CaseMode mode = CaseMode::kCount;
  Formula formula;              // kCheck / kCount / kQuery condition
  Term term;                    // kTerm
  std::vector<Term> head_terms; // kQuery only (free vars within head vars)
  Structure structure{Signature{}, 1};
  // Update-sequence mode (non-empty): the expression is evaluated on the
  // initial structure and re-evaluated after every update. The subject runs
  // warm through one EvalContext repaired by ApplyUpdate; the oracle
  // rebuilds from scratch per step. Answers must be bit-identical.
  std::vector<TupleUpdate> updates;

  /// The query evaluated in kQuery mode: head variables are the sorted free
  /// variables of the condition and the head terms (recomputed on the fly so
  /// shrinking can prune variables without invalidating the case).
  Foc1Query ToQuery() const;

  /// The expression under test (formula or term node).
  const Expr& expr() const;
};

/// Canonicalised engine output: every mode is rendered as a row relation
/// (kCheck: zero or one empty row; kCount/kTerm: one row with one count), so
/// a single comparison covers all modes.
struct Outcome {
  Status status = Status::Ok();
  std::vector<QueryRow> rows;
};

/// Evaluates `c` with the given options using the real engines.
Outcome RunSubject(const DiffCase& c, const EvalOptions& options);

/// One engine disagreement (or counter nondeterminism) found by RunCase.
struct DiffFailure {
  std::string description;  // which variant disagreed and how
  DiffCase c;               // the case (callers may shrink it further)
};

struct DiffConfig {
  std::vector<int> thread_counts = {0, 1, 4};
  std::vector<TermEngine> term_engines = {
      TermEngine::kBall, TermEngine::kSparseCover, TermEngine::kExactCover};
  // Also require the deterministic metrics counters to be identical across
  // thread_counts for every variant (DESIGN.md, "Observability").
  bool compare_metrics = true;
  // Additionally run every variant twice through one shared EvalContext (a
  // priming run, then a warm run against the populated cache) and require:
  // both runs agree with the oracle; the warm run's input-determined
  // counters match the uncached run bit-identically (artifact-build /
  // cache-state metrics — gaifman.*, cover.*, ctx.cache.* — are excluded,
  // they legitimately depend on cache state; evaluation counters like
  // cover_eval.* are not excluded); and a warm run that succeeds actually
  // hit the cache.
  bool warm_context = true;
  // When > 0, every subject variant runs with a *soft* deadline of this
  // many milliseconds armed (Deadline{soft_ms, 0}). Soft expiry observes
  // and continues — results and deterministic counters are unchanged by
  // contract — so the comparison logic is untouched while the watchdog and
  // its expiry path get exercised on every case that runs long enough
  // (focq_fuzz --soft-deadline-ms, run under ASan in CI).
  std::int64_t soft_deadline_ms = 0;
  // The implementation under test; defaults to RunSubject (the real
  // pipeline). Tests substitute a faulty subject to exercise the harness.
  std::function<Outcome(const DiffCase&, const EvalOptions&)> subject;
};

/// Differential configuration for Engine::kApprox: the subject runs the
/// sampling engine and is admitted when every count column lies within the
/// theoretical error band (ApproxErrorBound at `band_tail_delta` confidence
/// per binder) of the naive oracle — everything boolean (row membership,
/// model-checking verdicts) must still match exactly. On top of the band,
/// the driver enforces the determinism contract: within one stratify mode,
/// estimates must be bit-identical across all thread counts and across warm
/// vs cold contexts for the fixed seed.
struct ApproxDiffConfig {
  // eps/delta/seed of the subject; `stratify` is overridden per variant by
  // stratify_modes.
  ApproxParams params;
  std::vector<int> thread_counts = {0, 1, 4};
  std::vector<bool> stratify_modes = {false, true};
  // Require the deterministic counters (after stripping cache-state and
  // approx.* sampling tallies, see IsApproxMetric) to be identical across
  // thread_counts.
  bool compare_metrics = true;
  // Also rerun each variant twice through a shared EvalContext; warm
  // estimates must be bit-identical to the cold-context run (the draws are
  // pure functions of the seed, never of cache state), and the stratified
  // variant must actually serve its sphere typing from the cache.
  bool warm_context = true;
  // Per-binder tail probability used to size the admitted band. Far below
  // ApproxParams::delta on purpose: the band test is run over hundreds of
  // fuzz cases with zero tolerated failures, so the slack is widened (by
  // sqrt(ln(2/band_tail_delta)/ln(2/delta)), about 2.3x for the defaults)
  // until a correct estimator violates it with probability ~1e-12 per
  // binder instead of delta. RunApproxTrials tests the delta-level band.
  double band_tail_delta = 1e-12;
  // The implementation under test; defaults to RunSubject.
  std::function<Outcome(const DiffCase&, const EvalOptions&)> subject;
};

/// Runs one case through Engine::kApprox under every (stratify, threads)
/// variant: band agreement against the naive oracle, bit-identical rows and
/// deterministic metrics across thread counts, warm-context bit-identity.
/// Status leniency: when either side reports kOutOfRange the band is not
/// checkable and the pair is accepted (estimates need not overflow exactly
/// where the exact arithmetic does); any other status mismatch fails.
/// Update sequences are not supported in approx mode (cases carry none).
std::optional<DiffFailure> RunApproxCase(const DiffCase& c,
                                         const ApproxDiffConfig& config);

/// Repeated-trial mode: evaluates the case once per seed (config.params.seed,
/// +1, ..., +trials-1; single-threaded, stratify as configured) and checks
/// each run against the *delta-level* band — ApproxErrorBound at tail_delta =
/// params.delta, the confidence the estimator actually advertises. The case
/// fails when the empirical violation count is statistically inconsistent
/// with a per-run failure rate <= delta under the exact binomial gate
/// (FailureRateConsistentWithDelta). Cases whose oracle fails (or whose band
/// overflows) are vacuous and pass. Returns nullopt on success.
std::optional<DiffFailure> RunApproxTrials(const DiffCase& c,
                                           const ApproxDiffConfig& config,
                                           int trials);

/// True for the approx.* sampling tallies (samples drawn, strata, budget,
/// strata_reused). They are parameterised by (eps, delta, seed) and — for
/// strata_reused — by cache state, so the harness strips them alongside the
/// cache-state metrics before any cross-run deterministic-metrics
/// comparison.
bool IsApproxMetric(const std::string& name);

/// Runs one case: naive oracle once, then every (term engine, thread count)
/// variant of the subject. Returns nullopt on full agreement. Cases where
/// the *oracle* itself fails (e.g. arithmetic overflow on an adversarial
/// term) still require the subject to fail with the same status code.
///
/// With a non-empty update sequence the case runs in update mode instead:
/// the oracle applies each update to a fresh copy and re-evaluates naively
/// from scratch, while every subject variant threads one EvalContext through
/// EvalContext::ApplyUpdate and re-evaluates warm. Any per-step disagreement
/// is a failure (the incremental≡rebuild invariant of DESIGN.md §3e).
/// compare_metrics / warm_context do not apply in update mode — repair
/// counters legitimately differ from a cold build.
std::optional<DiffFailure> RunCase(const DiffCase& c, const DiffConfig& config);

/// Appends `count` random tuple updates to the case: uniform over symbols
/// and insert/delete, with deletes biased toward tuples actually present so
/// sequences exercise real removals, not just no-ops.
void AppendRandomUpdates(DiffCase* c, std::size_t count, Rng* rng);

/// Draws a random case: structure from `structure_options`, expression from
/// a FormulaGenerator over the structure's signature, mode uniform over the
/// four modes (kQuery gets 0-2 head terms).
DiffCase GenerateCase(const StructureGenOptions& structure_options,
                      const FormulaGenOptions& formula_options, Rng* rng);

/// Renders rows compactly for failure reports: "(a,b|n1,n2) ...".
std::string RowsToString(const std::vector<QueryRow>& rows);

/// A deliberately faulty subject for harness self-tests: behaves like
/// RunSubject but over-counts the first result column by one whenever the
/// structure's first relation is non-empty. The trigger survives vertex and
/// tuple deletion down to a two-element structure, so the shrinker must
/// reduce any caught miscount to a tiny repro (asserted by the tests and
/// `focq_fuzz --self-test`).
Outcome MiscountingSubject(const DiffCase& c, const EvalOptions& options);

}  // namespace focq::fuzz

#endif  // FOCQ_TESTING_DIFFERENTIAL_H_
