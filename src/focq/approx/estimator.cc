#include "focq/approx/estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "focq/approx/counter_rng.h"
#include "focq/logic/build.h"
#include "focq/util/thread_pool.h"

namespace focq {
namespace {

// Per-binder draw stream: a pure function of the binder's position in the
// term walk and the values bound to its free variables — so the draws for a
// query row depend on the row, never on the order rows are evaluated in.
std::uint64_t BinderStream(const Expr& e, const Env& env,
                           std::uint64_t ordinal) {
  std::uint64_t stream = MixBits(0x5eedc0defULL + ordinal);
  for (Var v : FreeVars(e)) {
    if (!env.IsBound(v)) continue;
    stream = MixBits(stream ^ (static_cast<std::uint64_t>(v) << 32) ^
                     static_cast<std::uint64_t>(env.Get(v)));
  }
  return stream;
}

// Rounded per-stratum scale-up: round(hits * frame / m), half away from
// zero. hits <= m <= 2^26 and frame fits int64, so the product fits 128 bit
// and the quotient is bounded by frame.
CountInt ScaleHits(CountInt hits, CountInt frame, CountInt m) {
  const unsigned __int128 num =
      static_cast<unsigned __int128>(hits) *
          static_cast<unsigned __int128>(frame) +
      static_cast<unsigned __int128>(m) / 2;
  return static_cast<CountInt>(num / static_cast<unsigned __int128>(m));
}

struct BoundInfo {
  CountInt bound;    // admissible |approx - exact|
  CountInt max_abs;  // bound on max(|exact|, |approx|)
};

std::optional<BoundInfo> BoundInfoOf(const Expr& e, std::size_t universe_size,
                                     const ApproxParams& params,
                                     double tail_delta,
                                     const SphereTypeAssignment* strata) {
  switch (e.kind) {
    case ExprKind::kIntConst: {
      const CountInt v = e.int_value;
      if (v == std::numeric_limits<CountInt>::min()) return std::nullopt;
      return BoundInfo{0, v < 0 ? -v : v};
    }
    case ExprKind::kCount: {
      const std::size_t k = e.vars.size();
      std::optional<CountInt> frame = CheckedPow(
          static_cast<CountInt>(universe_size), static_cast<int>(k));
      if (!frame.has_value()) return std::nullopt;
      const CountInt budget = ApproxSampleBudget(params.eps, params.delta);
      if (*frame <= budget) return BoundInfo{0, *frame};
      std::optional<CountInt> per_coord =
          CheckedPow(static_cast<CountInt>(universe_size),
                     static_cast<int>(k) - 1);
      if (!per_coord.has_value()) return std::nullopt;
      std::optional<CountInt> bound = 0;
      if (strata != nullptr && k >= 1) {
        std::vector<std::size_t> sizes;
        sizes.reserve(strata->elements_of_type.size());
        for (const std::vector<ElemId>& elems : strata->elements_of_type) {
          sizes.push_back(elems.size());
        }
        const std::vector<CountInt> alloc =
            ApproxAllocateSamples(budget, sizes);
        for (std::size_t s = 0; s < sizes.size(); ++s) {
          if (sizes[s] == 0) continue;
          std::optional<CountInt> sub_frame = CheckedMul(
              static_cast<CountInt>(sizes[s]), *per_coord);
          if (!sub_frame.has_value()) return std::nullopt;
          std::optional<CountInt> dev =
              ApproxDeviationBound(*sub_frame, alloc[s], tail_delta);
          if (!dev.has_value()) return std::nullopt;
          // +1 absorbs the per-stratum rounding of ScaleHits.
          bound = CheckedAdd(*bound, *dev);
          if (bound.has_value()) bound = CheckedAdd(*bound, 1);
          if (!bound.has_value()) return std::nullopt;
        }
      } else {
        std::optional<CountInt> dev =
            ApproxDeviationBound(*frame, budget, tail_delta);
        if (!dev.has_value()) return std::nullopt;
        bound = CheckedAdd(*dev, 1);
        if (!bound.has_value()) return std::nullopt;
      }
      return BoundInfo{*bound, *frame};
    }
    case ExprKind::kAdd: {
      BoundInfo acc{0, 0};
      for (const ExprRef& c : e.children) {
        std::optional<BoundInfo> child =
            BoundInfoOf(*c, universe_size, params, tail_delta, strata);
        if (!child.has_value()) return std::nullopt;
        std::optional<CountInt> b = CheckedAdd(acc.bound, child->bound);
        std::optional<CountInt> m = CheckedAdd(acc.max_abs, child->max_abs);
        if (!b.has_value() || !m.has_value()) return std::nullopt;
        acc = BoundInfo{*b, *m};
      }
      return acc;
    }
    case ExprKind::kMul: {
      BoundInfo acc{0, 1};
      for (const ExprRef& c : e.children) {
        std::optional<BoundInfo> child =
            BoundInfoOf(*c, universe_size, params, tail_delta, strata);
        if (!child.has_value()) return std::nullopt;
        // |xy - x'y'| <= |x||y - y'| + |y'||x - x'| with |x| <= acc.max_abs,
        // |y'| <= child.max_abs + child.bound; expanded into three checked
        // products.
        std::optional<CountInt> t1 = CheckedMul(acc.max_abs, child->bound);
        std::optional<CountInt> t2 = CheckedMul(acc.bound, child->max_abs);
        std::optional<CountInt> t3 = CheckedMul(acc.bound, child->bound);
        if (!t1.has_value() || !t2.has_value() || !t3.has_value()) {
          return std::nullopt;
        }
        std::optional<CountInt> b = CheckedAdd(*t1, *t2);
        if (b.has_value()) b = CheckedAdd(*b, *t3);
        std::optional<CountInt> m = CheckedMul(acc.max_abs, child->max_abs);
        if (!b.has_value() || !m.has_value()) return std::nullopt;
        acc = BoundInfo{*b, *m};
      }
      return acc;
    }
    default:
      return std::nullopt;  // formula kind: not a counting term
  }
}

}  // namespace

std::vector<CountInt> ApproxAllocateSamples(
    CountInt m, const std::vector<std::size_t>& stratum_sizes) {
  std::vector<CountInt> out(stratum_sizes.size(), 0);
  unsigned __int128 total = 0;
  for (std::size_t s : stratum_sizes) total += s;
  if (total == 0 || m <= 0) return out;
  // Floor shares, then hand the leftovers to the largest remainders
  // (ties to the lower stratum index) — the classic largest-remainder
  // apportionment, fully deterministic.
  std::vector<std::pair<unsigned long long, std::size_t>> remainders;
  remainders.reserve(stratum_sizes.size());
  CountInt assigned = 0;
  for (std::size_t i = 0; i < stratum_sizes.size(); ++i) {
    const unsigned __int128 share =
        static_cast<unsigned __int128>(m) * stratum_sizes[i];
    out[i] = static_cast<CountInt>(share / total);
    assigned += out[i];
    remainders.emplace_back(static_cast<unsigned long long>(share % total), i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  const CountInt leftover = m - assigned;
  for (CountInt r = 0; r < leftover; ++r) {
    ++out[remainders[static_cast<std::size_t>(r)].second];
  }
  for (std::size_t i = 0; i < stratum_sizes.size(); ++i) {
    if (stratum_sizes[i] > 0 && out[i] == 0) out[i] = 1;
  }
  return out;
}

std::optional<CountInt> ApproxDeviationBound(CountInt frame, CountInt m,
                                             double tail_delta) {
  if (frame <= 0 || m <= 0) return 0;
  const long double t =
      static_cast<long double>(frame) *
      std::sqrt(std::log(2.0L / static_cast<long double>(tail_delta)) /
                (2.0L * static_cast<long double>(m)));
  const long double rounded = std::ceil(t) + 2.0L;  // fp slop, sound upward
  if (rounded >=
      static_cast<long double>(std::numeric_limits<CountInt>::max())) {
    return std::nullopt;
  }
  return static_cast<CountInt>(rounded);
}

std::optional<CountInt> ApproxErrorBound(const Expr& term,
                                         std::size_t universe_size,
                                         const ApproxParams& params,
                                         double tail_delta,
                                         const SphereTypeAssignment* strata) {
  std::optional<BoundInfo> info =
      BoundInfoOf(term, universe_size, params, tail_delta, strata);
  if (!info.has_value()) return std::nullopt;
  return info->bound;
}

ApproxEvaluator::ApproxEvaluator(const Structure& a, const ApproxParams& params,
                                 const ApproxEvalHooks& hooks)
    : a_(&a), params_(params), hooks_(hooks), exact_(a) {
  exact_.set_progress(hooks_);
}

Result<CountInt> ApproxEvaluator::EvaluateGround(const Term& t) {
  Env env;
  return Evaluate(t, &env);
}

Result<CountInt> ApproxEvaluator::Evaluate(const Term& t, Env* env) {
  ordinal_ = 0;
  return EvalNode(t.ref(), env);
}

Result<CountInt> ApproxEvaluator::EvalNode(const ExprRef& node, Env* env) {
  const Expr& e = *node;
  switch (e.kind) {
    case ExprKind::kIntConst:
      return e.int_value;
    case ExprKind::kAdd: {
      CountInt acc = 0;
      for (const ExprRef& c : e.children) {
        Result<CountInt> v = EvalNode(c, env);
        if (!v.ok()) return v;
        std::optional<CountInt> sum = CheckedAdd(acc, *v);
        if (!sum) {
          return Status::OutOfRange("counting-term value overflows int64");
        }
        acc = *sum;
      }
      return acc;
    }
    case ExprKind::kMul: {
      CountInt acc = 1;
      for (const ExprRef& c : e.children) {
        Result<CountInt> v = EvalNode(c, env);
        if (!v.ok()) return v;
        std::optional<CountInt> prod = CheckedMul(acc, *v);
        if (!prod) {
          return Status::OutOfRange("counting-term value overflows int64");
        }
        acc = *prod;
      }
      return acc;
    }
    case ExprKind::kCount:
      return EstimateCount(node, env);
    default:
      return Status::InvalidArgument(
          "approx evaluation expects a counting term");
  }
}

Result<CountInt> ApproxEvaluator::EstimateCount(const ExprRef& node,
                                                Env* env) {
  const Expr& e = *node;
  const std::uint64_t my_ordinal = ordinal_++;
  const std::size_t k = e.vars.size();
  const std::size_t n = a_->universe_size();
  const CountInt budget = ApproxSampleBudget(params_.eps, params_.delta);
  std::optional<CountInt> frame =
      CheckedPow(static_cast<CountInt>(n), static_cast<int>(k));
  if (!frame.has_value()) {
    return Status::OutOfRange("counting frame exceeds int64 range");
  }
  hooks_.Max("approx.max_frame", *frame);
  hooks_.Max("approx.budget", budget);

  if (*frame <= budget) {
    // The frame fits inside the sample budget: enumerate it exactly with the
    // reference odometer (estimate == exact; sampling would only add noise).
    Phase phase(hooks_, "",
                hooks_.NewNode("estimate", "#(" + std::to_string(k) +
                                               " vars) frame=" +
                                               std::to_string(*frame) +
                                               " enumerated"));
    hooks_.Count("approx.exact_frames", 1);
    hooks_.Count("approx.enumerated_tuples", *frame);
    return exact_.Evaluate(Term(node), env);
  }

  // Sampled path. The first coordinate is optionally stratified by Hanf
  // sphere type; the remaining coordinates are uniform over the universe.
  const bool stratified = hooks_.strata != nullptr && k >= 1;
  std::vector<std::size_t> sizes;
  if (stratified) {
    sizes.reserve(hooks_.strata->elements_of_type.size());
    for (const std::vector<ElemId>& elems : hooks_.strata->elements_of_type) {
      sizes.push_back(elems.size());
    }
  } else {
    sizes.push_back(n);
  }
  const std::vector<CountInt> alloc = ApproxAllocateSamples(budget, sizes);
  CountInt planned = 0;
  for (CountInt m_s : alloc) planned += m_s;

  Phase phase(hooks_, "approx_sample",
              hooks_.NewNode("estimate", "#(" + std::to_string(k) +
                                             " vars) frame=" +
                                             std::to_string(*frame) +
                                             " samples=" +
                                             std::to_string(planned) +
                                             " strata=" +
                                             std::to_string(sizes.size())));

  std::optional<CountInt> per_coord =
      CheckedPow(static_cast<CountInt>(n), static_cast<int>(k) - 1);
  if (!per_coord.has_value()) {
    return Status::OutOfRange("counting frame exceeds int64 range");
  }

  // The exact per-sample membership check, as a 0-ary counting term so the
  // reference evaluator's Result plumbing (overflow semantics inside phi,
  // deadline draining) applies verbatim.
  Term indicator = Count({}, Formula(e.children[0]));
  const std::uint64_t stream = BinderStream(e, *env, my_ordinal);

  hooks_.AddTotal(ProgressPhase::kApprox, planned);

  CountInt estimate = 0;
  std::int64_t total_hits = 0;
  std::int64_t check_tuples = 0;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const CountInt m_s = alloc[s];
    if (m_s <= 0 || sizes[s] == 0) continue;
    const std::vector<ElemId>* stratum_elems =
        stratified ? &hooks_.strata->elements_of_type[s] : nullptr;
    const std::uint64_t stratum_n = sizes[s];
    const CounterRng rng =
        CounterRng(params_.seed, stream).Substream(s);
    const ChunkGrid grid =
        MakeChunkGrid(static_cast<std::size_t>(m_s), hooks_.num_threads);
    ShardedCounter hits(grid.num_chunks);
    ShardedCounter tuples(grid.num_chunks);
    std::vector<Status> chunk_status(grid.num_chunks, Status::Ok());
    ParallelFor(
        hooks_.num_threads, static_cast<std::size_t>(m_s),
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          NaiveEvaluator check(*a_);
          check.set_progress(hooks_);
          Env local = *env;
          std::int64_t local_hits = 0;
          for (std::size_t i = begin; i < end; ++i) {
            if (hooks_.ShouldStop()) break;  // drain on hard deadline
            for (std::size_t j = 0; j < k; ++j) {
              const std::uint64_t counter =
                  static_cast<std::uint64_t>(i) * k + j;
              const ElemId value =
                  (j == 0 && stratified)
                      ? (*stratum_elems)[rng.IndexAt(counter, stratum_n)]
                      : static_cast<ElemId>(rng.IndexAt(
                            counter, static_cast<std::uint64_t>(n)));
              local.Bind(e.vars[j], value);
            }
            Result<CountInt> sat = check.Evaluate(indicator, &local);
            if (!sat.ok()) {
              chunk_status[chunk] = sat.status();
              break;
            }
            local_hits += *sat;
            hooks_.Advance(ProgressPhase::kApprox, 1);
          }
          hits.Add(chunk, local_hits);
          tuples.Add(chunk, check.tuples_enumerated());
        });
    if (hooks_.Cancelled()) return hooks_.DeadlineStatus();
    for (const Status& st : chunk_status) {
      if (!st.ok()) return st;
    }
    std::optional<CountInt> sub_frame =
        CheckedMul(static_cast<CountInt>(stratum_n), *per_coord);
    if (!sub_frame.has_value()) {
      return Status::OutOfRange("counting frame exceeds int64 range");
    }
    const CountInt stratum_hits = hits.Total();
    total_hits += stratum_hits;
    check_tuples += tuples.Total();
    std::optional<CountInt> next =
        CheckedAdd(estimate, ScaleHits(stratum_hits, *sub_frame, m_s));
    if (!next.has_value()) {
      return Status::OutOfRange("counting-term value overflows int64");
    }
    estimate = *next;
  }

  hooks_.Count("approx.count_terms_sampled", 1);
  hooks_.Count("approx.samples_drawn", planned);
  hooks_.Count("approx.sample_hits", total_hits);
  hooks_.Count("approx.sample_check_tuples", check_tuples);
  hooks_.Count("approx.strata", static_cast<std::int64_t>(sizes.size()));
  return estimate;
}

}  // namespace focq
