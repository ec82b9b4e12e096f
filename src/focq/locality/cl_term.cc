#include "focq/locality/cl_term.h"

#include <algorithm>

#include "focq/util/checked_arith.h"
#include "focq/util/thread_pool.h"

namespace focq {
namespace {

bool BasicEquals(const BasicClTerm& a, const BasicClTerm& b) {
  return a.vars == b.vars && a.unary == b.unary && a.radius == b.radius &&
         a.pattern == b.pattern && ExprEquals(a.kernel.node(), b.kernel.node());
}

}  // namespace

ClTerm ClTerm::Constant(CountInt c) {
  ClTerm t;
  if (c != 0) t.monomials_.push_back(Monomial{c, {}});
  return t;
}

ClTerm ClTerm::FromBasic(BasicClTerm basic) {
  ClTerm t;
  t.basics_.push_back(std::move(basic));
  t.monomials_.push_back(Monomial{1, {0}});
  return t;
}

bool ClTerm::IsGround() const {
  for (const BasicClTerm& b : basics_) {
    if (b.unary) return false;
  }
  return true;
}

int ClTerm::InternBasic(const BasicClTerm& basic) {
  for (std::size_t i = 0; i < basics_.size(); ++i) {
    if (BasicEquals(basics_[i], basic)) return static_cast<int>(i);
  }
  if (basic.unary) {
    // All unary basics of one cl-term must share the free variable, else
    // pointwise evaluation would be ill-defined.
    for (const BasicClTerm& b : basics_) {
      if (b.unary) FOCQ_CHECK_EQ(b.vars[0], basic.vars[0]);
    }
  }
  basics_.push_back(basic);
  return static_cast<int>(basics_.size() - 1);
}

ClTerm ClTerm::Add(const ClTerm& a, const ClTerm& b) {
  ClTerm out = a;
  for (const Monomial& m : b.monomials_) {
    Monomial copy = m;
    for (int& f : copy.factors) f = out.InternBasic(b.basics_[f]);
    std::sort(copy.factors.begin(), copy.factors.end());
    // Merge with an identical monomial if present.
    bool merged = false;
    for (Monomial& existing : out.monomials_) {
      if (existing.factors == copy.factors) {
        auto sum = CheckedAdd(existing.coeff, copy.coeff);
        FOCQ_CHECK(sum.has_value());
        existing.coeff = *sum;
        merged = true;
        break;
      }
    }
    if (!merged) out.monomials_.push_back(std::move(copy));
  }
  // Drop zero monomials.
  out.monomials_.erase(
      std::remove_if(out.monomials_.begin(), out.monomials_.end(),
                     [](const Monomial& m) { return m.coeff == 0; }),
      out.monomials_.end());
  return out;
}

ClTerm ClTerm::Negate(const ClTerm& a) {
  ClTerm out = a;
  for (Monomial& m : out.monomials_) m.coeff = -m.coeff;
  return out;
}

ClTerm ClTerm::Sub(const ClTerm& a, const ClTerm& b) {
  return Add(a, Negate(b));
}

ClTerm ClTerm::Mul(const ClTerm& a, const ClTerm& b) {
  ClTerm out;
  out.basics_ = a.basics_;
  std::vector<int> b_remap(b.basics_.size());
  for (std::size_t i = 0; i < b.basics_.size(); ++i) {
    b_remap[i] = out.InternBasic(b.basics_[i]);
  }
  for (const Monomial& ma : a.monomials_) {
    for (const Monomial& mb : b.monomials_) {
      Monomial prod;
      auto coeff = CheckedMul(ma.coeff, mb.coeff);
      FOCQ_CHECK(coeff.has_value());
      prod.coeff = *coeff;
      prod.factors = ma.factors;
      for (int f : mb.factors) prod.factors.push_back(b_remap[f]);
      std::sort(prod.factors.begin(), prod.factors.end());
      bool merged = false;
      for (Monomial& existing : out.monomials_) {
        if (existing.factors == prod.factors) {
          auto sum = CheckedAdd(existing.coeff, prod.coeff);
          FOCQ_CHECK(sum.has_value());
          existing.coeff = *sum;
          merged = true;
          break;
        }
      }
      if (!merged && prod.coeff != 0) out.monomials_.push_back(std::move(prod));
    }
  }
  out.monomials_.erase(
      std::remove_if(out.monomials_.begin(), out.monomials_.end(),
                     [](const Monomial& m) { return m.coeff == 0; }),
      out.monomials_.end());
  return out;
}

ClTermBallEvaluator::ClTermBallEvaluator(const Structure& structure,
                                         const Graph& gaifman, int num_threads,
                                         MetricsSink* metrics,
                                         ProgressSink* progress,
                                         const BallTables* tables)
    : structure_(structure),
      gaifman_(gaifman),
      num_threads_(EffectiveThreads(num_threads)),
      metrics_(metrics),
      progress_(progress),
      tables_(tables),
      eval_(structure, gaifman, tables) {}

void ClTermBallEvaluator::FlushExploreDelta(const ExploreStats& before) {
  if (metrics_ == nullptr) return;
  metrics_->AddCounter("clterm.basics_evaluated", 1);
  metrics_->AddCounter("clterm.anchors_evaluated",
                       explore_stats_.anchors - before.anchors);
  metrics_->AddCounter("clterm.balls_fetched",
                       explore_stats_.balls - before.balls);
  metrics_->AddCounter("clterm.placements_checked",
                       explore_stats_.placements - before.placements);
}

ClosenessOracle& ClTermBallEvaluator::OracleFor(std::uint32_t d) {
  std::unique_ptr<ClosenessOracle>& slot = oracles_[d];
  if (slot == nullptr) slot = MakeOracle(gaifman_, tables_, d);
  return *slot;
}

ClTermBallEvaluator::Placement ClTermBallEvaluator::Plan(
    const BasicClTerm& basic) {
  const int k = basic.width();
  FOCQ_CHECK_GE(k, 1);
  FOCQ_CHECK(basic.pattern.IsConnected());
  FOCQ_CHECK_EQ(basic.pattern.num_vertices(), k);
  Placement p;
  p.basic = &basic;
  if (k > 1) p.oracle = &OracleFor(basic.Separation());
  p.order = {0};
  p.parent.assign(k, -1);
  std::vector<bool> in_order(k, false);
  in_order[0] = true;
  for (std::size_t head = 0; head < p.order.size(); ++head) {
    int u = p.order[head];
    for (int v = 0; v < k; ++v) {
      if (!in_order[v] && basic.pattern.HasEdge(u, v)) {
        in_order[v] = true;
        p.parent[v] = u;
        p.order.push_back(v);
      }
    }
  }
  FOCQ_CHECK_EQ(p.order.size(), static_cast<std::size_t>(k));
  p.elems.assign(k, 0);
  return p;
}

bool ClTermBallEvaluator::KernelHolds(Placement* p) {
  ++explore_stats_.placements;
  const BasicClTerm& basic = *p->basic;
  for (int i = 0; i < basic.width(); ++i) {
    p->env.Bind(basic.vars[i], p->elems[i]);
  }
  return eval_.Satisfies(basic.kernel, &p->env);
}

void ClTermBallEvaluator::Place(Placement* p, int depth, CountInt* count,
                                bool* overflow) {
  const BasicClTerm& basic = *p->basic;
  if (depth == basic.width()) {
    if (!KernelHolds(p)) return;
    auto next = CheckedAdd(*count, 1);
    if (!next) {
      *overflow = true;
      return;
    }
    *count = *next;
    return;
  }
  const int pos = p->order[depth];
  const int parent = p->parent[pos];
  ++explore_stats_.balls;
  // Candidates: the separation ball of the parent, which is close to each
  // of them by construction; every other placed position must be close to
  // the candidate exactly when the pattern joins it to `pos`.
  for (ElemId c : p->oracle->BallOf(p->elems[parent])) {
    bool ok = true;
    for (int j = 0; j < depth && ok; ++j) {
      const int i = p->order[j];
      if (i == parent) continue;
      ok = p->oracle->Close(p->elems[i], c) == basic.pattern.HasEdge(i, pos);
    }
    if (!ok) continue;
    p->elems[pos] = c;
    Place(p, depth + 1, count, overflow);
    if (*overflow) return;
  }
}

Result<CountInt> ClTermBallEvaluator::CountAnchored(Placement* p,
                                                    ElemId anchor) {
  ++explore_stats_.anchors;
  p->elems[0] = anchor;
  CountInt count = 0;
  bool overflow = false;
  Place(p, 1, &count, &overflow);
  if (overflow) return Status::OutOfRange("cl-term count overflows int64");
  return count;
}

Result<std::vector<CountInt>> ClTermBallEvaluator::EvaluateBasicAll(
    const BasicClTerm& basic) {
  FOCQ_CHECK(basic.unary);
  const std::size_t n = structure_.universe_size();
  const ExploreStats before = explore_stats_;
  std::vector<CountInt> out(n, 0);
  if (progress_ != nullptr) {
    progress_->AddTotal(ProgressPhase::kClTerm, static_cast<std::int64_t>(n));
  }
  if (num_threads_ <= 1) {
    Placement placement = Plan(basic);
    for (ElemId a = 0; a < n; ++a) {
      if (progress_ != nullptr && progress_->ShouldStop()) {
        return progress_->DeadlineStatus();
      }
      Result<CountInt> c = CountAnchored(&placement, a);
      if (!c.ok()) return c.status();
      out[a] = *c;
      if (progress_ != nullptr) progress_->Advance(ProgressPhase::kClTerm, 1);
    }
    FlushExploreDelta(before);
    return out;
  }
  // Each chunk gets a serial worker evaluator (the lazy oracle and index
  // caches are not thread-safe; lent tables are only read) and writes
  // disjoint anchor slots; errors are surfaced in chunk order so failure
  // reporting is deterministic too. Worker exploration tallies land in
  // per-chunk shards and reduce after the join, so the flushed totals match
  // the serial run.
  const std::size_t num_chunks = MakeChunkGrid(n, num_threads_).num_chunks;
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  ShardedCounter anchors(num_chunks), balls(num_chunks),
      placements(num_chunks);
  ParallelFor(num_threads_, n,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                ClTermBallEvaluator worker(structure_, gaifman_, 1, nullptr,
                                           nullptr, tables_);
                Placement placement = worker.Plan(basic);
                for (std::size_t a = begin; a < end; ++a) {
                  if (progress_ != nullptr && progress_->ShouldStop()) return;
                  Result<CountInt> c = worker.CountAnchored(
                      &placement, static_cast<ElemId>(a));
                  if (!c.ok()) {
                    chunk_status[chunk] = c.status();
                    return;
                  }
                  out[a] = *c;
                  if (progress_ != nullptr) {
                    progress_->Advance(ProgressPhase::kClTerm, 1);
                  }
                }
                anchors.Add(chunk, worker.explore_stats_.anchors);
                balls.Add(chunk, worker.explore_stats_.balls);
                placements.Add(chunk, worker.explore_stats_.placements);
              });
  if (progress_ != nullptr && progress_->cancelled()) {
    return progress_->DeadlineStatus();
  }
  for (const Status& s : chunk_status) {
    if (!s.ok()) return s;
  }
  explore_stats_.anchors += anchors.Total();
  explore_stats_.balls += balls.Total();
  explore_stats_.placements += placements.Total();
  FlushExploreDelta(before);
  return out;
}

Result<CountInt> ClTermBallEvaluator::EvaluateBasicGround(
    const BasicClTerm& basic) {
  FOCQ_CHECK(!basic.unary);
  const std::size_t n = structure_.universe_size();
  const ExploreStats before = explore_stats_;
  if (progress_ != nullptr) {
    progress_->AddTotal(ProgressPhase::kClTerm, static_cast<std::int64_t>(n));
  }
  if (num_threads_ <= 1) {
    CountInt total = 0;
    Placement placement = Plan(basic);
    for (ElemId a = 0; a < n; ++a) {
      if (progress_ != nullptr && progress_->ShouldStop()) {
        return progress_->DeadlineStatus();
      }
      Result<CountInt> c = CountAnchored(&placement, a);
      if (!c.ok()) return c.status();
      auto sum = CheckedAdd(total, *c);
      if (!sum) return Status::OutOfRange("cl-term count overflows int64");
      total = *sum;
      if (progress_ != nullptr) progress_->Advance(ProgressPhase::kClTerm, 1);
    }
    FlushExploreDelta(before);
    return total;
  }
  // Per-chunk partial counts, reduced in chunk order. Anchored counts are
  // non-negative, so the partial sums overflow exactly when the serial
  // running sum would: the parallel value (and error) is bit-identical.
  const std::size_t num_chunks = MakeChunkGrid(n, num_threads_).num_chunks;
  std::vector<CountInt> partial(num_chunks, 0);
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  ShardedCounter anchors(num_chunks), balls(num_chunks),
      placements(num_chunks);
  ParallelFor(num_threads_, n,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                ClTermBallEvaluator worker(structure_, gaifman_, 1, nullptr,
                                           nullptr, tables_);
                Placement placement = worker.Plan(basic);
                CountInt acc = 0;
                for (std::size_t a = begin; a < end; ++a) {
                  if (progress_ != nullptr && progress_->ShouldStop()) return;
                  Result<CountInt> c = worker.CountAnchored(
                      &placement, static_cast<ElemId>(a));
                  if (!c.ok()) {
                    chunk_status[chunk] = c.status();
                    return;
                  }
                  auto sum = CheckedAdd(acc, *c);
                  if (!sum) {
                    chunk_status[chunk] =
                        Status::OutOfRange("cl-term count overflows int64");
                    return;
                  }
                  acc = *sum;
                  if (progress_ != nullptr) {
                    progress_->Advance(ProgressPhase::kClTerm, 1);
                  }
                }
                partial[chunk] = acc;
                anchors.Add(chunk, worker.explore_stats_.anchors);
                balls.Add(chunk, worker.explore_stats_.balls);
                placements.Add(chunk, worker.explore_stats_.placements);
              });
  if (progress_ != nullptr && progress_->cancelled()) {
    return progress_->DeadlineStatus();
  }
  explore_stats_.anchors += anchors.Total();
  explore_stats_.balls += balls.Total();
  explore_stats_.placements += placements.Total();
  FlushExploreDelta(before);
  CountInt total = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    if (!chunk_status[c].ok()) return chunk_status[c];
    auto sum = CheckedAdd(total, partial[c]);
    if (!sum) return Status::OutOfRange("cl-term count overflows int64");
    total = *sum;
  }
  return total;
}

Result<CountInt> ClTermBallEvaluator::EvaluateGround(const ClTerm& term) {
  FOCQ_CHECK(term.IsGround());
  Result<std::vector<CountInt>> values = EvaluateAll(term);
  if (!values.ok()) return values.status();
  // Ground terms are element-independent; EvaluateAll returns one slot.
  return (*values)[0];
}

Result<std::vector<CountInt>> ClTermBallEvaluator::EvaluateAll(
    const ClTerm& term) {
  bool ground = term.IsGround();
  std::size_t slots = ground ? 1 : structure_.universe_size();

  // Evaluate every basic factor once.
  std::vector<std::vector<CountInt>> factor_values;  // per basic: 1 or n slots
  factor_values.reserve(term.basics().size());
  for (const BasicClTerm& b : term.basics()) {
    if (b.unary) {
      Result<std::vector<CountInt>> v = EvaluateBasicAll(b);
      if (!v.ok()) return v.status();
      factor_values.push_back(std::move(*v));
    } else {
      Result<CountInt> v = EvaluateBasicGround(b);
      if (!v.ok()) return v.status();
      factor_values.push_back({*v});
    }
  }
  return CombineMonomials(term, factor_values, slots);
}

Result<std::vector<CountInt>> CombineMonomials(
    const ClTerm& term, const std::vector<std::vector<CountInt>>& factor_values,
    std::size_t slots) {
  std::vector<CountInt> out(slots, 0);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    CountInt acc = 0;
    for (const ClTerm::Monomial& m : term.monomials()) {
      CountInt prod = m.coeff;
      bool overflow = false;
      for (int f : m.factors) {
        const std::vector<CountInt>& vals = factor_values[f];
        CountInt v = vals.size() == 1 ? vals[0] : vals[slot];
        auto p = CheckedMul(prod, v);
        if (!p) {
          overflow = true;
          break;
        }
        prod = *p;
      }
      if (overflow) return Status::OutOfRange("cl-term value overflows int64");
      auto s = CheckedAdd(acc, prod);
      if (!s) return Status::OutOfRange("cl-term value overflows int64");
      acc = *s;
    }
    out[slot] = acc;
  }
  return out;
}

std::uint32_t RequiredCoverRadius(const BasicClTerm& basic) {
  return static_cast<std::uint32_t>(basic.width()) * basic.Separation();
}

std::set<std::uint32_t> BallRadii(const ClTerm& term) {
  std::set<std::uint32_t> radii;
  auto collect = [&radii](auto&& self, const Expr& e) -> void {
    if (e.kind == ExprKind::kDistAtom) radii.insert(e.dist_bound);
    for (const ExprRef& c : e.children) self(self, *c);
  };
  for (const BasicClTerm& basic : term.basics()) {
    if (basic.width() > 1) radii.insert(basic.Separation());
    collect(collect, basic.kernel.node());
  }
  return radii;
}

}  // namespace focq
