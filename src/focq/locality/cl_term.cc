#include "focq/locality/cl_term.h"

#include <algorithm>
#include <optional>

#include "focq/util/checked_arith.h"
#include "focq/util/thread_pool.h"

namespace focq {
namespace {

bool BasicEquals(const BasicClTerm& a, const BasicClTerm& b) {
  return a.vars == b.vars && a.unary == b.unary && a.radius == b.radius &&
         a.pattern == b.pattern && ExprEquals(a.kernel.node(), b.kernel.node());
}

Status CoefficientOverflow() {
  return Status::OutOfRange("cl-term coefficient overflows int64");
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

bool ClTerm::MergeMonomial(Monomial m) {
  std::sort(m.factors.begin(), m.factors.end());
  for (Monomial& existing : monomials_) {
    if (existing.factors != m.factors) continue;
    std::optional<CountInt> sum = CheckedAdd(existing.coeff, m.coeff);
    if (!sum) return false;
    existing.coeff = *sum;
    return true;
  }
  monomials_.push_back(std::move(m));
  return true;
}

void ClTerm::DropZeroMonomials() {
  std::erase_if(monomials_, [](const Monomial& m) { return m.coeff == 0; });
}

Result<ClTerm> ClTerm::Add(const ClTerm& a, const ClTerm& b) {
  ClTerm out = a;
  for (const Monomial& m : b.monomials_) {
    Monomial copy = m;
    for (int& f : copy.factors) f = out.InternBasic(b.basics_[f]);
    if (!out.MergeMonomial(std::move(copy))) return CoefficientOverflow();
  }
  out.DropZeroMonomials();
  return out;
}

Result<ClTerm> ClTerm::Negate(const ClTerm& a) {
  ClTerm out = a;
  for (Monomial& m : out.monomials_) {
    std::optional<CountInt> negated = CheckedSub(0, m.coeff);
    if (!negated) return CoefficientOverflow();
    m.coeff = *negated;
  }
  return out;
}

Result<ClTerm> ClTerm::Sub(const ClTerm& a, const ClTerm& b) {
  Result<ClTerm> negated = Negate(b);
  if (!negated.ok()) return negated;
  return Add(a, *negated);
}

Result<ClTerm> ClTerm::Mul(const ClTerm& a, const ClTerm& b) {
  ClTerm out;
  out.basics_ = a.basics_;
  std::vector<int> b_remap(b.basics_.size());
  for (std::size_t i = 0; i < b.basics_.size(); ++i) {
    b_remap[i] = out.InternBasic(b.basics_[i]);
  }
  for (const Monomial& ma : a.monomials_) {
    for (const Monomial& mb : b.monomials_) {
      std::optional<CountInt> coeff = CheckedMul(ma.coeff, mb.coeff);
      if (!coeff) return CoefficientOverflow();
      Monomial prod{*coeff, ma.factors};
      for (int f : mb.factors) prod.factors.push_back(b_remap[f]);
      if (!out.MergeMonomial(std::move(prod))) return CoefficientOverflow();
    }
  }
  out.DropZeroMonomials();
  return out;
}

namespace {

/// One basic, planned for one evaluation call on one structure: the
/// placement order, the ball each position draws its candidates from, and
/// the compiled kernel. Read-only once built, so chunk workers share it.
/// Relation pointers point into the structure's relation vector, which
/// AddUnarySymbol grows: a plan never outlives its call.
struct BasicPlan {
  /// The kernel program's operations. Slots are pattern positions.
  enum class Code : std::uint8_t {
    kConst,   // value
    kEqual,   // elems[a] == elems[b]
    kMember,  // members[index][elems[a]]: an arity-1 atom
    kAtom,    // relations[index] holds elems[slots[a..b)]: arity >= 2
    kDist,    // dist(elems[a], elems[b]) <= radii[index]
    kNot,     // the child at pc + 1
    kAnd,     // children from pc + 1, each starting at its sibling's end
    kOr,
    kCall,    // calls[index] on the LocalEvaluator, Env bound from elems
  };
  struct Op {
    Code code = Code::kConst;
    bool value = false;
    std::uint32_t end = 0;  // one past this op's subtree
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t index = 0;
  };

  const BasicClTerm* basic = nullptr;
  // Pattern positions in BFS order from y1: each later position draws its
  // candidates from a ball of an already placed pattern neighbour, its
  // parent.
  std::vector<int> order;
  std::vector<int> parent;
  // By position: the radius, as an index into radii, of the parent's ball
  // its candidates come from (the separation unless a kernel dist narrows
  // it).
  std::vector<std::uint32_t> source;
  std::uint32_t separation = 0;  // index into radii; width >= 2 only
  // The kernel, ops in prefix order, and what its leaves resolved to.
  std::vector<Op> ops;
  std::vector<const Relation*> relations;
  std::vector<std::uint32_t> slots;
  std::vector<SymbolId> member_symbols;
  std::vector<std::vector<std::uint8_t>> members;  // dense over the universe
  std::vector<std::uint32_t> radii;
  std::vector<Formula> calls;
};

/// The index of `value` in *values, appended if absent.
template <typename T>
std::uint32_t IndexOf(std::vector<T>* values, T value) {
  auto it = std::find(values->begin(), values->end(), value);
  if (it == values->end()) it = values->insert(it, value);
  return static_cast<std::uint32_t>(it - values->begin());
}

/// Compiles a kernel into plan->ops, resolving every leaf once: a symbol
/// must exist with the atom's arity and every variable must be a pattern
/// position, checked here rather than per placement. Nodes the program does
/// not cover (guarded quantifiers, counting) become call ops.
class KernelCompiler {
 public:
  KernelCompiler(const Structure& structure, BasicPlan* plan)
      : structure_(structure), plan_(*plan) {}

  void Emit(const ExprRef& ref) {
    using Code = BasicPlan::Code;
    const Expr& e = *ref;
    const std::size_t at = plan_.ops.size();
    plan_.ops.emplace_back();
    BasicPlan::Op op;
    switch (e.kind) {
      case ExprKind::kTrue:
      case ExprKind::kFalse:
        op.value = e.kind == ExprKind::kTrue;
        break;
      case ExprKind::kEqual:
        op.code = Code::kEqual;
        op.a = SlotOf(e.vars[0]);
        op.b = SlotOf(e.vars[1]);
        break;
      case ExprKind::kDistAtom:
        op.code = Code::kDist;
        op.a = SlotOf(e.vars[0]);
        op.b = SlotOf(e.vars[1]);
        op.index = IndexOf(&plan_.radii, e.dist_bound);
        break;
      case ExprKind::kAtom: {
        std::optional<SymbolId> id = structure_.signature().Find(e.symbol_name);
        FOCQ_CHECK(id.has_value());
        const Relation& relation = structure_.relation(*id);
        FOCQ_CHECK_EQ(relation.arity(), static_cast<int>(e.vars.size()));
        if (relation.arity() == 0) {
          op.value = relation.NumTuples() > 0;
        } else if (relation.arity() == 1) {
          op.code = Code::kMember;
          op.a = SlotOf(e.vars[0]);
          op.index = MemberIndex(*id, relation);
        } else {
          op.code = Code::kAtom;
          op.index = static_cast<std::uint32_t>(plan_.relations.size());
          plan_.relations.push_back(&relation);
          op.a = static_cast<std::uint32_t>(plan_.slots.size());
          for (Var v : e.vars) plan_.slots.push_back(SlotOf(v));
          op.b = static_cast<std::uint32_t>(plan_.slots.size());
        }
        break;
      }
      case ExprKind::kNot:
      case ExprKind::kAnd:
      case ExprKind::kOr:
        op.code = e.kind == ExprKind::kNot   ? Code::kNot
                  : e.kind == ExprKind::kAnd ? Code::kAnd
                                             : Code::kOr;
        for (const ExprRef& child : e.children) Emit(child);
        break;
      default:
        op.code = Code::kCall;
        op.index = static_cast<std::uint32_t>(plan_.calls.size());
        plan_.calls.emplace_back(ref);
        break;
    }
    op.end = static_cast<std::uint32_t>(plan_.ops.size());
    plan_.ops[at] = op;
  }

 private:
  std::uint32_t SlotOf(Var v) const {
    const std::vector<Var>& vars = plan_.basic->vars;
    auto it = std::find(vars.begin(), vars.end(), v);
    FOCQ_CHECK(it != vars.end());
    return static_cast<std::uint32_t>(it - vars.begin());
  }

  std::uint32_t MemberIndex(SymbolId id, const Relation& relation) {
    const std::uint32_t index = IndexOf(&plan_.member_symbols, id);
    if (index == plan_.members.size()) {
      std::vector<std::uint8_t>& member = plan_.members.emplace_back(
          structure_.universe_size(), std::uint8_t{0});
      for (TupleRef t : relation.tuples()) member[t[0]] = 1;
    }
    return index;
  }

  const Structure& structure_;
  BasicPlan& plan_;
};

BasicPlan PlanBasic(const BasicClTerm& basic, const Structure& structure) {
  const int k = basic.width();
  FOCQ_CHECK_GE(k, 1);
  FOCQ_CHECK(basic.pattern.IsConnected());
  FOCQ_CHECK_EQ(basic.pattern.num_vertices(), k);
  BasicPlan plan;
  plan.basic = &basic;
  plan.order = {0};
  plan.parent.assign(k, -1);
  std::vector<bool> in_order(k, false);
  in_order[0] = true;
  for (std::size_t head = 0; head < plan.order.size(); ++head) {
    int u = plan.order[head];
    for (int v = 0; v < k; ++v) {
      if (!in_order[v] && basic.pattern.HasEdge(u, v)) {
        in_order[v] = true;
        plan.parent[v] = u;
        plan.order.push_back(v);
      }
    }
  }
  FOCQ_CHECK_EQ(plan.order.size(), static_cast<std::size_t>(k));
  KernelCompiler(structure, &plan).Emit(basic.kernel.ref());

  // The kernel's top-level conjuncts, nested conjunctions flattened.
  using Code = BasicPlan::Code;
  std::vector<std::uint32_t> conjuncts;
  auto split = [&](auto&& self, std::uint32_t pc) -> void {
    if (plan.ops[pc].code != Code::kAnd) {
      conjuncts.push_back(pc);
      return;
    }
    for (std::uint32_t c = pc + 1; c < plan.ops[pc].end; c = plan.ops[c].end) {
      self(self, c);
    }
  };
  split(split, 0);

  // A conjunct dist(parent, pos) <= d with d below the separation narrows
  // pos's candidates to the parent's d-ball, the smallest d winning; every
  // conjunct dist(parent, pos) then holds by construction and becomes the
  // constant true.
  const std::uint32_t separation = basic.Separation();
  if (k > 1) plan.separation = IndexOf(&plan.radii, separation);
  plan.source.assign(k, plan.separation);
  // The position a dist op joins to its parent, or -1.
  auto child = [&plan](const BasicPlan::Op& op) -> int {
    if (op.code != Code::kDist) return -1;
    const int a = static_cast<int>(op.a), b = static_cast<int>(op.b);
    return plan.parent[a] == b ? a : plan.parent[b] == a ? b : -1;
  };
  for (std::uint32_t pc : conjuncts) {
    const BasicPlan::Op& op = plan.ops[pc];
    const int pos = child(op);
    if (pos < 0 || plan.radii[op.index] >= separation) continue;
    std::uint32_t& source = plan.source[pos];
    if (source == plan.separation ||
        plan.radii[op.index] < plan.radii[source]) {
      source = op.index;
    }
  }
  for (std::uint32_t pc : conjuncts) {
    const int pos = child(plan.ops[pc]);
    if (pos >= 0 && plan.source[pos] != plan.separation) {
      plan.ops[pc].code = Code::kConst;
      plan.ops[pc].value = true;
    }
  }
  return plan;
}

/// One worker's mutable side of a plan: its oracles (a lazy oracle is not
/// thread-safe, so each worker has its own), the partial placement, the
/// atom-probe tuple, the Env that call ops read, and its exploration tally.
/// The enumeration itself allocates nothing once the balls it reads exist.
struct Placement {
  Placement(const BasicPlan& p, LocalEvaluator* e) : plan(p), eval(e) {
    for (std::uint32_t d : plan.radii) oracles.push_back(&eval->OracleFor(d));
    elems.assign(plan.basic->width(), 0);
    tuple.assign(plan.slots.size(), 0);
  }

  const BasicPlan& plan;
  LocalEvaluator* eval;
  std::vector<ClosenessOracle*> oracles;  // by plan.radii
  std::vector<ElemId> elems;              // by pattern position
  std::vector<ElemId> tuple;              // by plan.slots
  Env env;
  ClTermBallEvaluator::ExploreStats stats;
};

/// Runs the kernel program's subtree at `pc` on the placement p->elems.
bool Run(const BasicPlan& plan, std::uint32_t pc, Placement* p) {
  using Code = BasicPlan::Code;
  const BasicPlan::Op& op = plan.ops[pc];
  const ElemId* elems = p->elems.data();
  switch (op.code) {
    case Code::kConst:
      return op.value;
    case Code::kEqual:
      return elems[op.a] == elems[op.b];
    case Code::kMember:
      return plan.members[op.index][elems[op.a]] != 0;
    case Code::kAtom:
      for (std::uint32_t i = op.a; i < op.b; ++i) {
        p->tuple[i] = elems[plan.slots[i]];
      }
      return plan.relations[op.index]->Contains(
          TupleRef(p->tuple.data() + op.a, op.b - op.a));
    case Code::kDist:
      return p->oracles[op.index]->Close(elems[op.a], elems[op.b]);
    case Code::kNot:
      return !Run(plan, pc + 1, p);
    case Code::kAnd:
      for (std::uint32_t c = pc + 1; c < op.end; c = plan.ops[c].end) {
        if (!Run(plan, c, p)) return false;
      }
      return true;
    case Code::kOr:
      for (std::uint32_t c = pc + 1; c < op.end; c = plan.ops[c].end) {
        if (Run(plan, c, p)) return true;
      }
      return false;
    case Code::kCall:
      return p->eval->Satisfies(plan.calls[op.index], &p->env);
  }
  FOCQ_CHECK(false);
  return false;
}

/// Checks the kernel on the full placement p->elems.
bool KernelHolds(Placement* p) {
  ++p->stats.placements;
  if (!p->plan.calls.empty()) {
    const std::vector<Var>& vars = p->plan.basic->vars;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      p->env.Bind(vars[i], p->elems[i]);
    }
  }
  return Run(p->plan, 0, p);
}

/// Depth-first placement of plan.order[depth..]; adds every full placement
/// whose kernel holds to *count.
void Place(Placement* p, int depth, CountInt* count, bool* overflow) {
  const BasicPlan& plan = p->plan;
  const PatternGraph& pattern = plan.basic->pattern;
  if (depth == plan.basic->width()) {
    if (!KernelHolds(p)) return;
    auto next = CheckedAdd(*count, 1);
    if (!next) {
      *overflow = true;
      return;
    }
    *count = *next;
    return;
  }
  const int pos = plan.order[depth];
  const int parent = plan.parent[pos];
  ClosenessOracle* separation = p->oracles[plan.separation];
  ++p->stats.balls;
  // Candidates: a ball of the parent no wider than the separation ball, so
  // the parent is close to each of them by construction; every other placed
  // position must be close to the candidate exactly when the pattern joins
  // it to `pos`.
  for (ElemId c : p->oracles[plan.source[pos]]->BallOf(p->elems[parent])) {
    bool ok = true;
    for (int j = 0; j < depth && ok; ++j) {
      const int i = plan.order[j];
      if (i == parent) continue;
      ok = separation->Close(p->elems[i], c) == pattern.HasEdge(i, pos);
    }
    if (!ok) continue;
    p->elems[pos] = c;
    Place(p, depth + 1, count, overflow);
    if (*overflow) return;
  }
}

/// Counts the placements anchored at y1 = anchor whose kernel holds.
Result<CountInt> CountAnchored(Placement* p, ElemId anchor) {
  ++p->stats.anchors;
  p->elems[0] = anchor;
  CountInt count = 0;
  bool overflow = false;
  Place(p, 1, &count, &overflow);
  if (overflow) return Status::OutOfRange("cl-term count overflows int64");
  return count;
}

void AddStats(const ClTermBallEvaluator::ExploreStats& from,
              ClTermBallEvaluator::ExploreStats* to) {
  to->anchors += from.anchors;
  to->balls += from.balls;
  to->placements += from.placements;
}

/// The unit count of the chunk grid that counts every anchor of
/// `structure`: anchors, or through a view clusters.
std::size_t Units(const Structure& structure, const ClusterView* view) {
  return view == nullptr ? structure.universe_size() : view->clusters->size();
}

}  // namespace

ClTermBallEvaluator::ClTermBallEvaluator(const Structure& structure,
                                         const Graph& gaifman,
                                         const Instruments& in,
                                         const BallTables* tables,
                                         const ClusterViews* views)
    : structure_(structure),
      gaifman_(gaifman),
      in_(in),
      tables_(tables),
      views_(views),
      eval_(structure, gaifman, tables) {
  FOCQ_CHECK(tables == nullptr || views == nullptr);
  in_.num_threads = EffectiveThreads(in.num_threads);
}

const ClusterView* ClTermBallEvaluator::ViewFor(
    const BasicClTerm& basic) const {
  if (views_ == nullptr) return nullptr;
  const std::uint32_t radius = RequiredCoverRadius(basic);
  auto it = views_->find(radius);
  if (it == views_->end()) return nullptr;
  FOCQ_CHECK_GE(it->second->radius, radius);
  FOCQ_CHECK_EQ(it->second->anchors.size(), structure_.universe_size());
  return it->second;
}

Result<std::vector<CountInt>> ClTermBallEvaluator::EvaluateBasicAt(
    const BasicClTerm& basic, std::span<const ElemId> anchors) {
  const BasicPlan plan = PlanBasic(basic, structure_);
  Placement placement(plan, &eval_);
  std::vector<CountInt> out(anchors.size(), 0);
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    Result<CountInt> c = CountAnchored(&placement, anchors[i]);
    if (!c.ok()) return c.status();
    out[i] = *c;
  }
  AddStats(placement.stats, &explore_stats_);
  return out;
}

template <typename Record>
Status ClTermBallEvaluator::CountEveryAnchor(const BasicClTerm& basic,
                                             const ClusterView* view,
                                             Record record) {
  const std::size_t units = Units(structure_, view);
  const BasicPlan plan = PlanBasic(basic, structure_);
  in_.AddTotal(ProgressPhase::kClTerm, static_cast<std::int64_t>(units));
  // Chunks record disjoint anchors or per-chunk partials and surface errors
  // in chunk order, so failure reporting is deterministic too. Each chunk
  // worker shares the plan, the lent tables and the view and owns its
  // oracles and scratch (one chunk uses this evaluator's), so it confines
  // only its own evaluator. Worker tallies land in per-chunk shards and
  // reduce after the join, so the flushed totals match the serial run.
  const std::size_t num_chunks =
      MakeChunkGrid(units, in_.num_threads).num_chunks;
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  ShardedCounter anchors(num_chunks), balls(num_chunks),
      placements(num_chunks);
  ParallelFor(in_.num_threads, units, [&](std::size_t chunk,
                                          std::size_t begin, std::size_t end) {
    std::optional<LocalEvaluator> own;
    LocalEvaluator* eval = num_chunks == 1
                               ? &eval_
                               : &own.emplace(structure_, gaifman_, tables_);
    Placement placement(plan, eval);
    // Polled before every anchor, a cluster's included: a cover may have a
    // single cluster.
    auto count = [&](ElemId anchor) {
      if (in_.ShouldStop()) return false;
      Result<CountInt> c = CountAnchored(&placement, anchor);
      if (!c.ok()) {
        chunk_status[chunk] = c.status();
      } else if (!record(chunk, anchor, *c)) {
        chunk_status[chunk] =
            Status::OutOfRange("cl-term count overflows int64");
      }
      return chunk_status[chunk].ok();
    };
    auto count_unit = [&](std::size_t u) {
      if (view == nullptr) return count(static_cast<ElemId>(u));
      const std::uint32_t first = view->offsets[u], last = view->offsets[u + 1];
      if (first == last) return true;
      eval->Confine((*view->clusters)[u]);
      for (std::uint32_t i = first; i < last; ++i) {
        if (!count(view->anchors[i])) return false;
      }
      return true;
    };
    for (std::size_t u = begin; u < end; ++u) {
      if (!count_unit(u)) break;
      in_.Advance(ProgressPhase::kClTerm, 1);
    }
    if (view != nullptr) eval->Confine({});
    anchors.Add(chunk, placement.stats.anchors);
    balls.Add(chunk, placement.stats.balls);
    placements.Add(chunk, placement.stats.placements);
  });
  if (in_.Cancelled()) return in_.DeadlineStatus();
  for (const Status& s : chunk_status) {
    if (!s.ok()) return s;
  }
  const ExploreStats delta{anchors.Total(), balls.Total(), placements.Total()};
  AddStats(delta, &explore_stats_);
  if (view == nullptr) {
    in_.Count("clterm.basics_evaluated", 1);
  } else {
    in_.Count("cover_eval.basics_evaluated", 1);
    in_.Count("cover_eval.clusters_materialized", view->clusters_evaluated);
    in_.Count("cover_eval.cluster_elements", view->cluster_elements);
  }
  in_.Count("clterm.anchors_evaluated", delta.anchors);
  in_.Count("clterm.balls_fetched", delta.balls);
  in_.Count("clterm.placements_checked", delta.placements);
  return Status::Ok();
}

Result<std::vector<CountInt>> ClTermBallEvaluator::EvaluateBasicAll(
    const BasicClTerm& basic) {
  FOCQ_CHECK(basic.unary);
  std::vector<CountInt> out(structure_.universe_size(), 0);
  Status status = CountEveryAnchor(
      basic, ViewFor(basic),
      [&out](std::size_t, ElemId anchor, CountInt count) {
        out[anchor] = count;
        return true;
      });
  if (!status.ok()) return status;
  return out;
}

Result<CountInt> ClTermBallEvaluator::EvaluateBasicGround(
    const BasicClTerm& basic) {
  FOCQ_CHECK(!basic.unary);
  // Per-chunk partial counts of anchors or clusters, reduced in chunk
  // order. Anchored counts are non-negative, so the partial sums overflow
  // exactly when the serial running sum would: the parallel value (and
  // error) is bit-identical.
  const ClusterView* view = ViewFor(basic);
  std::vector<CountInt> partial(
      MakeChunkGrid(Units(structure_, view), in_.num_threads).num_chunks, 0);
  Status status = CountEveryAnchor(
      basic, view, [&partial](std::size_t chunk, ElemId, CountInt count) {
        auto sum = CheckedAdd(partial[chunk], count);
        if (sum) partial[chunk] = *sum;
        return sum.has_value();
      });
  if (!status.ok()) return status;
  CountInt total = 0;
  for (CountInt p : partial) {
    auto sum = CheckedAdd(total, p);
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
  return SaturatedRadius(static_cast<std::uint64_t>(basic.width()) *
                         basic.Separation());
}

ClusterView MakeClusterView(const std::vector<std::vector<ElemId>>& clusters,
                            std::span<const std::uint32_t> assignment,
                            std::uint32_t radius) {
  ClusterView view;
  view.radius = radius;
  view.clusters = &clusters;
  // A counting sort over the assignment, so each cluster's anchors stay in
  // increasing order.
  view.offsets.assign(clusters.size() + 1, 0);
  for (std::uint32_t c : assignment) {
    FOCQ_CHECK_LT(c, clusters.size());
    ++view.offsets[c + 1];
  }
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    if (view.offsets[c + 1] > 0) {
      ++view.clusters_evaluated;
      view.cluster_elements += static_cast<std::int64_t>(clusters[c].size());
    }
    view.offsets[c + 1] += view.offsets[c];
  }
  std::vector<std::uint32_t> next(view.offsets.begin(),
                                  view.offsets.end() - 1);
  view.anchors.resize(assignment.size());
  for (ElemId a = 0; a < assignment.size(); ++a) {
    view.anchors[next[assignment[a]]++] = a;
  }
  return view;
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
