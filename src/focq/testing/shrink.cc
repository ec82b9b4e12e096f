#include "focq/testing/shrink.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "focq/logic/build.h"
#include "focq/util/check.h"

namespace focq::fuzz {
namespace {

std::size_t CountNodes(const Expr& e) {
  std::size_t n = 1;
  for (const ExprRef& c : e.children) n += CountNodes(*c);
  return n;
}

// Rebuilds `node` with the subtree at preorder index `target` replaced by
// `replacement`. `counter` carries the preorder position across recursion.
ExprRef ReplaceAt(const ExprRef& node, std::size_t target,
                  const ExprRef& replacement, std::size_t* counter) {
  if ((*counter)++ == target) return replacement;
  bool changed = false;
  std::vector<ExprRef> children;
  children.reserve(node->children.size());
  for (const ExprRef& c : node->children) {
    ExprRef next = ReplaceAt(c, target, replacement, counter);
    changed |= next != c;
    children.push_back(std::move(next));
  }
  if (!changed) return node;
  auto copy = std::make_shared<Expr>(*node);
  copy->children = std::move(children);
  return copy;
}

// The preorder node at `target` (null when out of range).
const Expr* NodeAt(const Expr& node, std::size_t target, std::size_t* counter) {
  if ((*counter)++ == target) return &node;
  for (const ExprRef& c : node.children) {
    const Expr* found = NodeAt(*c, target, counter);
    if (found != nullptr) return found;
  }
  return nullptr;
}

// Candidate replacements for one node, smallest first. Every candidate has
// the same kind class (formula vs term), introduces no new free variables,
// and preserves FOC1 membership.
std::vector<ExprRef> ReplacementsFor(const Expr& e) {
  std::vector<ExprRef> out;
  if (IsFormulaKind(e.kind)) {
    if (e.kind != ExprKind::kTrue) out.push_back(True().ref());
    if (e.kind != ExprKind::kFalse) out.push_back(False().ref());
    switch (e.kind) {
      case ExprKind::kNot:
        out.push_back(e.children[0]);
        break;
      case ExprKind::kOr:
      case ExprKind::kAnd:
        for (const ExprRef& c : e.children) out.push_back(c);
        break;
      case ExprKind::kExists:
      case ExprKind::kForall: {
        // Stripping the quantifier is sound only when the binder does not
        // occur free in the body (it would otherwise become a new free var).
        std::vector<Var> body_free = FreeVars(*e.children[0]);
        if (std::find(body_free.begin(), body_free.end(), e.vars[0]) ==
            body_free.end()) {
          out.push_back(e.children[0]);
        }
        break;
      }
      default:
        break;
    }
  } else {
    bool is_zero = e.kind == ExprKind::kIntConst && e.int_value == 0;
    bool is_one = e.kind == ExprKind::kIntConst && e.int_value == 1;
    if (!is_zero) out.push_back(Int(0).ref());
    if (!is_one && e.kind != ExprKind::kIntConst) out.push_back(Int(1).ref());
    if (e.kind == ExprKind::kAdd || e.kind == ExprKind::kMul) {
      for (const ExprRef& c : e.children) out.push_back(c);
    }
  }
  return out;
}

}  // namespace

Structure DropTuple(const Structure& a, SymbolId rel, std::size_t tuple_index) {
  Structure out(a.signature(), a.universe_size());
  for (SymbolId id = 0; id < a.signature().NumSymbols(); ++id) {
    const auto tuples = a.relation(id).tuples();
    for (std::size_t i = 0; i < tuples.size(); ++i) {
      if (id == rel && i == tuple_index) continue;
      out.AddTuple(id, tuples[i]);
    }
  }
  return out;
}

Structure DropVertex(const Structure& a, ElemId v) {
  FOCQ_CHECK(a.universe_size() >= 2);
  std::vector<ElemId> keep;
  keep.reserve(a.universe_size() - 1);
  for (ElemId e = 0; e < a.universe_size(); ++e) {
    if (e != v) keep.push_back(e);
  }
  return a.Induced(keep);
}

namespace {

// Rewrites an update sequence after vertex `v` was dropped: updates whose
// tuple mentions v are removed (their target element no longer exists),
// every id above v shifts down by one (Induced renumbering).
void RemapUpdatesAfterVertexDrop(std::vector<TupleUpdate>* updates, ElemId v) {
  std::vector<TupleUpdate> kept;
  kept.reserve(updates->size());
  for (TupleUpdate& u : *updates) {
    if (std::find(u.tuple.begin(), u.tuple.end(), v) != u.tuple.end()) {
      continue;
    }
    for (ElemId& e : u.tuple) {
      if (e > v) --e;
    }
    kept.push_back(std::move(u));
  }
  *updates = std::move(kept);
}

// One pass dropping whole updates — the coarsest reduction of an
// update-sequence case, tried before structural shrinking so the repro keeps
// only the steps that matter.
bool ShrinkUpdateStep(DiffCase* c,
                      const std::function<bool(const DiffCase&)>& fails,
                      const ShrinkLimits& limits, ShrinkStats* stats) {
  for (std::size_t i = 0; i < c->updates.size(); ++i) {
    if (stats->evaluations >= limits.max_evaluations) return false;
    DiffCase candidate = *c;
    candidate.updates.erase(candidate.updates.begin() +
                            static_cast<std::ptrdiff_t>(i));
    ++stats->evaluations;
    if (fails(candidate)) {
      *c = std::move(candidate);
      ++stats->reductions;
      return true;
    }
  }
  return false;
}

// One pass of structure reductions; returns true when a reduction applied.
bool ShrinkStructureStep(DiffCase* c,
                         const std::function<bool(const DiffCase&)>& fails,
                         const ShrinkLimits& limits, ShrinkStats* stats) {
  // Vertex deletions first: they remove whole columns of tuples at once.
  for (ElemId v = 0; v < c->structure.universe_size() &&
                     c->structure.universe_size() >= 2;
       ++v) {
    if (stats->evaluations >= limits.max_evaluations) return false;
    DiffCase candidate = *c;
    candidate.structure = DropVertex(c->structure, v);
    RemapUpdatesAfterVertexDrop(&candidate.updates, v);
    ++stats->evaluations;
    if (fails(candidate)) {
      *c = std::move(candidate);
      ++stats->reductions;
      return true;
    }
  }
  for (SymbolId id = 0; id < c->structure.signature().NumSymbols(); ++id) {
    std::size_t tuples = c->structure.relation(id).NumTuples();
    for (std::size_t i = 0; i < tuples; ++i) {
      if (stats->evaluations >= limits.max_evaluations) return false;
      DiffCase candidate = *c;
      candidate.structure = DropTuple(c->structure, id, i);
      ++stats->evaluations;
      if (fails(candidate)) {
        *c = std::move(candidate);
        ++stats->reductions;
        return true;
      }
    }
  }
  return false;
}

// One pass of expression reductions over formula, term, and head terms.
bool ShrinkExprStep(DiffCase* c,
                    const std::function<bool(const DiffCase&)>& fails,
                    const ShrinkLimits& limits, ShrinkStats* stats) {
  // Dropping a whole head term is the coarsest query reduction.
  for (std::size_t i = 0; i < c->head_terms.size(); ++i) {
    if (stats->evaluations >= limits.max_evaluations) return false;
    DiffCase candidate = *c;
    candidate.head_terms.erase(candidate.head_terms.begin() +
                               static_cast<std::ptrdiff_t>(i));
    ++stats->evaluations;
    if (fails(candidate)) {
      *c = std::move(candidate);
      ++stats->reductions;
      return true;
    }
  }

  // Node-wise reductions on every expression the case carries. `slot` -1 is
  // the main formula/term; slot >= 0 is a head term.
  for (int slot = -1; slot < static_cast<int>(c->head_terms.size()); ++slot) {
    ExprRef root;
    if (slot < 0) {
      root = c->mode == CaseMode::kTerm ? c->term.ref() : c->formula.ref();
    } else {
      root = c->head_terms[static_cast<std::size_t>(slot)].ref();
    }
    if (root == nullptr) continue;
    std::size_t nodes = CountNodes(*root);
    for (std::size_t index = 0; index < nodes; ++index) {
      std::size_t counter = 0;
      const Expr* node = NodeAt(*root, index, &counter);
      FOCQ_CHECK(node != nullptr);
      for (const ExprRef& replacement : ReplacementsFor(*node)) {
        if (IsFormulaKind(node->kind) != IsFormulaKind(replacement->kind)) {
          continue;
        }
        if (stats->evaluations >= limits.max_evaluations) return false;
        counter = 0;
        ExprRef shrunk = ReplaceAt(root, index, replacement, &counter);
        if (shrunk == root) continue;
        DiffCase candidate = *c;
        if (slot < 0) {
          if (c->mode == CaseMode::kTerm) {
            candidate.term = Term(shrunk);
          } else {
            candidate.formula = Formula(shrunk);
          }
        } else {
          candidate.head_terms[static_cast<std::size_t>(slot)] = Term(shrunk);
        }
        ++stats->evaluations;
        if (fails(candidate)) {
          *c = std::move(candidate);
          ++stats->reductions;
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

DiffCase Shrink(const DiffCase& c,
                const std::function<bool(const DiffCase&)>& still_fails,
                const ShrinkLimits& limits, ShrinkStats* stats) {
  ShrinkStats local;
  if (stats == nullptr) stats = &local;
  FOCQ_CHECK(still_fails(c));
  ++stats->evaluations;
  DiffCase current = c;
  bool progress = true;
  while (progress && stats->evaluations < limits.max_evaluations) {
    progress = ShrinkUpdateStep(&current, still_fails, limits, stats);
    if (!progress) {
      progress = ShrinkStructureStep(&current, still_fails, limits, stats);
    }
    if (!progress) {
      progress = ShrinkExprStep(&current, still_fails, limits, stats);
    }
  }
  return current;
}

}  // namespace focq::fuzz
