#include "focq/core/plan.h"

#include <algorithm>
#include <unordered_map>

#include "focq/locality/decompose.h"
#include "focq/logic/build.h"
#include "focq/logic/printer.h"

namespace focq {
namespace {

// Collects the innermost kNumPred nodes (no kNumPred strictly below them).
// Returns true iff the subtree contains any kNumPred.
bool CollectInnermostPreds(const ExprRef& e,
                           std::vector<ExprRef>* innermost) {
  bool child_has = false;
  for (const ExprRef& c : e->children) {
    child_has |= CollectInnermostPreds(c, innermost);
  }
  if (e->kind == ExprKind::kNumPred) {
    if (!child_has) {
      // Deduplicate by pointer.
      if (std::find(innermost->begin(), innermost->end(), e) ==
          innermost->end()) {
        innermost->push_back(e);
      }
    }
    return true;
  }
  return child_has;
}

// Rebuilds the tree with the given pointer-keyed node substitutions.
ExprRef ReplaceNodes(
    const ExprRef& e,
    const std::unordered_map<const Expr*, ExprRef>& substitutions) {
  auto it = substitutions.find(e.get());
  if (it != substitutions.end()) return it->second;
  bool changed = false;
  Expr copy = *e;
  for (ExprRef& c : copy.children) {
    ExprRef replaced = ReplaceNodes(c, substitutions);
    if (replaced != c) {
      c = std::move(replaced);
      changed = true;
    }
  }
  if (!changed) return e;
  return std::make_shared<const Expr>(std::move(copy));
}

// Converts a counting term (ints, +, *, counts; no numerical predicates
// below) into a cl-term. `z` is the at-most-one free variable allowed.
Result<ClTerm> TermToClTerm(const ExprRef& e, std::optional<Var> z) {
  switch (e->kind) {
    case ExprKind::kIntConst:
      return ClTerm::Constant(e->int_value);
    case ExprKind::kAdd: {
      ClTerm acc;
      for (const ExprRef& c : e->children) {
        Result<ClTerm> t = TermToClTerm(c, z);
        if (t.ok()) t = ClTerm::Add(acc, *t);
        if (!t.ok()) return t;
        acc = std::move(t).value();
      }
      return acc;
    }
    case ExprKind::kMul: {
      ClTerm acc = ClTerm::Constant(1);
      for (const ExprRef& c : e->children) {
        Result<ClTerm> t = TermToClTerm(c, z);
        if (t.ok()) t = ClTerm::Mul(acc, *t);
        if (!t.ok()) return t;
        acc = std::move(t).value();
      }
      return acc;
    }
    case ExprKind::kCount: {
      Formula body(e->children[0]);
      std::vector<Var> binders = e->vars;
      bool unary = false;
      std::vector<Var> all_vars;
      if (z.has_value() &&
          std::find(binders.begin(), binders.end(), *z) == binders.end()) {
        std::vector<Var> free = FreeVars(body);
        if (std::binary_search(free.begin(), free.end(), *z)) {
          unary = true;
          all_vars.push_back(*z);
        }
      }
      all_vars.insert(all_vars.end(), binders.begin(), binders.end());
      if (all_vars.empty()) {
        return Status::Unsupported(
            "zero-width counting term (a sentence test): " + ToString(*e));
      }
      Result<Decomposition> d = DecomposeCount(all_vars, unary, body);
      if (!d.ok()) return d.status();
      return d->term;
    }
    default:
      return Status::Unsupported("unexpected construct in counting term: " +
                                 ToString(*e));
  }
}

class Compiler {
 public:
  explicit Compiler(const Signature& sig) : working_sig_(sig) {}

  /// Peels numerical predicates layer by layer; returns the residual tree.
  Result<ExprRef> PeelLayers(ExprRef root, EvalPlan* plan) {
    for (int layer_index = 0;; ++layer_index) {
      std::vector<ExprRef> innermost;
      CollectInnermostPreds(root, &innermost);
      if (innermost.empty()) return root;
      FOCQ_CHECK_LT(layer_index, 64);  // FOC1 nesting depth is query-bounded

      std::vector<LayerRelationDef> layer;
      std::unordered_map<const Expr*, ExprRef> substitutions;
      for (const ExprRef& pred_node : innermost) {
        Result<LayerRelationDef> def = CompilePred(pred_node, layer_index);
        if (!def.ok()) return def.status();
        // Marker atom that replaces the subformula.
        std::vector<Var> marker_vars;
        if (def->arity == 1) marker_vars.push_back(def->free_var);
        substitutions.emplace(pred_node.get(),
                              Atom(def->name, marker_vars).ref());
        layer.push_back(std::move(*def));
      }
      plan->layers.push_back(std::move(layer));
      root = ReplaceNodes(root, substitutions);
    }
  }

 private:
  Result<LayerRelationDef> CompilePred(const ExprRef& pred_node,
                                       int layer_index) {
    FOCQ_CHECK(pred_node->kind == ExprKind::kNumPred);
    std::vector<Var> free = FreeVars(*pred_node);
    if (free.size() > 1) {
      return Status::InvalidArgument(
          "numerical predicate with more than one free variable is outside "
          "FOC1: " +
          ToString(*pred_node));
    }
    LayerRelationDef def;
    def.arity = static_cast<int>(free.size());
    if (def.arity == 1) def.free_var = free[0];
    def.name = working_sig_.FreshName(
        "L" + std::to_string(layer_index + 1) + "_" +
        pred_node->pred->name());
    def.pred = pred_node->pred;

    std::optional<Var> z;
    if (def.arity == 1) z = def.free_var;
    bool ok = true;
    for (const ExprRef& arg : pred_node->children) {
      Result<ClTerm> t = TermToClTerm(arg, z);
      if (!t.ok()) {
        if (t.status().code() == StatusCode::kUnsupported) {
          ok = false;
          break;
        }
        return t.status();
      }
      def.args.push_back(std::move(*t));
    }
    if (!ok) {
      def.args.clear();
      def.pred = nullptr;
      def.fallback = true;
      def.fallback_formula = Formula(pred_node);
    }
    working_sig_.AddSymbol(def.name, def.arity);
    return def;
  }

  Signature working_sig_;
};

}  // namespace

EvalPlan::Stats EvalPlan::ComputeStats() const {
  Stats s;
  s.num_layers = layers.size();
  auto add_cl_term = [&s](const ClTerm& t) {
    s.num_basic_cl_terms += t.NumBasics();
    for (const BasicClTerm& b : t.basics()) {
      s.max_width = std::max(s.max_width, b.width());
      s.max_radius = std::max(s.max_radius, b.radius);
    }
  };
  for (const auto& layer : layers) {
    for (const LayerRelationDef& def : layer) {
      ++s.num_relations;
      if (def.fallback) ++s.num_fallback_relations;
      for (const ClTerm& t : def.args) add_cl_term(t);
    }
  }
  if (is_term && final_term_decomposed) add_cl_term(final_cl_term);
  return s;
}

namespace {

// Compact one-line summary of a cl-term for explain labels.
std::string ClTermLabel(const ClTerm& t) {
  int max_width = 0;
  std::uint32_t max_radius = 0;
  for (const BasicClTerm& b : t.basics()) {
    max_width = std::max(max_width, b.width());
    max_radius = std::max(max_radius, b.radius);
  }
  return std::to_string(t.NumBasics()) + " basics, " +
         std::to_string(t.NumMonomials()) + " monomials, width<=" +
         std::to_string(max_width) + ", r<=" + std::to_string(max_radius);
}

std::string RelationLabel(const LayerRelationDef& def) {
  std::string label = def.name;
  if (def.arity == 1) label += "(" + VarName(def.free_var) + ")";
  if (def.fallback) {
    label += " := fallback " + ToString(def.fallback_formula);
  } else {
    label += " := " + (def.pred != nullptr ? def.pred->name() : "<pred>") +
             "(" + std::to_string(def.args.size()) + " cl-terms)";
  }
  return label;
}

}  // namespace

PlanNodeIds RegisterPlanNodes(ExplainSink* sink, const EvalPlan& plan,
                              int parent) {
  PlanNodeIds ids;
  bool live = sink != nullptr;
  EvalPlan::Stats stats = plan.ComputeStats();
  if (live) {
    ids.root = sink->NewNode(
        parent, "plan",
        std::to_string(stats.num_layers) + " layers, " +
            std::to_string(stats.num_relations) + " relations, " +
            std::to_string(stats.num_basic_cl_terms) + " basic cl-terms");
  }
  ids.layers.assign(plan.layers.size(), -1);
  ids.relations.resize(plan.layers.size());
  ids.args.resize(plan.layers.size());
  for (std::size_t l = 0; l < plan.layers.size(); ++l) {
    if (live) {
      ids.layers[l] = sink->NewNode(
          ids.root, "layer",
          "L" + std::to_string(l) + " (" +
              std::to_string(plan.layers[l].size()) + " relations)");
    }
    ids.relations[l].assign(plan.layers[l].size(), -1);
    ids.args[l].resize(plan.layers[l].size());
    for (std::size_t r = 0; r < plan.layers[l].size(); ++r) {
      const LayerRelationDef& def = plan.layers[l][r];
      if (live) {
        ids.relations[l][r] = sink->NewNode(
            ids.layers[l], def.fallback ? "fallback-relation" : "relation",
            RelationLabel(def));
      }
      ids.args[l][r].assign(def.args.size(), -1);
      if (live) {
        for (std::size_t a = 0; a < def.args.size(); ++a) {
          ids.args[l][r][a] = sink->NewNode(ids.relations[l][r], "cl-term",
                                            ClTermLabel(def.args[a]));
        }
      }
    }
  }
  if (live) {
    if (!plan.is_term) {
      ids.residual =
          sink->NewNode(ids.root, "residual", ToString(plan.final_formula));
    } else if (plan.final_term_decomposed) {
      ids.residual = sink->NewNode(
          ids.root, "cl-term",
          std::string(plan.final_cl_term_unary ? "unary " : "ground ") +
              ClTermLabel(plan.final_cl_term));
    } else {
      ids.residual = sink->NewNode(ids.root, "residual-term",
                                   ToString(plan.final_term_residual));
    }
  }
  return ids;
}

Result<EvalPlan> CompileFormula(const Formula& f, const Signature& sig) {
  EvalPlan plan;
  plan.is_term = false;
  Compiler compiler(sig);
  Result<ExprRef> residual = compiler.PeelLayers(f.ref(), &plan);
  if (!residual.ok()) return residual.status();
  plan.final_formula = Formula(*residual);
  return plan;
}

Result<EvalPlan> CompileTerm(const Term& t, const Signature& sig) {
  std::vector<Var> free = FreeVars(t);
  if (free.size() > 1) {
    return Status::InvalidArgument(
        "only ground and unary counting terms can be compiled");
  }
  EvalPlan plan;
  plan.is_term = true;
  Compiler compiler(sig);
  Result<ExprRef> residual = compiler.PeelLayers(t.ref(), &plan);
  if (!residual.ok()) return residual.status();

  std::optional<Var> z;
  if (!free.empty()) z = free[0];
  Result<ClTerm> cl = TermToClTerm(*residual, z);
  if (cl.ok()) {
    plan.final_term_decomposed = true;
    plan.final_cl_term = std::move(*cl);
    plan.final_cl_term_unary = !plan.final_cl_term.IsGround();
    if (!free.empty()) plan.final_free_var = free[0];
  } else if (cl.status().code() == StatusCode::kUnsupported) {
    plan.final_term_decomposed = false;
    plan.final_term_residual = Term(*residual);
    if (!free.empty()) plan.final_free_var = free[0];
  } else {
    return cl.status();
  }
  return plan;
}

}  // namespace focq
