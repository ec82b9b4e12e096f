#include "focq/structure/update.h"

#include <algorithm>
#include <sstream>

#include "focq/util/check.h"

namespace focq {

std::string UpdateToString(const TupleUpdate& u, const Signature& sig) {
  std::ostringstream out;
  out << (u.kind == UpdateKind::kInsert ? "insert" : "delete");
  out << ' ' << sig.Name(u.symbol);
  for (ElemId e : u.tuple) out << ' ' << e;
  return out.str();
}

Result<TupleUpdate> ParseUpdate(std::string_view text, const Signature& sig) {
  std::istringstream in{std::string(text)};
  std::string op;
  if (!(in >> op)) {
    return Status::InvalidArgument("empty update spec");
  }
  TupleUpdate u;
  if (op == "insert") {
    u.kind = UpdateKind::kInsert;
  } else if (op == "delete") {
    u.kind = UpdateKind::kDelete;
  } else {
    return Status::InvalidArgument("update op must be insert|delete, got '" +
                                   op + "'");
  }
  std::string name;
  if (!(in >> name)) {
    return Status::InvalidArgument("update spec missing relation name");
  }
  auto id = sig.Find(name);
  if (!id.has_value()) {
    return Status::NotFound("unknown relation symbol '" + name + "'");
  }
  u.symbol = *id;
  std::string tok;
  while (in >> tok) {
    long long value = 0;
    std::size_t consumed = 0;
    try {
      value = std::stoll(tok, &consumed);
    } catch (...) {
      consumed = 0;
    }
    if (consumed != tok.size() || value < 0 ||
        value > static_cast<long long>(static_cast<ElemId>(-1))) {
      return Status::InvalidArgument("bad element id '" + tok +
                                     "' in update spec");
    }
    u.tuple.push_back(static_cast<ElemId>(value));
  }
  int arity = sig.Arity(u.symbol);
  if (static_cast<int>(u.tuple.size()) != arity) {
    return Status::InvalidArgument(
        "update tuple for '" + name + "' has " +
        std::to_string(u.tuple.size()) + " elements, expected arity " +
        std::to_string(arity));
  }
  return u;
}

Status ValidateUpdate(const Structure& a, const TupleUpdate& u) {
  if (u.symbol >= a.signature().NumSymbols()) {
    return Status::NotFound("update symbol id " + std::to_string(u.symbol) +
                            " out of range");
  }
  int arity = a.signature().Arity(u.symbol);
  if (static_cast<int>(u.tuple.size()) != arity) {
    return Status::InvalidArgument(
        "update tuple has " + std::to_string(u.tuple.size()) +
        " elements, expected arity " + std::to_string(arity));
  }
  for (ElemId e : u.tuple) {
    if (e >= a.universe_size()) {
      return Status::OutOfRange("update element " + std::to_string(e) +
                                " outside universe of size " +
                                std::to_string(a.universe_size()));
    }
  }
  return Status::Ok();
}

Result<bool> ApplyToStructure(Structure* a, const TupleUpdate& u) {
  FOCQ_CHECK(a != nullptr);
  FOCQ_RETURN_IF_ERROR(ValidateUpdate(*a, u));
  if (u.kind == UpdateKind::kInsert) {
    return a->InsertTuple(u.symbol, u.tuple);
  }
  return a->DeleteTuple(u.symbol, u.tuple);
}

std::vector<ElemId> TupleElements(TupleRef t) {
  std::vector<ElemId> elems(t.begin(), t.end());
  std::sort(elems.begin(), elems.end());
  elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
  return elems;
}

std::vector<std::pair<VertexId, VertexId>> TuplePairs(TupleRef t) {
  std::vector<ElemId> elems = TupleElements(t);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(elems.size() * (elems.size() > 0 ? elems.size() - 1 : 0) / 2);
  for (std::size_t i = 0; i < elems.size(); ++i) {
    for (std::size_t j = i + 1; j < elems.size(); ++j) {
      pairs.emplace_back(elems[i], elems[j]);
    }
  }
  return pairs;
}

GaifmanMaintainer::GaifmanMaintainer(const Structure& a) {
  for (SymbolId id = 0; id < a.signature().NumSymbols(); ++id) {
    for (TupleRef t : a.relation(id).tuples()) {
      for (const auto& [u, v] : TuplePairs(t)) {
        ++support_[PairKey(u, v)];
      }
    }
  }
}

GaifmanDelta GaifmanMaintainer::ApplyInsert(const Tuple& t, Graph* g) {
  GaifmanDelta delta;
  for (const auto& [u, v] : TuplePairs(t)) {
    if (++support_[PairKey(u, v)] == 1) {
      delta.added.emplace_back(u, v);
      if (g != nullptr) g->InsertEdge(u, v);
    }
  }
  return delta;
}

GaifmanDelta GaifmanMaintainer::ApplyDelete(const Tuple& t, Graph* g) {
  GaifmanDelta delta;
  for (const auto& [u, v] : TuplePairs(t)) {
    auto it = support_.find(PairKey(u, v));
    FOCQ_CHECK(it != support_.end() && it->second > 0);
    if (--it->second == 0) {
      support_.erase(it);
      delta.removed.emplace_back(u, v);
      if (g != nullptr) g->EraseEdge(u, v);
    }
  }
  return delta;
}

}  // namespace focq
