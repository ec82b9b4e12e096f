#include "focq/structure/structure.h"

#include <algorithm>
#include <bit>

#include "focq/util/check.h"

namespace focq {

namespace {

// Index capacity after a fresh build of `rows` rows: the smallest power of
// two, at least 8, that keeps the load at most 1/2. Add grows along exactly
// this sequence.
std::size_t IndexCapacityFor(std::size_t rows) {
  return rows == 0 ? 0 : std::max<std::size_t>(8, std::bit_ceil(2 * rows));
}

// Row hash; its top bits pick the home slot.
std::uint64_t HashRow(TupleRef t) {
  std::uint64_t h = 0;
  for (ElemId e : t) {
    h = (h ^ e) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return h * 0x94d049bb133111ebULL;
}

}  // namespace

std::size_t Relation::HomeSlot(TupleRef t) const {
  return static_cast<std::size_t>(HashRow(t) >> shift_);
}

std::size_t Relation::Probe(TupleRef t) const {
  const std::size_t mask = slots_.size() - 1;
  const std::size_t k = static_cast<std::size_t>(arity_);
  for (std::size_t s = HomeSlot(t);; s = (s + 1) & mask) {
    const std::uint32_t row = slots_[s];
    if (row == kEmptySlot ||
        std::equal(t.begin(), t.end(), rows_.data() + row * k)) {
      return s;
    }
  }
}

void Relation::Rehash(std::size_t capacity) {
  slots_.assign(capacity, kEmptySlot);
  shift_ = 64 - std::countr_zero(capacity);
  const std::size_t mask = capacity - 1;
  for (std::uint32_t row = 0; row < num_rows_; ++row) {
    std::size_t s = HomeSlot(Row(row));
    while (slots_[s] != kEmptySlot) s = (s + 1) & mask;
    slots_[s] = row;
  }
}

void Relation::Reserve(std::size_t rows) {
  if (arity_ == 0) return;
  rows_.reserve(rows * static_cast<std::size_t>(arity_));
  if (IndexCapacityFor(rows) > slots_.size()) Rehash(IndexCapacityFor(rows));
}

bool Relation::Add(TupleRef t) {
  FOCQ_CHECK_EQ(t.size(), static_cast<std::size_t>(arity_));
  if (arity_ == 0) {
    if (num_rows_ > 0) return false;
    num_rows_ = 1;
    return true;
  }
  if (!slots_.empty() && slots_[Probe(t)] != kEmptySlot) return false;
  FOCQ_CHECK_LT(num_rows_, kEmptySlot);
  if (2 * (num_rows_ + 1) > slots_.size()) {
    Rehash(IndexCapacityFor(num_rows_ + 1));
  }
  slots_[Probe(t)] = static_cast<std::uint32_t>(num_rows_);
  rows_.insert(rows_.end(), t.begin(), t.end());
  ++num_rows_;
  return true;
}

bool Relation::Remove(TupleRef t) {
  FOCQ_CHECK_EQ(t.size(), static_cast<std::size_t>(arity_));
  if (num_rows_ == 0) return false;
  if (arity_ == 0) {
    num_rows_ = 0;
    return true;
  }
  std::size_t hole = Probe(t);
  const std::uint32_t removed = slots_[hole];
  if (removed == kEmptySlot) return false;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one before its home slot.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = (hole + 1) & mask; slots_[s] != kEmptySlot;
       s = (s + 1) & mask) {
    const std::size_t home = HomeSlot(Row(slots_[s]));
    if (((s - home) & mask) >= ((s - hole) & mask)) {
      slots_[hole] = slots_[s];
      hole = s;
    }
  }
  slots_[hole] = kEmptySlot;
  const std::size_t k = static_cast<std::size_t>(arity_);
  rows_.erase(rows_.begin() + removed * k, rows_.begin() + (removed + 1) * k);
  --num_rows_;
  for (std::uint32_t& row : slots_) {
    if (row > removed && row != kEmptySlot) --row;
  }
  return true;
}

std::int64_t Relation::ApproxBytes() const {
  const std::size_t slots = arity_ == 0 ? 0 : IndexCapacityFor(num_rows_);
  return static_cast<std::int64_t>(
      num_rows_ * static_cast<std::size_t>(arity_) * sizeof(ElemId) +
      slots * sizeof(std::uint32_t));
}

Structure::Structure(Signature sig, std::size_t universe_size)
    : sig_(std::move(sig)), universe_size_(universe_size) {
  relations_.reserve(sig_.NumSymbols());
  for (SymbolId id = 0; id < sig_.NumSymbols(); ++id) {
    relations_.emplace_back(sig_.Arity(id));
  }
}

std::size_t Structure::SizeNorm() const {
  std::size_t total = universe_size_;
  for (const Relation& r : relations_) total += r.NumTuples();
  return total;
}

std::int64_t Structure::ApproxBytes() const {
  std::int64_t total = 0;
  for (const Relation& r : relations_) total += r.ApproxBytes();
  return total;
}

void Structure::AddTuple(SymbolId id, TupleRef t) {
  FOCQ_CHECK_LT(id, relations_.size());
  for (ElemId e : t) FOCQ_CHECK_LT(e, universe_size_);
  relations_[id].Add(t);
}

bool Structure::InsertTuple(SymbolId id, TupleRef t) {
  FOCQ_CHECK_LT(id, relations_.size());
  for (ElemId e : t) FOCQ_CHECK_LT(e, universe_size_);
  return relations_[id].Add(t);
}

bool Structure::DeleteTuple(SymbolId id, TupleRef t) {
  FOCQ_CHECK_LT(id, relations_.size());
  for (ElemId e : t) FOCQ_CHECK_LT(e, universe_size_);
  return relations_[id].Remove(t);
}

bool Structure::NullaryHolds(SymbolId id) const {
  FOCQ_CHECK_EQ(sig_.Arity(id), 0);
  return relations_[id].NumTuples() > 0;
}

SymbolId Structure::AddUnarySymbol(const std::string& name,
                                   const std::vector<ElemId>& elements) {
  SymbolId id = sig_.AddSymbol(name, 1);
  relations_.emplace_back(1);
  relations_[id].Reserve(elements.size());
  for (ElemId e : elements) {
    FOCQ_CHECK_LT(e, universe_size_);
    relations_[id].Add({e});
  }
  return id;
}

SymbolId Structure::AddNullarySymbol(const std::string& name, bool holds) {
  SymbolId id = sig_.AddSymbol(name, 0);
  relations_.emplace_back(0);
  if (holds) relations_[id].Add({});
  return id;
}

Structure Structure::ReductTo(std::size_t num_symbols) const {
  FOCQ_CHECK_LE(num_symbols, sig_.NumSymbols());
  Signature reduced;
  for (SymbolId id = 0; id < num_symbols; ++id) {
    reduced.AddSymbol(sig_.Name(id), sig_.Arity(id));
  }
  Structure out(std::move(reduced), universe_size_);
  for (SymbolId id = 0; id < num_symbols; ++id) {
    for (TupleRef t : relations_[id].tuples()) out.AddTuple(id, t);
  }
  return out;
}

Structure Structure::Induced(const std::vector<ElemId>& elements) const {
  FOCQ_CHECK(!elements.empty());
  FOCQ_CHECK(std::is_sorted(elements.begin(), elements.end()));
  // Dense inverse map: original id -> new id (or kMissing).
  constexpr ElemId kMissing = static_cast<ElemId>(-1);
  std::vector<ElemId> remap(universe_size_, kMissing);
  for (ElemId i = 0; i < elements.size(); ++i) {
    FOCQ_CHECK_LT(elements[i], universe_size_);
    FOCQ_CHECK(remap[elements[i]] == kMissing);  // duplicate-free
    remap[elements[i]] = i;
  }
  Structure out(sig_, elements.size());
  Tuple mapped;
  for (SymbolId id = 0; id < relations_.size(); ++id) {
    for (TupleRef t : relations_[id].tuples()) {
      mapped.clear();
      bool inside = true;
      for (ElemId e : t) {
        if (remap[e] == kMissing) {
          inside = false;
          break;
        }
        mapped.push_back(remap[e]);
      }
      if (inside) out.AddTuple(id, mapped);
    }
  }
  return out;
}

Structure Structure::DisjointUnion(const Structure& a, const Structure& b) {
  FOCQ_CHECK(a.sig_.IsPrefixOf(b.sig_) && b.sig_.IsPrefixOf(a.sig_));
  Structure out(a.sig_, a.universe_size_ + b.universe_size_);
  for (SymbolId id = 0; id < a.relations_.size(); ++id) {
    for (TupleRef t : a.relations_[id].tuples()) out.AddTuple(id, t);
    for (TupleRef t : b.relations_[id].tuples()) {
      Tuple shifted = ToTuple(t);
      for (ElemId& e : shifted) e += static_cast<ElemId>(a.universe_size_);
      out.AddTuple(id, shifted);
    }
  }
  return out;
}

}  // namespace focq
