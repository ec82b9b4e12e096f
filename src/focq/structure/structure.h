// Finite sigma-structures (relational databases) over a dense universe
// {0, ..., n-1}. This is substrate S1 of DESIGN.md: the object every
// algorithm in the paper operates on.
#ifndef FOCQ_STRUCTURE_STRUCTURE_H_
#define FOCQ_STRUCTURE_STRUCTURE_H_

#include <cstdint>
#include <initializer_list>
#include <ranges>
#include <span>
#include <vector>

#include "focq/structure/signature.h"

namespace focq {

/// Universe element identifier.
using ElemId = std::uint32_t;

/// An owned database tuple (arity may be 0).
using Tuple = std::vector<ElemId>;

/// A tuple read in place: a row of a Relation, or a view of any contiguous
/// ids. A TupleRef into a relation stays valid until the next Add or Remove
/// on that relation (either may move the row array).
using TupleRef = std::span<const ElemId>;

/// An owned copy of `t`.
inline Tuple ToTuple(TupleRef t) { return Tuple(t.begin(), t.end()); }

/// One relation instance, stored flat:
///   - the rows, in insertion order, in one arity-strided array of ids;
///   - an open-addressing index (linear probing, power-of-two table, load at
///     most 1/2) whose slots hold row numbers, for O(1) membership.
/// A nullary relation is a 0/1 flag and has neither.
///
/// Order contract: iteration order is insertion order, and Remove is a stable
/// erase, so a structure mutated by delete+reinsert round-trips identically
/// through iteration-order consumers such as the Gaifman builder.
///
/// Reads (tuples, Contains) never mutate; Add and Remove keep the index
/// current. So concurrent readers of one const Relation need no locking.
class Relation {
 public:
  explicit Relation(int arity) : arity_(arity) {}

  int arity() const { return arity_; }
  std::size_t NumTuples() const { return num_rows_; }

  /// The rows in insertion order: a random-access range of TupleRefs, with
  /// the TupleRef lifetime.
  auto tuples() const {
    return std::views::iota(std::size_t{0}, num_rows_) |
           std::views::transform(
               [data = rows_.data(),
                k = static_cast<std::size_t>(arity_)](std::size_t row) {
                 return TupleRef(data + row * k, k);
               });
  }

  /// Inserts `t`; duplicate inserts are ignored. Returns true if inserted.
  bool Add(TupleRef t);
  bool Add(std::initializer_list<ElemId> t) { return Add(TupleRef(t)); }

  /// Removes `t` if present, keeping the other rows in order. Returns true if
  /// removed. Costs one backward-shift deletion in the index plus one pass
  /// renumbering the rows after it; nothing is re-hashed.
  bool Remove(TupleRef t);
  bool Remove(std::initializer_list<ElemId> t) { return Remove(TupleRef(t)); }

  /// Membership: one probe of the index. False for a tuple of another arity.
  bool Contains(TupleRef t) const {
    if (num_rows_ == 0 || t.size() != static_cast<std::size_t>(arity_)) {
      return false;
    }
    return arity_ == 0 || slots_[Probe(t)] != kEmptySlot;
  }

  /// Sizes the row array and the index for `rows` rows, so that many Adds
  /// do not re-grow them on the way.
  void Reserve(std::size_t rows);

  /// Resident footprint in bytes: the row array plus the index slots, the
  /// index counted at the size a fresh build of these rows gives it (Remove
  /// never shrinks it). A pure function of arity and row count.
  std::int64_t ApproxBytes() const;

 private:
  static constexpr std::uint32_t kEmptySlot = UINT32_MAX;

  TupleRef Row(std::uint32_t row) const {
    const std::size_t k = static_cast<std::size_t>(arity_);
    return TupleRef(rows_.data() + row * k, k);
  }
  /// Row hash; its top bits pick the home slot.
  static std::uint64_t HashRow(TupleRef t) {
    std::uint64_t h = 0;
    for (ElemId e : t) {
      h = (h ^ e) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 31;
    }
    return h * 0x94d049bb133111ebULL;
  }
  std::size_t HomeSlot(TupleRef t) const {
    return static_cast<std::size_t>(HashRow(t) >> shift_);
  }
  /// The slot holding `t`'s row number, or the empty slot that ends its probe
  /// sequence. Requires a non-empty index. Inline, and rows are compared by
  /// an element loop rather than a library call: kernel atoms probe once per
  /// pattern placement.
  std::size_t Probe(TupleRef t) const {
    const std::size_t mask = slots_.size() - 1;
    const std::size_t k = static_cast<std::size_t>(arity_);
    for (std::size_t s = HomeSlot(t);; s = (s + 1) & mask) {
      const std::uint32_t row = slots_[s];
      if (row == kEmptySlot) return s;
      const ElemId* stored = rows_.data() + row * k;
      std::size_t i = 0;
      while (i < k && stored[i] == t[i]) ++i;
      if (i == k) return s;
    }
  }
  /// Rebuilds the index with `capacity` slots (a power of two).
  void Rehash(std::size_t capacity);

  int arity_;
  std::size_t num_rows_ = 0;
  std::vector<ElemId> rows_;           // num_rows_ * arity_ ids
  std::vector<std::uint32_t> slots_;   // row numbers or kEmptySlot
  int shift_ = 64;                     // 64 - log2(slots_.size())
};

/// A finite sigma-structure: universe {0..n-1} plus one Relation per symbol.
///
/// Expansions (adding fresh unary/nullary relations, as the Theorem 6.10
/// pipeline and the free-variable elimination of Section 5 require) mutate
/// the structure in place via AddUnarySymbol / AddNullarySymbol; the paper's
/// reduct operation is `ReductTo`.
class Structure {
 public:
  /// An empty-relation structure over the given signature and universe size.
  /// The paper requires non-empty universes; n == 0 is permitted here only as
  /// a transient builder state.
  Structure(Signature sig, std::size_t universe_size);

  const Signature& signature() const { return sig_; }
  std::size_t universe_size() const { return universe_size_; }

  /// The paper's order |A|.
  std::size_t Order() const { return universe_size_; }

  /// The paper's size ||A|| = |A| + sum_R |R^A|.
  std::size_t SizeNorm() const;

  /// Approximate resident footprint in bytes, summed over the relations. A
  /// pure function of the structure, so it falls under the determinism
  /// contract (memory accounting, DESIGN.md "Observability").
  std::int64_t ApproxBytes() const;

  const Relation& relation(SymbolId id) const { return relations_[id]; }

  /// Adds a tuple to relation `id`; element ids must be < universe_size and
  /// the tuple length must match the symbol's arity.
  void AddTuple(SymbolId id, TupleRef t);
  void AddTuple(SymbolId id, std::initializer_list<ElemId> t) {
    AddTuple(id, TupleRef(t));
  }

  /// Tuple-level update entry points (DESIGN.md §3e). Same validation as
  /// AddTuple; both are no-ops (returning false) when the tuple is already
  /// present / absent, so callers can distinguish real changes from no-ops.
  bool InsertTuple(SymbolId id, TupleRef t);
  bool InsertTuple(SymbolId id, std::initializer_list<ElemId> t) {
    return InsertTuple(id, TupleRef(t));
  }
  bool DeleteTuple(SymbolId id, TupleRef t);
  bool DeleteTuple(SymbolId id, std::initializer_list<ElemId> t) {
    return DeleteTuple(id, TupleRef(t));
  }

  /// Membership test, the semantics of atomic formulas.
  bool Holds(SymbolId id, TupleRef t) const {
    return relations_[id].Contains(t);
  }
  bool Holds(SymbolId id, std::initializer_list<ElemId> t) const {
    return Holds(id, TupleRef(t));
  }

  /// Nullary relation truth value (relation = {()} vs empty set).
  bool NullaryHolds(SymbolId id) const;

  /// Expansion: adds a fresh unary symbol interpreted by `elements`.
  SymbolId AddUnarySymbol(const std::string& name,
                          const std::vector<ElemId>& elements);

  /// Expansion: adds a fresh nullary symbol interpreted as {()} iff `holds`.
  SymbolId AddNullarySymbol(const std::string& name, bool holds);

  /// The sigma-reduct: keeps only the first `num_symbols` symbols.
  Structure ReductTo(std::size_t num_symbols) const;

  /// The induced substructure A[B] for B = `elements` (sorted, duplicate
  /// free, non-empty). Elements are renumbered to 0..|B|-1 in sorted order;
  /// `elements[i]` is the original id of new element i.
  Structure Induced(const std::vector<ElemId>& elements) const;

  /// Disjoint union of two structures over the same signature; elements of
  /// `b` are shifted by a.universe_size().
  static Structure DisjointUnion(const Structure& a, const Structure& b);

 private:
  Signature sig_;
  std::size_t universe_size_;
  std::vector<Relation> relations_;
};

}  // namespace focq

#endif  // FOCQ_STRUCTURE_STRUCTURE_H_
