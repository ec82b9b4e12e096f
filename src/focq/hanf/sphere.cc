#include "focq/hanf/sphere.h"

#include <algorithm>
#include <optional>

#include "focq/graph/bfs.h"
#include "focq/structure/gaifman.h"
#include "focq/util/check.h"
#include "focq/util/hash.h"
#include "focq/util/thread_pool.h"

namespace focq {
namespace {

/// Per-vertex invariant used for candidate pruning: BFS layer from the
/// centre, Gaifman degree, and per-relation occurrence counts.
struct VertexProfile {
  std::uint32_t layer;
  std::uint32_t degree;
  std::vector<std::uint32_t> occurrences;  // per relation symbol

  friend bool operator==(const VertexProfile& a, const VertexProfile& b) {
    return a.layer == b.layer && a.degree == b.degree &&
           a.occurrences == b.occurrences;
  }
};

std::vector<VertexProfile> Profiles(const Structure& s, const Graph& gaifman,
                                    ElemId center) {
  std::vector<std::uint32_t> layer = BfsDistances(gaifman, center);
  std::vector<VertexProfile> out(s.universe_size());
  for (ElemId v = 0; v < s.universe_size(); ++v) {
    out[v].layer = layer[v];
    out[v].degree = static_cast<std::uint32_t>(gaifman.Degree(v));
    out[v].occurrences.assign(s.signature().NumSymbols(), 0);
  }
  for (SymbolId id = 0; id < s.signature().NumSymbols(); ++id) {
    for (TupleRef t : s.relation(id).tuples()) {
      for (ElemId e : t) ++out[e].occurrences[id];
    }
  }
  return out;
}

/// Backtracking search for a rooted isomorphism. `order` fixes the mapping
/// order of A's vertices (BFS from the centre, so every vertex after the
/// first has a mapped Gaifman neighbour).
class IsoSearch {
 public:
  IsoSearch(const Structure& a, const Graph& ga, const Structure& b,
            const Graph& gb, const std::vector<VertexProfile>& pa,
            const std::vector<VertexProfile>& pb)
      : a_(a), ga_(ga), b_(b), gb_(gb), pa_(pa), pb_(pb) {}

  bool Run(ElemId center_a, ElemId center_b) {
    const std::size_t n = a_.universe_size();
    map_.assign(n, kUnmapped);
    used_.assign(n, false);
    // BFS order over A from the centre.
    BallExplorer explorer(ga_);
    order_ = explorer.Explore(center_a, static_cast<std::uint32_t>(n));
    if (order_.size() != n) {
      // Spheres are connected by construction; handle disconnected input
      // defensively by appending stragglers.
      std::vector<bool> seen(n, false);
      for (VertexId v : order_) seen[v] = true;
      for (ElemId v = 0; v < n; ++v) {
        if (!seen[v]) order_.push_back(v);
      }
    }
    FOCQ_CHECK_EQ(order_[0], center_a);
    if (!(pa_[center_a] == pb_[center_b])) return false;
    Assign(center_a, center_b);
    bool ok = Extend(1);
    return ok;
  }

 private:
  static constexpr ElemId kUnmapped = static_cast<ElemId>(-1);

  void Assign(ElemId va, ElemId vb) {
    map_[va] = vb;
    used_[vb] = true;
  }
  void Unassign(ElemId va) {
    used_[map_[va]] = false;
    map_[va] = kUnmapped;
  }

  /// Checks every tuple (in both structures) whose support just became
  /// fully mapped by assigning `va`.
  bool TuplesConsistent(ElemId va) {
    Tuple image;
    for (SymbolId id = 0; id < a_.signature().NumSymbols(); ++id) {
      for (TupleRef t : a_.relation(id).tuples()) {
        bool involves = false, complete = true;
        for (ElemId e : t) {
          if (e == va) involves = true;
          if (map_[e] == kUnmapped) complete = false;
        }
        if (!involves || !complete) continue;
        image.clear();
        for (ElemId e : t) image.push_back(map_[e]);
        if (!b_.Holds(id, image)) return false;
      }
    }
    // Reverse direction: B-tuples through map(va) whose preimage is fully
    // mapped must exist in A. Build the inverse lazily per call (spheres are
    // tiny).
    std::vector<ElemId> inverse(b_.universe_size(), kUnmapped);
    for (ElemId v = 0; v < map_.size(); ++v) {
      if (map_[v] != kUnmapped) inverse[map_[v]] = v;
    }
    ElemId vb = map_[va];
    Tuple preimage;
    for (SymbolId id = 0; id < b_.signature().NumSymbols(); ++id) {
      for (TupleRef t : b_.relation(id).tuples()) {
        bool involves = false, complete = true;
        for (ElemId e : t) {
          if (e == vb) involves = true;
          if (inverse[e] == kUnmapped) complete = false;
        }
        if (!involves || !complete) continue;
        preimage.clear();
        for (ElemId e : t) preimage.push_back(inverse[e]);
        if (!a_.Holds(id, preimage)) return false;
      }
    }
    return true;
  }

  bool Extend(std::size_t depth) {
    if (depth == order_.size()) return true;
    ElemId va = order_[depth];
    // Candidates: unused B-vertices with the same profile whose Gaifman
    // adjacency to already-mapped vertices matches va's.
    for (ElemId vb = 0; vb < b_.universe_size(); ++vb) {
      if (used_[vb] || !(pa_[va] == pb_[vb])) continue;
      bool adjacency_ok = true;
      for (ElemId u = 0; u < map_.size() && adjacency_ok; ++u) {
        if (map_[u] == kUnmapped) continue;
        if (ga_.HasEdge(u, va) != gb_.HasEdge(map_[u], vb)) {
          adjacency_ok = false;
        }
      }
      if (!adjacency_ok) continue;
      Assign(va, vb);
      if (TuplesConsistent(va) && Extend(depth + 1)) return true;
      Unassign(va);
    }
    return false;
  }

  const Structure& a_;
  const Graph& ga_;
  const Structure& b_;
  const Graph& gb_;
  const std::vector<VertexProfile>& pa_;
  const std::vector<VertexProfile>& pb_;
  std::vector<ElemId> map_;
  std::vector<bool> used_;
  std::vector<VertexId> order_;
};

}  // namespace

bool RootedIsomorphic(const Structure& a, ElemId center_a, const Structure& b,
                      ElemId center_b) {
  if (a.universe_size() != b.universe_size()) return false;
  if (a.signature().NumSymbols() != b.signature().NumSymbols()) return false;
  for (SymbolId id = 0; id < a.signature().NumSymbols(); ++id) {
    if (a.relation(id).NumTuples() != b.relation(id).NumTuples()) return false;
    if (a.signature().Arity(id) != b.signature().Arity(id)) return false;
  }
  Graph ga = BuildGaifmanGraph(a);
  Graph gb = BuildGaifmanGraph(b);
  std::vector<VertexProfile> pa = Profiles(a, ga, center_a);
  std::vector<VertexProfile> pb = Profiles(b, gb, center_b);
  // Multiset of profiles must match.
  auto key = [](const VertexProfile& p) {
    std::size_t seed = p.layer;
    HashCombine(&seed, p.degree);
    for (std::uint32_t o : p.occurrences) HashCombine(&seed, o);
    return seed;
  };
  std::vector<std::size_t> ka, kb;
  for (const auto& p : pa) ka.push_back(key(p));
  for (const auto& p : pb) kb.push_back(key(p));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  if (ka != kb) return false;
  IsoSearch search(a, ga, b, gb, pa, pb);
  return search.Run(center_a, center_b);
}

std::uint64_t SphereTypeRegistry::InvariantKey(const Structure& sphere,
                                               ElemId center) {
  std::size_t seed = sphere.universe_size();
  Graph g = BuildGaifmanGraph(sphere);
  HashCombine(&seed, g.num_edges());
  for (SymbolId id = 0; id < sphere.signature().NumSymbols(); ++id) {
    HashCombine(&seed, sphere.relation(id).NumTuples());
  }
  // Sorted degree sequence + centre degree.
  std::vector<std::size_t> degrees;
  for (ElemId v = 0; v < sphere.universe_size(); ++v) {
    degrees.push_back(g.Degree(v));
  }
  std::sort(degrees.begin(), degrees.end());
  for (std::size_t d : degrees) HashCombine(&seed, d);
  HashCombine(&seed, g.Degree(center));
  return seed;
}

SphereTypeId SphereTypeRegistry::TypeOf(const Structure& sphere,
                                        ElemId center) {
  std::uint64_t key = InvariantKey(sphere, center);
  for (SphereTypeId id : by_invariant_[key]) {
    if (RootedIsomorphic(representatives_[id].sphere,
                         representatives_[id].center, sphere, center)) {
      return id;
    }
  }
  SphereTypeId id = static_cast<SphereTypeId>(representatives_.size());
  representatives_.push_back(Entry{sphere, center});
  by_invariant_[key].push_back(id);
  return id;
}

SphereTypeAssignment ComputeSphereTypes(const Structure& a,
                                        const Graph& gaifman, std::uint32_t r,
                                        const Instruments& in) {
  SphereTypeAssignment out;
  const std::size_t n = a.universe_size();
  out.type_of.resize(n);
  TupleIncidence incidence(a);
  const int workers = EffectiveThreads(in.num_threads);
  in.AddTotal(ProgressPhase::kHanf, static_cast<std::int64_t>(n));

  // Interning must stay sequential in element order: TypeOf assigns dense ids
  // on first sight, so the order of first sightings determines every id. We
  // therefore pipeline in blocks — extract the (dominant) sphere views of one
  // block in parallel, then intern them in element order — which yields the
  // exact serial assignment for any thread count.
  const std::size_t kBlock = 4096;
  std::vector<std::optional<SubstructureView>> views;
  for (std::size_t block_begin = 0; block_begin < n; block_begin += kBlock) {
    const std::size_t block_size = std::min(kBlock, n - block_begin);
    views.assign(block_size, std::nullopt);
    ParallelFor(workers, block_size,
                [&](std::size_t /*chunk*/, std::size_t begin,
                    std::size_t end) {
                  BallExplorer explorer(gaifman);
                  for (std::size_t i = begin; i < end; ++i) {
                    if (in.ShouldStop()) return;
                    ElemId e = static_cast<ElemId>(block_begin + i);
                    std::vector<ElemId> ball = explorer.Explore(e, r);
                    std::sort(ball.begin(), ball.end());
                    views[i] = InducedViewFast(incidence, ball);
                  }
                });
    // A drained extraction leaves empty view slots: stop before interning
    // touches them (the partial assignment is discarded by the caller).
    if (in.Cancelled()) return out;
    for (std::size_t i = 0; i < block_size; ++i) {
      if (in.ShouldStop()) return out;
      ElemId e = static_cast<ElemId>(block_begin + i);
      SphereTypeId id =
          out.registry.TypeOf(views[i]->structure, views[i]->ToLocal(e));
      out.type_of[e] = id;
      if (out.elements_of_type.size() <= id) {
        out.elements_of_type.resize(id + 1);
      }
      out.elements_of_type[id].push_back(e);
      in.Advance(ProgressPhase::kHanf, 1);
    }
  }
  return out;
}

std::int64_t SphereTypeAssignment::ApproxBytes() const {
  std::int64_t bytes =
      static_cast<std::int64_t>(type_of.size() * sizeof(SphereTypeId));
  // 24 bytes stands in for the per-list vector overhead; interned
  // representatives are charged 8 bytes per unit of ||sphere||.
  for (const auto& elems : elements_of_type) {
    bytes += 24 + static_cast<std::int64_t>(elems.size() * sizeof(ElemId));
  }
  for (std::size_t id = 0; id < registry.NumTypes(); ++id) {
    bytes += static_cast<std::int64_t>(
        registry.Representative(static_cast<SphereTypeId>(id)).SizeNorm() * 8);
  }
  return bytes;
}

}  // namespace focq
