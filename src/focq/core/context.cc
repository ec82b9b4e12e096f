#include "focq/core/context.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "focq/graph/bfs.h"
#include "focq/obs/recorder.h"
#include "focq/structure/gaifman.h"
#include "focq/structure/incidence.h"

namespace focq {
namespace {

// One root-level explain node per artifact build or repair: the work is
// query-independent (whichever query misses the cache pays for it), so it
// hangs off the forest root rather than under the unlucky query's plan.
int NewRootNode(Instruments opts, std::string kind, std::string label) {
  opts.explain_parent = -1;
  return opts.NewNode(std::move(kind), std::move(label));
}

// Sorted union of two sorted vertex lists.
std::vector<VertexId> UnionSorted(const std::vector<VertexId>& a,
                                  const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

// Repair counters appear only once they are non-zero.
void Add(const Instruments& opts, const char* name, std::int64_t delta) {
  if (delta != 0) opts.Count(name, delta);
}

}  // namespace

void EvalContext::RecordHit(const ArtifactOptions& opts, const char* what) {
  ++stats_.hits;
  opts.Count("ctx.cache.hits", 1);
  FlightRecord(FlightEventKind::kCacheHit, what);
}

void EvalContext::RecordMiss(const ArtifactOptions& opts, std::int64_t bytes,
                             const char* what) {
  ++stats_.misses;
  stats_.bytes += bytes;
  opts.Count("ctx.cache.misses", 1);
  opts.Max("ctx.cache.bytes", stats_.bytes);
  FlightRecord(FlightEventKind::kCacheMiss, what, bytes);
}

const Graph& EvalContext::EnsureGaifman(const ArtifactOptions& opts) {
  if (!gaifman_.has_value()) {
    int node = NewRootNode(opts, "artifact", "gaifman graph");
    Phase phase(opts, "gaifman_build", node);
    gaifman_.emplace(BuildGaifmanGraph(*a_));
    opts.Count("gaifman.builds", 1);
    std::int64_t bytes = gaifman_->ApproxBytes();
    opts.Max("mem.gaifman.bytes", bytes);
    opts.NodeBytes(node, bytes);
    RecordMiss(opts, bytes, "gaifman");
  }
  return *gaifman_;
}

const Graph& EvalContext::Gaifman(const ArtifactOptions& opts) {
  std::lock_guard<std::mutex> lock(mutex_);
  bool hit = gaifman_.has_value();
  const Graph& g = EnsureGaifman(opts);
  if (hit) RecordHit(opts, "gaifman");
  return g;
}

const NeighborhoodCover& EvalContext::Cover(std::uint32_t radius,
                                            CoverBackend backend,
                                            const ArtifactOptions& opts) {
  // The infallible getter ignores any armed deadline: with no cancellation
  // source the Try variant below cannot fail.
  Instruments no_cancel = opts;
  no_cancel.progress = nullptr;
  Result<const NeighborhoodCover*> cover = TryCover(radius, backend, no_cancel);
  return **cover;
}

Result<const NeighborhoodCover*> EvalContext::TryCover(
    std::uint32_t radius, CoverBackend backend, const ArtifactOptions& opts) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto key = std::make_pair(radius, static_cast<int>(backend));
  auto it = covers_.find(key);
  if (it != covers_.end()) {
    RecordHit(opts, "cover");
    return &it->second;
  }
  const Graph& gaifman = EnsureGaifman(opts);
  int node = NewRootNode(
      opts, "artifact",
      std::string(backend == CoverBackend::kExact ? "exact" : "sparse") +
          " cover r=" + std::to_string(radius));
  Phase phase(opts, "cover_build", node);
  NeighborhoodCover cover = backend == CoverBackend::kExact
                                ? ExactBallCover(gaifman, radius, opts)
                                : SparseCover(gaifman, radius, opts);
  if (opts.Cancelled()) {
    // Discard the partial build without caching it: the next access rebuilds
    // from scratch, so a warm re-run stays bit-identical to a cold run.
    return opts.DeadlineStatus();
  }
  it = covers_.emplace(key, std::move(cover)).first;
  std::int64_t bytes = it->second.ApproxBytes();
  opts.Max("mem.cover.bytes", bytes);
  opts.NodeBytes(node, bytes);
  RecordMiss(opts, bytes, "cover");
  return &it->second;
}

const SphereTypeAssignment& EvalContext::SphereTypes(
    std::uint32_t radius, const ArtifactOptions& opts) {
  Instruments no_cancel = opts;
  no_cancel.progress = nullptr;
  Result<const SphereTypeAssignment*> spheres =
      TrySphereTypes(radius, no_cancel);
  return **spheres;
}

Result<const SphereTypeAssignment*> EvalContext::TrySphereTypes(
    std::uint32_t radius, const ArtifactOptions& opts) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spheres_.find(radius);
  if (it != spheres_.end()) {
    RecordHit(opts, "spheres");
    return &it->second;
  }
  const Graph& gaifman = EnsureGaifman(opts);
  int node =
      NewRootNode(opts, "artifact", "sphere types r=" + std::to_string(radius));
  Phase phase(opts, "hanf_typing", node);
  SphereTypeAssignment assignment =
      ComputeSphereTypes(*a_, gaifman, radius, opts);
  if (opts.Cancelled()) {
    return opts.DeadlineStatus();  // partial typing: not cached
  }
  it = spheres_.emplace(radius, std::move(assignment)).first;
  std::int64_t bytes = it->second.ApproxBytes();
  opts.Max("mem.spheres.bytes", bytes);
  opts.NodeBytes(node, bytes);
  RecordMiss(opts, bytes, "spheres");
  return &it->second;
}

const SphereTypeAssignment* EvalContext::CachedSphereTypes(
    std::uint32_t radius) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spheres_.find(radius);
  return it != spheres_.end() ? &it->second : nullptr;
}

void EvalContext::RecomputeBytes() {
  std::int64_t bytes = gaifman_.has_value() ? gaifman_->ApproxBytes() : 0;
  for (const auto& [key, cover] : covers_) bytes += cover.ApproxBytes();
  for (const auto& [key, spheres] : spheres_) bytes += spheres.ApproxBytes();
  stats_.bytes = bytes;
}

Result<UpdateStats> EvalContext::ApplyUpdate(Structure* a,
                                             const TupleUpdate& u,
                                             const ArtifactOptions& opts) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (a != a_) {
    return Status::InvalidArgument(
        "ApplyUpdate target is not the structure this context was built over");
  }
  // Validate before mutating anything.
  FOCQ_RETURN_IF_ERROR(ValidateUpdate(*a, u));

  UpdateStats stats;
  const std::size_t n = a->universe_size();
  const bool have_artifacts = gaifman_.has_value();
  // The support counts must describe the structure the cached graph was
  // built from, i.e. the *pre-update* structure: engage them before the
  // tuple mutation below.
  if (have_artifacts && !maintainer_.has_value()) maintainer_.emplace(*a_);

  stats.changed = u.kind == UpdateKind::kInsert
                      ? a->InsertTuple(u.symbol, u.tuple)
                      : a->DeleteTuple(u.symbol, u.tuple);
  opts.Count(!stats.changed                   ? "update.noops"
             : u.kind == UpdateKind::kInsert ? "update.inserts"
                                             : "update.deletes",
             1);
  // No-op updates leave structure, caches and support counts untouched;
  // with nothing cached there is nothing to repair (the next artifact
  // access builds from the already-updated structure).
  if (!stats.changed || !have_artifacts) return stats;

  int node = NewRootNode(opts, "repair", UpdateToString(u, a->signature()));
  Phase phase(opts, "update_repair", node);
  Add(opts, "update.repairs", 1);
  FlightRecord(FlightEventKind::kRepair, "update_repair",
               static_cast<std::int64_t>(u.symbol),
               static_cast<std::int64_t>(u.tuple.size()));

  // Nullary facts live inside every sphere view but never touch the Gaifman
  // graph: covers stay valid, sphere entries are dropped wholesale.
  if (u.tuple.empty()) {
    std::int64_t dropped = static_cast<std::int64_t>(spheres_.size());
    spheres_.clear();
    stats.artifacts_invalidated += dropped;
    Add(opts, "cache.invalidated.spheres", dropped);
    RecomputeBytes();
    opts.NodeBytes(node, stats_.bytes);
    return stats;
  }

  // Gaifman repair: support-count deltas first (graph still pre-update so
  // the "old" balls below are taken against the old adjacency).
  GaifmanDelta delta = u.kind == UpdateKind::kInsert
                           ? maintainer_->ApplyInsert(u.tuple, nullptr)
                           : maintainer_->ApplyDelete(u.tuple, nullptr);

  // Affected regions, per radius any cached artifact needs: vertices within
  // the radius of the tuple's elements in the old *or* new graph. Everything
  // outside is provably untouched (DESIGN.md §3e).
  const std::vector<ElemId> touched = TupleElements(u.tuple);
  std::set<std::uint32_t> radii;
  for (const auto& [key, cover] : covers_) {
    radii.insert(key.first);
    radii.insert(cover.cluster_radius);  // centre-side region (sparse: 2r)
  }
  for (const auto& [radius, spheres] : spheres_) radii.insert(radius);

  std::map<std::uint32_t, std::vector<VertexId>> region;
  if (delta.Empty()) {
    // Adjacency unchanged (e.g. unary facts, or the pair was already
    // witnessed by another tuple): old and new balls coincide.
    for (std::uint32_t radius : radii) {
      region[radius] = Ball(*gaifman_, touched, radius);
    }
  } else {
    for (std::uint32_t radius : radii) {
      region[radius] = Ball(*gaifman_, touched, radius);
    }
    for (const auto& [x, y] : delta.added) gaifman_->InsertEdge(x, y);
    for (const auto& [x, y] : delta.removed) gaifman_->EraseEdge(x, y);
    for (std::uint32_t radius : radii) {
      region[radius] =
          UnionSorted(region[radius], Ball(*gaifman_, touched, radius));
    }
  }
  stats.edges_added = static_cast<std::int64_t>(delta.added.size());
  stats.edges_removed = static_cast<std::int64_t>(delta.removed.size());
  Add(opts, "update.gaifman.edges_added", stats.edges_added);
  Add(opts, "update.gaifman.edges_removed", stats.edges_removed);

  // Cover repair — only when the Gaifman graph changed (clusters are pure
  // functions of the graph).
  if (!delta.Empty()) {
    for (auto it = covers_.begin(); it != covers_.end();) {
      NeighborhoodCover& cover = it->second;
      const std::uint32_t r = it->first.first;
      const bool exact =
          it->first.second == static_cast<int>(CoverBackend::kExact);
      const std::vector<VertexId>& vregion = region[r];
      const std::vector<VertexId>& cregion = region[cover.cluster_radius];
      if (2 * cregion.size() > n) {
        // Repair would touch most of the graph: drop the entry and let the
        // next access rebuild (counter contrast documented in EXPERIMENTS
        // E15: cache.invalidated.covers vs ctx.cache.misses).
        it = covers_.erase(it);
        ++stats.artifacts_invalidated;
        Add(opts, "cache.invalidated.covers", 1);
        continue;
      }
      BallExplorer explorer(*gaifman_);
      if (exact) {
        // Cluster v is N_r(v): recompute exactly the affected balls. This is
        // bit-identical to a cold ExactBallCover build.
        for (VertexId v : vregion) {
          std::vector<ElemId> ball = explorer.Explore(v, r);
          std::sort(ball.begin(), ball.end());
          cover.clusters[v] = std::move(ball);
          ++stats.clusters_rebuilt;
        }
      } else {
        // Sparse (r, 2r)-cover: re-materialise the 2r-balls of affected
        // centres, then re-validate the assignment of affected vertices.
        std::unordered_map<VertexId, std::uint32_t> center_of;
        center_of.reserve(cover.centers.size());
        for (std::uint32_t c = 0; c < cover.centers.size(); ++c) {
          center_of.emplace(cover.centers[c], c);
        }
        for (std::uint32_t c = 0; c < cover.centers.size(); ++c) {
          if (!std::binary_search(cregion.begin(), cregion.end(),
                                  cover.centers[c])) {
            continue;
          }
          std::vector<ElemId> ball =
              explorer.Explore(cover.centers[c], cover.cluster_radius);
          std::sort(ball.begin(), ball.end());
          cover.clusters[c] = std::move(ball);
          ++stats.clusters_rebuilt;
        }
        for (VertexId v : vregion) {
          std::vector<VertexId> ball = explorer.Explore(v, r);
          const VertexId current = cover.centers[cover.assignment[v]];
          bool current_ok = false;
          std::uint32_t best_dist = kInfiniteDistance;
          std::uint32_t best_cluster = static_cast<std::uint32_t>(-1);
          for (VertexId b : ball) {
            if (b == current) current_ok = true;
            auto ct = center_of.find(b);
            if (ct == center_of.end()) continue;
            std::uint32_t d = explorer.DistanceOf(b);
            if (d < best_dist ||
                (d == best_dist && ct->second < best_cluster)) {
              best_dist = d;
              best_cluster = ct->second;
            }
          }
          if (current_ok) continue;  // still within r: invariant holds
          if (best_cluster != static_cast<std::uint32_t>(-1)) {
            cover.assignment[v] = best_cluster;
            continue;
          }
          // No centre within r (a deletion isolated v's ball): promote v.
          std::uint32_t idx =
              static_cast<std::uint32_t>(cover.clusters.size());
          std::vector<ElemId> cluster =
              explorer.Explore(v, cover.cluster_radius);
          std::sort(cluster.begin(), cluster.end());
          cover.centers.push_back(v);
          cover.clusters.push_back(std::move(cluster));
          cover.assignment[v] = idx;
          center_of.emplace(v, idx);
          ++stats.clusters_added;
        }
      }
      ++it;
    }
  }
  Add(opts, "cover.clusters.rebuilt", stats.clusters_rebuilt);
  Add(opts, "cover.clusters.added", stats.clusters_added);

  // Sphere repair: retype affected elements against the (monotonically
  // growing) registry. Unlike covers, spheres see tuple *content*, so even a
  // delta-free update (unary fact) perturbs every ball containing the tuple.
  if (!spheres_.empty()) {
    // One O(||A||) incidence rebuild serves every radius; still far cheaper
    // than the per-element BFS + isomorphism work a cold typing pays.
    TupleIncidence incidence(*a_);
    BallExplorer explorer(*gaifman_);
    for (auto it = spheres_.begin(); it != spheres_.end();) {
      const std::uint32_t radius = it->first;
      SphereTypeAssignment& assignment = it->second;
      const std::vector<VertexId>& affected = region[radius];
      if (2 * affected.size() > n) {
        it = spheres_.erase(it);
        ++stats.artifacts_invalidated;
        Add(opts, "cache.invalidated.spheres", 1);
        continue;
      }
      for (ElemId e : affected) {
        std::vector<ElemId> ball = explorer.Explore(e, radius);
        std::sort(ball.begin(), ball.end());
        SubstructureView view = InducedViewFast(incidence, ball);
        SphereTypeId fresh =
            assignment.registry.TypeOf(view.structure, view.ToLocal(e));
        ++stats.elements_retyped;
        SphereTypeId old = assignment.type_of[e];
        if (fresh == old) continue;
        auto& old_list = assignment.elements_of_type[old];
        old_list.erase(
            std::lower_bound(old_list.begin(), old_list.end(), e));
        if (assignment.elements_of_type.size() <= fresh) {
          assignment.elements_of_type.resize(fresh + 1);
        }
        auto& new_list = assignment.elements_of_type[fresh];
        new_list.insert(
            std::upper_bound(new_list.begin(), new_list.end(), e), e);
        assignment.type_of[e] = fresh;
      }
      ++it;
    }
  }
  Add(opts, "hanf.retyped", stats.elements_retyped);

  RecomputeBytes();
  opts.Max("ctx.cache.bytes", stats_.bytes);
  opts.NodeBytes(node, stats_.bytes);
  return stats;
}

EvalContext::CacheStats EvalContext::cache_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace focq
