#include "focq/cover/neighborhood_cover.h"

#include <algorithm>

#include "focq/graph/bfs.h"
#include "focq/util/check.h"
#include "focq/util/thread_pool.h"

namespace focq {
namespace {

// Cover-shape counters: sums (builds, clusters, cluster sizes) accumulate
// across builds, high-water marks merge by max. All are determined by the
// input graph and radius alone, so they fall under the determinism contract.
//
// The per-cluster size distribution is aggregated locally — one ValueStats
// plus bounded log2 histogram buckets — and flushed in O(#non-empty buckets)
// sink operations, so an ExactBallCover build (one cluster per vertex) costs
// a constant number of lock/map touches instead of n. MergeValue reproduces
// the exact stats a per-cluster RecordValue loop would have produced.
void RecordCoverMetrics(const NeighborhoodCover& cover, MetricsSink* metrics) {
  if (metrics == nullptr) return;
  metrics->AddCounter("cover.builds", 1);
  metrics->AddCounter("cover.clusters",
                      static_cast<std::int64_t>(cover.NumClusters()));
  metrics->AddCounter("cover.total_cluster_size",
                      static_cast<std::int64_t>(cover.TotalClusterSize()));
  metrics->MaxCounter("cover.max_degree",
                      static_cast<std::int64_t>(cover.MaxDegree()));
  ValueStats sizes;
  constexpr std::size_t kNumBuckets = 64;  // log2 buckets cover all of int64
  std::int64_t buckets[kNumBuckets] = {};
  for (const auto& c : cover.clusters) {
    std::int64_t size = static_cast<std::int64_t>(c.size());
    sizes.Record(size);
    std::size_t b = 0;
    while ((std::int64_t{1} << b) < size && b + 1 < kNumBuckets) ++b;
    ++buckets[b];  // bucket b counts clusters of size in (2^(b-1), 2^b]
  }
  metrics->MergeValue("cover.cluster_size", sizes);
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    if (buckets[b] == 0) continue;
    metrics->AddCounter("cover.cluster_size_log2_" + std::to_string(b),
                        buckets[b]);
  }
  metrics->MaxCounter("cover.max_cluster_size",
                      sizes.count == 0 ? 0 : sizes.max);
}

}  // namespace

std::size_t NeighborhoodCover::TotalClusterSize() const {
  std::size_t total = 0;
  for (const auto& c : clusters) total += c.size();
  return total;
}

std::size_t NeighborhoodCover::MaxDegree() const {
  std::vector<std::size_t> degree(assignment.size(), 0);
  for (const auto& c : clusters) {
    for (ElemId e : c) ++degree[e];
  }
  std::size_t best = 0;
  for (std::size_t d : degree) best = std::max(best, d);
  return best;
}

std::int64_t NeighborhoodCover::ApproxBytes() const {
  // 24 bytes stands in for the per-cluster vector overhead.
  return static_cast<std::int64_t>(
             (TotalClusterSize() + assignment.size() + centers.size()) *
             sizeof(ElemId)) +
         static_cast<std::int64_t>(NumClusters()) * 24;
}

NeighborhoodCover ExactBallCover(const Graph& gaifman, std::uint32_t r,
                                 int num_threads, MetricsSink* metrics,
                                 ProgressSink* progress) {
  NeighborhoodCover cover;
  cover.r = r;
  cover.cluster_radius = r;
  std::size_t n = gaifman.num_vertices();
  cover.clusters.resize(n);
  cover.assignment.resize(n);
  cover.centers.resize(n);
  if (progress != nullptr) {
    progress->AddTotal(ProgressPhase::kCover, static_cast<std::int64_t>(n));
  }
  // Cluster c is always the r-ball of vertex c, so every slot is independent
  // of every other: chunks write disjoint ranges and the result is the same
  // for any thread count. BFS work is tallied per chunk and flushed after
  // the join (the ShardedCounter protocol).
  ShardedCounter bfs_vertices(MakeChunkGrid(n, num_threads).num_chunks);
  ParallelFor(num_threads, n,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                BallExplorer explorer(gaifman);
                for (std::size_t v = begin; v < end; ++v) {
                  // Cooperative cancellation: once the hard deadline fires,
                  // every remaining ball drains as a no-op.
                  if (progress != nullptr && progress->ShouldStop()) return;
                  std::vector<ElemId> ball =
                      explorer.Explore(static_cast<VertexId>(v), r);
                  std::sort(ball.begin(), ball.end());
                  bfs_vertices.Add(chunk,
                                   static_cast<std::int64_t>(ball.size()));
                  cover.assignment[v] = static_cast<std::uint32_t>(v);
                  cover.clusters[v] = std::move(ball);
                  cover.centers[v] = static_cast<ElemId>(v);
                  if (progress != nullptr) {
                    progress->Advance(ProgressPhase::kCover, 1);
                  }
                }
              });
  if (progress != nullptr && progress->cancelled()) return cover;  // partial
  bfs_vertices.FlushTo(metrics, "cover.bfs_vertices");
  RecordCoverMetrics(cover, metrics);
  return cover;
}

NeighborhoodCover SparseCover(const Graph& gaifman, std::uint32_t r,
                              int num_threads, MetricsSink* metrics,
                              ProgressSink* progress) {
  NeighborhoodCover cover;
  cover.r = r;
  cover.cluster_radius = SaturatedRadius(2 * std::uint64_t{r});
  std::size_t n = gaifman.num_vertices();
  cover.assignment.assign(n, 0);
  if (progress != nullptr) {
    progress->AddTotal(ProgressPhase::kCover, static_cast<std::int64_t>(n));
  }

  // Pass 1: greedy centres. covering_center[v] = the centre within distance r
  // that claimed v first, or kUnclaimed.
  constexpr std::uint32_t kUnclaimed = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> covering_center(n, kUnclaimed);
  std::int64_t greedy_bfs_vertices = 0;
  BallExplorer explorer(gaifman);
  for (VertexId v = 0; v < n; ++v) {
    if (progress != nullptr) {
      if (progress->ShouldStop()) return cover;  // partial, caller discards
      progress->Advance(ProgressPhase::kCover, 1);
    }
    if (covering_center[v] != kUnclaimed) continue;
    std::uint32_t center_index = static_cast<std::uint32_t>(cover.centers.size());
    cover.centers.push_back(v);
    const std::vector<VertexId>& ball = explorer.Explore(v, r);
    greedy_bfs_vertices += static_cast<std::int64_t>(ball.size());
    for (VertexId b : ball) {
      if (covering_center[b] == kUnclaimed) covering_center[b] = center_index;
    }
  }

  // Pass 2: clusters are the 2r-balls of the centres; every vertex is
  // assigned the cluster of the centre that claimed it, which contains its
  // whole r-ball (dist(v, centre) <= r). Each cluster slot is independent,
  // so the (dominant) ball materialisation fans out across threads.
  cover.clusters.resize(cover.centers.size());
  if (progress != nullptr) {
    progress->AddTotal(ProgressPhase::kCover,
                       static_cast<std::int64_t>(cover.centers.size()));
  }
  ShardedCounter bfs_vertices(
      MakeChunkGrid(cover.centers.size(), num_threads).num_chunks);
  ParallelFor(num_threads, cover.centers.size(),
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                BallExplorer chunk_explorer(gaifman);
                for (std::size_t c = begin; c < end; ++c) {
                  if (progress != nullptr && progress->ShouldStop()) return;
                  std::vector<ElemId> ball =
                      chunk_explorer.Explore(cover.centers[c],
                                             cover.cluster_radius);
                  std::sort(ball.begin(), ball.end());
                  bfs_vertices.Add(chunk,
                                   static_cast<std::int64_t>(ball.size()));
                  cover.clusters[c] = std::move(ball);
                  if (progress != nullptr) {
                    progress->Advance(ProgressPhase::kCover, 1);
                  }
                }
              });
  if (progress != nullptr && progress->cancelled()) return cover;  // partial
  for (VertexId v = 0; v < n; ++v) {
    FOCQ_CHECK_NE(covering_center[v], kUnclaimed);
    cover.assignment[v] = covering_center[v];
  }
  if (metrics != nullptr) {
    metrics->AddCounter("cover.bfs_vertices",
                        greedy_bfs_vertices + bfs_vertices.Total());
  }
  RecordCoverMetrics(cover, metrics);
  return cover;
}

void CheckCoverInvariants(const Graph& gaifman, const NeighborhoodCover& cover) {
  std::size_t n = gaifman.num_vertices();
  FOCQ_CHECK_EQ(cover.assignment.size(), n);
  BallExplorer explorer(gaifman);
  // Cluster radius, witnessed by the centre; connectivity follows because
  // every cluster is exactly a ball around its centre in our constructions,
  // but we verify containment-in-ball explicitly.
  for (std::size_t c = 0; c < cover.clusters.size(); ++c) {
    std::vector<VertexId> ball = explorer.Explore(cover.centers[c],
                                                  cover.cluster_radius);
    std::sort(ball.begin(), ball.end());
    for (ElemId e : cover.clusters[c]) {
      FOCQ_CHECK(std::binary_search(ball.begin(), ball.end(), e));
    }
  }
  // N_r(a) within the assigned cluster.
  for (VertexId v = 0; v < n; ++v) {
    const std::vector<ElemId>& cluster = cover.clusters[cover.assignment[v]];
    const std::vector<VertexId>& ball = explorer.Explore(v, cover.r);
    for (VertexId b : ball) {
      FOCQ_CHECK(std::binary_search(cluster.begin(), cluster.end(), b));
    }
  }
}

}  // namespace focq
