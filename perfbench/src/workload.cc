#include "workload.h"

#include <algorithm>
#include <set>

namespace perfbench {
namespace {

// Radius 1-2 shapes, nesting depth <= 2, over E (symmetric, max degree 4)
// and R (~30% of the elements). All compile onto the fast path (no fallback
// relations).
const Template kEdgeR = {FrameKind::kTerm,
                         "#(x). (@ge1(#(y). (E(x, y) & R(y)) - 1))"};
const Template kHasRNeighbour = {FrameKind::kCount,
                                 "@ge1(#(y). (E(x, y) & R(y)))"};
const Template kDegree4 = {FrameKind::kCheck,
                           "exists x. @eq(#(y). (E(x, y)), 4)"};
const Template kEvenDegree = {FrameKind::kTerm, "#(x). (@even(#(y). (E(x, y))))"};
const Template kMaxDegree = {FrameKind::kCheck,
                             "forall x. @leq(#(y). (E(x, y)), 4)"};
const Template kR2Ball = {FrameKind::kTerm,
                          "#(x). (@ge1(#(y). (dist(x, y) <= 2 & R(y)) - 3))"};
const Template kRSparse2Ball = {
    FrameKind::kCount, "R(x) & @leq(#(y). (dist(x, y) <= 2 & R(y)), 2)"};
const Template kNested = {
    FrameKind::kTerm,
    "#(x). (@ge1(#(y). (E(x, y) & @ge1(#(z). (E(y, z) & R(z)) - 1))))"};

Workload ReadLarge() {
  Workload w;
  w.name = "read-large";
  w.n = 8192;
  w.engine = "local";
  w.connections = 2;
  w.outstanding = 1;
  w.templates = {kEdgeR,     kHasRNeighbour, kDegree4, kEvenDegree,
                 kMaxDegree, kR2Ball,        kRSparse2Ball, kNested};
  w.replay_prefix = 64;
  return w;
}

// The radius-1 shapes again, each with a per-statement offset k that makes
// the text unique without changing the plan or the work: inside a numerical
// predicate it cancels out, on the outer ground term it shifts the answer.
Workload ReadSmall() {
  Workload w;
  w.name = "read-small";
  w.n = 256;
  w.engine = "local";
  w.connections = 2;
  w.outstanding = 1;
  w.offsets = true;
  w.templates = {
      {FrameKind::kTerm, "#(x). (@ge1(#(y). (E(x, y) & R(y)) + {k} - ({k} + 1))) + {k}"},
      {FrameKind::kCount, "@ge1(#(y). (E(x, y) & R(y)) + {k} - {k})"},
      {FrameKind::kCheck, "exists x. @eq(#(y). (E(x, y)) + {k}, {k} + 4)"},
      {FrameKind::kTerm, "#(x). (@even(#(y). (E(x, y)) + 2 * {k})) + {k}"},
      {FrameKind::kCheck, "forall x. @leq(#(y). (E(x, y)) + {k}, {k} + 4)"},
      {FrameKind::kTerm,
       "#(x). (@ge1(#(y). (E(x, y) & @ge1(#(z). (E(y, z) & R(z)) + {k} - "
       "({k} + 1))))) + {k}"},
      {FrameKind::kTerm, "#(x). (R(x)) + {k}"},
  };
  w.replay_prefix = 2000;
  return w;
}

Workload UpdateCover() {
  Workload w;
  w.name = "update-cover";
  w.n = 1024;
  w.engine = "cover";
  w.connections = 2;
  w.outstanding = 1;
  w.templates = {kEdgeR, kHasRNeighbour, kEvenDegree, kDegree4};
  w.update_every = 4;
  w.replay_prefix = 160;
  return w;
}

}  // namespace

std::optional<Workload> FindWorkload(const std::string& name) {
  for (Workload w : {ReadLarge(), ReadSmall(), UpdateCover()}) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

GeneratedStructure GenerateStructure(std::size_t n, std::uint64_t seed) {
  GeneratedStructure g;
  std::vector<int> degree(n, 0);
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::uint64_t state = Mix(seed ^ 0x5eed);
  auto next = [&state] { return state = Mix(state); };
  // Exactly 3n/2 edges (average degree 3) under the degree cap of 4 and
  // exactly 3n/10 elements in R, so the size of the work does not vary with
  // the seed; only its shape does. The attempt cap only bounds the loop: at
  // the workloads' sizes the target is reached after about 2n attempts.
  const std::size_t target = 3 * n / 2;
  for (std::size_t attempt = 0; edges.size() < target && attempt < 64 * n;
       ++attempt) {
    auto u = static_cast<std::uint32_t>(next() % n);
    auto v = static_cast<std::uint32_t>(next() % n);
    if (u == v || degree[u] >= 4 || degree[v] >= 4) continue;
    if (!edges.insert({std::min(u, v), std::max(u, v)}).second) continue;
    ++degree[u];
    ++degree[v];
  }
  g.edges.assign(edges.begin(), edges.end());
  g.text = "universe " + std::to_string(n) + "\nrelation E 2\n";
  for (const auto& [u, v] : g.edges) {
    g.text += std::to_string(u) + " " + std::to_string(v) + "\n" +
              std::to_string(v) + " " + std::to_string(u) + "\n";
  }
  // A partial Fisher-Yates shuffle picks R.
  std::vector<std::uint32_t> elements(n);
  for (std::size_t e = 0; e < n; ++e) {
    elements[e] = static_cast<std::uint32_t>(e);
  }
  const std::size_t r_size = 3 * n / 10;
  for (std::size_t j = 0; j < r_size; ++j) {
    std::swap(elements[j], elements[j + next() % (n - j)]);
  }
  std::sort(elements.begin(), elements.begin() + r_size);
  g.text += "relation R 1\n";
  for (std::size_t j = 0; j < r_size; ++j) {
    g.text += std::to_string(elements[j]) + "\n";
  }
  return g;
}

std::string Instantiate(const Template& t, std::int64_t k) {
  std::string out;
  const std::string value = std::to_string(k);
  for (std::size_t i = 0; i < t.text.size();) {
    if (t.text.compare(i, 3, "{k}") == 0) {
      out += value;
      i += 3;
    } else {
      out += t.text[i++];
    }
  }
  return out;
}

Statement StatementStream::At(std::size_t i) const {
  const Workload& w = *workload_;
  const int every = w.update_every;
  if (every > 0 && i % every == static_cast<std::size_t>(every - 1)) {
    const std::size_t update = i / every;
    const std::uint64_t pick = Mix(seed_ * 0x10001 + update / 4 + 0xed9e);
    auto [u, v] = (*edges_)[pick % edges_->size()];
    if (update % 2 == 1) std::swap(u, v);
    const char* op = update % 4 < 2 ? "delete" : "insert";
    return {FrameKind::kUpdate,
            std::string(op) + " E " + std::to_string(u) + " " +
                std::to_string(v)};
  }
  // Reads come in blocks that hold every template once, in a seed-shuffled
  // order: the template mix of any window is fixed, only its order varies.
  const std::size_t read = every > 0 ? i - (i + 1) / every : i;
  const std::size_t size = w.templates.size();
  std::vector<int> order(size);
  for (std::size_t j = 0; j < size; ++j) order[j] = static_cast<int>(j);
  std::uint64_t state = Mix(seed_ * 0x9e37 + read / size);
  for (std::size_t j = size - 1; j > 0; --j) {
    state = Mix(state);
    std::swap(order[j], order[state % (j + 1)]);
  }
  const int index = order[read % size];
  const Template& t = w.templates[index];
  // Offsets start at 1: offset 0 is the warm-up pass's.
  const std::int64_t k = w.offsets ? static_cast<std::int64_t>(i) + 1 : 0;
  return {t.kind, Instantiate(t, k), index, k};
}

}  // namespace perfbench
