// Workload definitions: the generated structure, the statement templates and
// the seed-determined canonical statement stream of each workload.
//
// Everything here is a pure function of (workload, seed), so two runs with
// one seed send the same statements in the same generator order; the server
// only ever sees the generated structure file and the request frames.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "focq/serve/protocol.h"

namespace perfbench {

using focq::serve::FrameKind;

/// A read statement shape. `text` may contain "{k}" placeholders that are
/// replaced by the statement's integer offset (read-small only).
struct Template {
  FrameKind kind;
  std::string text;
};

struct Workload {
  std::string name;
  std::size_t n = 0;            // universe size of the generated graph
  std::string engine;           // focq_serve --engine value
  int connections = 0;
  int outstanding = 0;          // in-flight statements per connection
  std::vector<Template> templates;
  bool offsets = false;         // every statement gets a distinct offset k
  int update_every = 0;         // statement i is an update iff
                                // update_every > 0 && i % update_every ==
                                // update_every - 1
  std::size_t replay_prefix = 0;  // statements in the traced replay
};

/// The named workload, or nullopt.
std::optional<Workload> FindWorkload(const std::string& name);

/// A bounded-degree graph over n elements with exactly 3n/2 edges (max
/// degree 4), symmetric E/2, plus a unary R on exactly 3n/10 elements, in the
/// focq structure file format.
struct GeneratedStructure {
  std::string text;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // u < v
};
GeneratedStructure GenerateStructure(std::size_t n, std::uint64_t seed);

struct Statement {
  FrameKind kind;
  std::string text;
  int template_index = -1;  // -1 for updates
  std::int64_t offset = 0;
};

/// The template instantiated at offset k.
std::string Instantiate(const Template& t, std::int64_t k);

/// The canonical statement stream of one (workload, seed). Reads cycle
/// through the templates in seed-shuffled blocks. Updates come in
/// groups of four on one random existing edge {u, v}: delete E u v, delete
/// E v u, insert E u v, insert E v u — the Gaifman edge disappears on the
/// second step (adjacency is support-counted) and reappears on the fourth,
/// so every group forces Gaifman and cover repair and ||A|| stays put.
class StatementStream {
 public:
  StatementStream(const Workload& workload, const GeneratedStructure& g,
                  std::uint64_t seed)
      : workload_(&workload), edges_(&g.edges), seed_(seed) {}

  Statement At(std::size_t i) const;

 private:
  const Workload* workload_;
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>* edges_;
  std::uint64_t seed_;
};

/// Stateless 64-bit mixer (splitmix64 finaliser) used for every random choice.
std::uint64_t Mix(std::uint64_t x);

/// 64-bit FNV-1a, the digest printed for the generated structure.
std::uint64_t Fnv1a(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
