#include "focq/structure/io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "focq/graph/graph.h"
#include "focq/structure/encode.h"
#include "focq/util/parse_number.h"

namespace focq {
namespace {

// Universe sizes and element ids must fit ElemId: ids 0 .. 2^32 - 2.
constexpr std::uint64_t kMaxUniverse = std::numeric_limits<ElemId>::max();

// The whitespace-separated words of one line.
using Fields = std::vector<std::string_view>;

// Calls `fn(line_number, fields)` for every line of `text` that has fields
// once its '#' comment is cut off. Stops at, and returns, the first error
// `fn` reports.
template <typename Fn>
Status ForEachFieldLine(std::string_view text, Fn fn) {
  constexpr const char* kSpace = " \t\r\v\f";
  Fields fields;
  int line_number = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_number;
    line = line.substr(0, line.find('#'));
    fields.clear();
    for (std::size_t i = line.find_first_not_of(kSpace);
         i != std::string_view::npos; i = line.find_first_not_of(kSpace, i)) {
      std::size_t j = std::min(line.find_first_of(kSpace, i), line.size());
      fields.push_back(line.substr(i, j - i));
      i = j;
    }
    if (!fields.empty()) FOCQ_RETURN_IF_ERROR(fn(line_number, fields));
  }
  return Status::Ok();
}

Status LineError(int line_number, const std::string& msg) {
  return Status::InvalidArgument("line " + std::to_string(line_number) +
                                 ": " + msg);
}

}  // namespace

Result<Structure> ReadStructure(const std::string& text) {
  // Phase 1: find the universe line and collect the full signature, so the
  // Structure can be created before tuples are inserted.
  std::optional<std::size_t> universe;
  Signature sig;
  FOCQ_RETURN_IF_ERROR(ForEachFieldLine(
      text, [&](int line_number, const Fields& fields) -> Status {
        if (fields[0] == "universe") {
          std::uint64_t n = 0;
          if (fields.size() != 2 || !ParseNumber(fields[1], &n) || n == 0 ||
              n > kMaxUniverse) {
            return LineError(line_number,
                             "expected 'universe <count>' with a count in "
                             "[1, " + std::to_string(kMaxUniverse) + "]");
          }
          if (universe.has_value()) {
            return LineError(line_number, "duplicate universe declaration");
          }
          universe = static_cast<std::size_t>(n);
        } else if (fields[0] == "relation") {
          int arity = 0;
          if (fields.size() != 3 || !ParseNumber(fields[2], &arity)) {
            return LineError(line_number, "expected 'relation <name> <arity>'");
          }
          std::string name(fields[1]);
          if (sig.Contains(name)) {
            return LineError(line_number, "duplicate relation '" + name + "'");
          }
          sig.AddSymbol(name, arity);
        }
        return Status::Ok();
      }));
  if (!universe.has_value()) {
    return Status::InvalidArgument("missing 'universe <count>' declaration");
  }

  // Phase 2: tuples.
  Structure a(std::move(sig), *universe);
  std::optional<SymbolId> current;
  Tuple tuple;
  FOCQ_RETURN_IF_ERROR(ForEachFieldLine(
      text, [&](int line_number, const Fields& fields) -> Status {
        if (fields[0] == "universe") return Status::Ok();
        if (fields[0] == "relation") {
          current = a.signature().Find(std::string(fields[1]));
          return Status::Ok();
        }
        if (!current.has_value()) {
          return LineError(line_number,
                           "tuple before any 'relation' declaration");
        }
        const std::size_t arity = a.signature().Arity(*current);
        if (fields[0] == "()") {
          if (arity != 0 || fields.size() != 1) {
            return LineError(line_number,
                             "'()' is only valid alone, for arity-0 relations");
          }
          a.AddTuple(*current, {});
          return Status::Ok();
        }
        tuple.clear();
        for (std::string_view field : fields) {
          std::uint64_t id = 0;
          if (!ParseNumber(field, &id)) {
            return LineError(line_number,
                             "bad element id '" + std::string(field) + "'");
          }
          if (id >= *universe) {
            return LineError(line_number, "element id " + std::to_string(id) +
                                              " outside the universe");
          }
          tuple.push_back(static_cast<ElemId>(id));
        }
        if (tuple.size() != arity) {
          return LineError(line_number, "expected " + std::to_string(arity) +
                                            " ids, got " +
                                            std::to_string(tuple.size()));
        }
        a.AddTuple(*current, tuple);
        return Status::Ok();
      }));
  return a;
}

Result<Structure> ReadStructureFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadStructure(buffer.str());
}

std::string WriteStructure(const Structure& a) {
  std::ostringstream out;
  out << "universe " << a.universe_size() << "\n";
  for (SymbolId id = 0; id < a.signature().NumSymbols(); ++id) {
    out << "relation " << a.signature().Name(id) << " "
        << a.signature().Arity(id) << "\n";
    for (TupleRef t : a.relation(id).tuples()) {
      if (t.empty()) {
        out << "()\n";
        continue;
      }
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out << ' ';
        out << t[i];
      }
      out << "\n";
    }
  }
  return out.str();
}

Result<Structure> ReadEdgeList(const std::string& text,
                               std::size_t min_vertices) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::uint64_t num_vertices = 0;
  FOCQ_RETURN_IF_ERROR(ForEachFieldLine(
      text,
      [&](int line_number, const Fields& fields) {
        auto fail = [&](const std::string& msg) {
          return Status::InvalidArgument(
              "edge list line " + std::to_string(line_number) + ": " + msg);
        };
        if (fields.size() != 2) {
          return fail("expected two ids, got " + std::to_string(fields.size()));
        }
        std::uint64_t ids[2] = {0, 0};
        for (int i = 0; i < 2; ++i) {
          if (!ParseNumber(fields[i], &ids[i]) || ids[i] >= kMaxUniverse) {
            return fail("bad id '" + std::string(fields[i]) +
                        "' (expected 0 .. " +
                        std::to_string(kMaxUniverse - 1) + ")");
          }
        }
        edges.emplace_back(static_cast<VertexId>(ids[0]),
                           static_cast<VertexId>(ids[1]));
        num_vertices = std::max({num_vertices, ids[0] + 1, ids[1] + 1});
        return Status::Ok();
      }));
  std::size_t n =
      std::max(static_cast<std::size_t>(num_vertices), min_vertices);
  if (n == 0) {
    return Status::InvalidArgument("edge list describes an empty structure");
  }
  Graph g(n);
  for (auto [u, v] : edges) g.AddEdge(u, v);
  g.Finalize();
  return EncodeGraph(g);
}

}  // namespace focq
