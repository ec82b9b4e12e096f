// Command-line plumbing shared by the focq tools: an argv reader that takes
// every valued flag in both `--flag V` and `--flag=V` form, the evaluation
// flags focq_cli, focq_serve and focq_logreplay all accept, and the one
// structure loader behind them. Numbers go through the strict parser of
// focq/util/parse_number.h.
#ifndef FOCQ_TOOLS_FLAGS_H_
#define FOCQ_TOOLS_FLAGS_H_

#include <string>
#include <string_view>

#include "focq/core/api.h"
#include "focq/structure/structure.h"
#include "focq/util/status.h"

namespace focq {

/// Walks argv one argument at a time:
///
///   ArgReader args(argc, argv, 2);
///   while (args.Next()) {
///     if (args.Flag("--verbose")) verbose = true;
///     else if (args.Value("--out", &out)) {}
///     else return Usage();
///   }
///   if (!args.ok()) return Usage();  // a valued flag ended argv
class ArgReader {
 public:
  ArgReader(int argc, char** argv, int first)
      : argc_(argc), argv_(argv), next_(first) {}

  /// Advances to the next argument; false at the end of argv or once a
  /// valued flag came without its value.
  bool Next();
  bool ok() const { return ok_; }

  /// Whether the current argument is the boolean flag `name`.
  bool Flag(std::string_view name) const { return arg_ == name; }

  /// Whether the current argument is `name V` or `name=V`; stores V.
  bool Value(std::string_view name, std::string* value);

 private:
  int argc_;
  char** argv_;
  int next_;
  std::string arg_;
  bool ok_ = true;
};

/// The evaluation flags of focq_cli, focq_serve and focq_logreplay, kept as
/// text until Apply() validates them:
///   --edges  --engine naive|local|cover|approx  --threads N
///   --eps E  --delta D  --approx-seed S  --approx-stratify
struct EvalFlags {
  bool edges = false;
  std::string engine = "local";
  std::string threads = "1";
  std::string eps = "0.1";
  std::string delta = "0.01";
  std::string approx_seed = "1";
  bool approx_stratify = false;

  /// Takes the reader's current argument if it is one of the flags above.
  bool Consume(ArgReader* args);

  /// Validates every value and sets engine, term engine, threads and the
  /// approx contract on `options`. The Status message is the diagnostic.
  Status Apply(EvalOptions* options) const;

  /// Reads `path` as a focq structure file, or as a "u v" edge list under
  /// --edges.
  Result<Structure> LoadStructure(const std::string& path) const;
};

}  // namespace focq

#endif  // FOCQ_TOOLS_FLAGS_H_
