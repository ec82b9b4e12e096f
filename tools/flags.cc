#include "flags.h"

#include <fstream>
#include <sstream>

#include "focq/structure/io.h"
#include "focq/util/parse_number.h"

namespace focq {

bool ArgReader::Next() {
  if (!ok_ || next_ >= argc_) return false;
  arg_ = argv_[next_++];
  return true;
}

bool ArgReader::Value(std::string_view name, std::string* value) {
  if (arg_ == name) {
    if (next_ < argc_) {
      *value = argv_[next_++];
    } else {
      ok_ = false;
    }
    return true;
  }
  if (arg_.size() > name.size() && arg_[name.size()] == '=' &&
      arg_.compare(0, name.size(), name) == 0) {
    *value = arg_.substr(name.size() + 1);
    return true;
  }
  return false;
}

bool EvalFlags::Consume(ArgReader* args) {
  if (args->Flag("--edges")) {
    edges = true;
  } else if (args->Flag("--approx-stratify")) {
    approx_stratify = true;
  } else {
    return args->Value("--engine", &engine) ||
           args->Value("--threads", &threads) || args->Value("--eps", &eps) ||
           args->Value("--delta", &delta) ||
           args->Value("--approx-seed", &approx_seed);
  }
  return true;
}

Status EvalFlags::Apply(EvalOptions* options) const {
  if (!ParseNumber(threads, &options->num_threads)) {
    return Status::InvalidArgument("--threads expects a non-negative integer");
  }
  if (engine == "naive") {
    options->engine = Engine::kNaive;
  } else if (engine == "local") {
    options->engine = Engine::kLocal;
  } else if (engine == "cover") {
    options->engine = Engine::kLocal;
    options->term_engine = TermEngine::kSparseCover;
  } else if (engine == "approx") {
    options->engine = Engine::kApprox;
  } else {
    return Status::InvalidArgument("unknown engine '" + engine + "'");
  }
  if (!ParseNumber(eps, &options->approx.eps)) {
    return Status::InvalidArgument("--eps expects a number in (0, 1)");
  }
  if (!ParseNumber(delta, &options->approx.delta)) {
    return Status::InvalidArgument("--delta expects a number in (0, 1)");
  }
  if (!ParseNumber(approx_seed, &options->approx.seed)) {
    return Status::InvalidArgument(
        "--approx-seed expects a non-negative integer");
  }
  options->approx.stratify = approx_stratify;
  // Bad accuracy parameters are rejected up front — even for exact engines,
  // where they would be silently ignored — so a typo never yields an
  // unwitting (eps, delta) contract change on a later --engine approx run.
  return ValidateApproxParams(options->approx);
}

Result<Structure> EvalFlags::LoadStructure(const std::string& path) const {
  if (!edges) return ReadStructureFile(path);
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadEdgeList(buffer.str());
}

}  // namespace focq
