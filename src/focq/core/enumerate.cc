#include "focq/core/enumerate.h"

#include "focq/eval/naive_eval.h"

namespace focq {

SolutionStream::SolutionStream(EvalPlan plan, const Structure& a,
                               const ExecOptions& exec)
    : plan_(std::move(plan)) {
  executor_ = std::make_unique<PlanExecutor>(plan_, a, exec);
}

Result<std::unique_ptr<SolutionStream>> SolutionStream::Open(
    const Formula& condition, const Structure& a, const EvalOptions& options) {
  std::vector<Var> free = FreeVars(condition);
  if (free.size() > 1) {
    return Status::InvalidArgument(
        "SolutionStream enumerates conditions with at most one free "
        "variable");
  }
  // The naive engine has no plan form; wrap it as a trivial plan by
  // compiling anyway (compilation is total -- unsupported pieces become
  // fallback layers, which the executor evaluates with reference-equivalent
  // semantics).
  Result<EvalPlan> plan = CompileFormula(condition, a.signature());
  if (!plan.ok()) return plan.status();
  std::unique_ptr<SolutionStream> stream(
      new SolutionStream(std::move(*plan), a, options));
  stream->is_sentence_ = free.empty();
  FOCQ_RETURN_IF_ERROR(stream->executor_->MaterializeLayers());
  return stream;
}

std::optional<ElemId> SolutionStream::Next() {
  const std::size_t n = executor_->expanded().universe_size();
  if (is_sentence_) {
    if (next_candidate_ > 0) return std::nullopt;
    next_candidate_ = static_cast<ElemId>(n);
    Result<bool> holds = executor_->CheckSentence();
    if (holds.ok() && *holds) return 0;
    return std::nullopt;
  }
  while (next_candidate_ < n) {
    ElemId candidate = next_candidate_++;
    Result<bool> sat = executor_->CheckAt(candidate);
    if (sat.ok() && *sat) return candidate;
  }
  return std::nullopt;
}

std::size_t SolutionStream::CandidatesLeft() const {
  std::size_t n = executor_->expanded().universe_size();
  return next_candidate_ >= n ? 0 : n - next_candidate_;
}

}  // namespace focq
