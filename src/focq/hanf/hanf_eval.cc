#include "focq/hanf/hanf_eval.h"

#include "focq/locality/local_eval.h"
#include "focq/logic/printer.h"
#include "focq/structure/gaifman.h"
#include "focq/util/thread_pool.h"

namespace focq {

HanfEvaluator::HanfEvaluator(const Structure& a, const Graph& gaifman,
                             int num_threads, MetricsSink* metrics,
                             ProgressSink* progress)
    : a_(a),
      gaifman_(gaifman),
      num_threads_(EffectiveThreads(num_threads)),
      metrics_(metrics),
      progress_(progress) {
  FOCQ_CHECK_EQ(gaifman.num_vertices(), a.universe_size());
}

void HanfEvaluator::RecordTyping(const SphereTypeAssignment& types) {
  if (metrics_ == nullptr) return;
  const std::size_t num_types = types.registry.NumTypes();
  metrics_->AddCounter("hanf.typings", 1);
  metrics_->AddCounter("hanf.sphere_types",
                       static_cast<std::int64_t>(num_types));
  metrics_->AddCounter("hanf.typed_elements",
                       static_cast<std::int64_t>(a_.universe_size()));
  // One representative evaluation per type is the whole point of
  // type-sharing; elements_per_type records how much each one is shared.
  metrics_->AddCounter("hanf.type_evals",
                       static_cast<std::int64_t>(num_types));
  // Aggregate the per-type population distribution locally and fold it into
  // the sink in one MergeValue — same stats as a RecordValue per type, at
  // O(1) sink operations per typing.
  ValueStats populations;
  for (std::size_t id = 0; id < num_types; ++id) {
    populations.Record(
        static_cast<std::int64_t>(types.elements_of_type[id].size()));
  }
  metrics_->MergeValue("hanf.elements_per_type", populations);
}

const SphereTypeAssignment& HanfEvaluator::TypesFor(
    std::uint32_t r, std::optional<SphereTypeAssignment>* local) {
  if (provider_) return provider_(r);
  return local->emplace(
      ComputeSphereTypes(a_, gaifman_, r, num_threads_, progress_));
}

Result<CountInt> HanfEvaluator::CountSatisfying(const Formula& phi, Var x,
                                                std::uint32_t r) {
  std::vector<Var> free = FreeVars(phi);
  if (free.size() > 1 || (free.size() == 1 && free[0] != x)) {
    return Status::InvalidArgument(
        "CountSatisfying expects a formula with the single free variable " +
        VarName(x));
  }
  std::optional<std::uint32_t> radius = SyntacticLocalityRadius(phi);
  if (!radius || *radius > r) {
    return Status::Unsupported(
        "formula is not certifiably " + std::to_string(r) +
        "-local: " + ToString(phi));
  }
  std::optional<SphereTypeAssignment> local;
  const SphereTypeAssignment& types = TypesFor(r, &local);
  // A hard deadline during a local typing leaves `types` partial: bail out
  // before reading it (provider-backed typings are always complete).
  if (progress_ != nullptr && progress_->cancelled()) {
    return progress_->DeadlineStatus();
  }
  last_num_types_ = types.registry.NumTypes();
  RecordTyping(types);
  const std::size_t num_types = types.registry.NumTypes();
  // Types are mutually independent; evaluate each representative once, then
  // reduce the per-chunk partial counts in chunk order so overflow behaviour
  // and the total match the serial loop exactly.
  const std::size_t num_chunks =
      MakeChunkGrid(num_types, num_threads_).num_chunks;
  std::vector<CountInt> partial(num_chunks, 0);
  std::vector<std::uint8_t> overflow(num_chunks, 0);
  if (progress_ != nullptr) {
    progress_->AddTotal(ProgressPhase::kHanf,
                        static_cast<std::int64_t>(num_types));
  }
  ParallelFor(num_threads_, num_types,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                for (std::size_t id = begin; id < end; ++id) {
                  if (progress_ != nullptr && progress_->ShouldStop()) return;
                  const Structure& rep = types.registry.Representative(
                      static_cast<SphereTypeId>(id));
                  Graph rep_gaifman = BuildGaifmanGraph(rep);
                  LocalEvaluator eval(rep, rep_gaifman);
                  bool sat = eval.Satisfies(
                      phi, {{x, types.registry.RepresentativeCenter(
                                    static_cast<SphereTypeId>(id))}});
                  if (progress_ != nullptr) {
                    progress_->Advance(ProgressPhase::kHanf, 1);
                  }
                  if (!sat) continue;
                  auto sum = CheckedAdd(
                      partial[chunk],
                      static_cast<CountInt>(types.elements_of_type[id].size()));
                  if (!sum) {
                    overflow[chunk] = 1;
                    return;
                  }
                  partial[chunk] = *sum;
                }
              });
  if (progress_ != nullptr && progress_->cancelled()) {
    return progress_->DeadlineStatus();
  }
  CountInt total = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    if (overflow[c]) return Status::OutOfRange("type count overflows int64");
    auto sum = CheckedAdd(total, partial[c]);
    if (!sum) return Status::OutOfRange("type count overflows int64");
    total = *sum;
  }
  return total;
}

Result<std::vector<CountInt>> HanfEvaluator::EvaluateBasicAll(
    const BasicClTerm& basic) {
  // The anchored count is determined by the sphere of radius k*(2r+1)
  // around the anchor (tuples stay within (k-1)(2r+1), the kernel needs r
  // more, and pattern-distance witnesses another separation).
  std::uint32_t sphere_radius = RequiredCoverRadius(basic);
  std::optional<SphereTypeAssignment> local;
  const SphereTypeAssignment& types = TypesFor(sphere_radius, &local);
  if (progress_ != nullptr && progress_->cancelled()) {
    return progress_->DeadlineStatus();  // partial local typing
  }
  last_num_types_ = types.registry.NumTypes();
  RecordTyping(types);

  std::vector<CountInt> out(a_.universe_size(), 0);
  const std::size_t num_types = types.registry.NumTypes();
  // elements_of_type partitions the universe, so type chunks broadcast into
  // disjoint slots of `out`; errors surface in type-chunk order.
  const std::size_t num_chunks =
      MakeChunkGrid(num_types, num_threads_).num_chunks;
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  if (progress_ != nullptr) {
    progress_->AddTotal(ProgressPhase::kHanf,
                        static_cast<std::int64_t>(num_types));
  }
  ParallelFor(num_threads_, num_types,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                for (std::size_t id = begin; id < end; ++id) {
                  if (progress_ != nullptr && progress_->ShouldStop()) return;
                  const Structure& rep = types.registry.Representative(
                      static_cast<SphereTypeId>(id));
                  Graph rep_gaifman = BuildGaifmanGraph(rep);
                  ClTermBallEvaluator eval(rep, rep_gaifman);
                  const ElemId center = types.registry.RepresentativeCenter(
                      static_cast<SphereTypeId>(id));
                  Result<std::vector<CountInt>> value =
                      eval.EvaluateBasicAt(basic, {&center, 1});
                  if (!value.ok()) {
                    chunk_status[chunk] = value.status();
                    return;
                  }
                  for (ElemId e : types.elements_of_type[id]) {
                    out[e] = (*value)[0];
                  }
                  if (progress_ != nullptr) {
                    progress_->Advance(ProgressPhase::kHanf, 1);
                  }
                }
              });
  if (progress_ != nullptr && progress_->cancelled()) {
    return progress_->DeadlineStatus();
  }
  for (const Status& s : chunk_status) {
    if (!s.ok()) return s;
  }
  return out;
}

}  // namespace focq
