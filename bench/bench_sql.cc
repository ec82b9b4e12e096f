// E7 -- Example 5.3: the paper's SQL COUNT workloads expressed as FOC1(P)
// queries. The logic pipeline is not meant to beat a hash aggregator -- the
// point is expressibility at sane cost: the FOC1 path should scale linearly
// with the data (the encoded database has bounded-degree joins), with the
// direct baseline as the reference line.
#include <benchmark/benchmark.h>

#include "focq/sql/count_query.h"
#include "focq/sql/datagen.h"

namespace focq {
namespace {

Catalog MakeDb(std::size_t customers) {
  CustomerOrderConfig config;
  config.num_customers = customers;
  config.num_orders = customers * 4;
  config.num_cities = 10;
  config.num_countries = 6;
  config.seed = 2026;
  return MakeCustomerOrderDatabase(config);
}

void BM_GroupByCountFoc1(benchmark::State& state) {
  Catalog db = MakeDb(static_cast<std::size_t>(state.range(0)));
  GroupByCountSpec spec{"Customer", "Country", "Id"};
  EvalOptions options;
  std::size_t groups = 0;
  for (auto _ : state) {
    auto rows = RunGroupByCountFoc1(db, spec, options);
    groups = rows->size();
    benchmark::DoNotOptimize(groups);
  }
  state.counters["customers"] = static_cast<double>(state.range(0));
  state.counters["groups"] = static_cast<double>(groups);
}

void BM_GroupByCountDirect(benchmark::State& state) {
  Catalog db = MakeDb(static_cast<std::size_t>(state.range(0)));
  GroupByCountSpec spec{"Customer", "Country", "Id"};
  for (auto _ : state) {
    auto rows = RunGroupByCountDirect(db, spec);
    benchmark::DoNotOptimize(rows->size());
  }
  state.counters["customers"] = static_cast<double>(state.range(0));
}

void BM_TotalCountsFoc1(benchmark::State& state) {
  Catalog db = MakeDb(static_cast<std::size_t>(state.range(0)));
  TotalCountsSpec spec{{"Customer", "Order"}};
  EvalOptions options;
  for (auto _ : state) {
    auto rows = RunTotalCountsFoc1(db, spec, options);
    benchmark::DoNotOptimize(rows->size());
  }
  state.counters["customers"] = static_cast<double>(state.range(0));
}

void BM_BerlinJoinFoc1(benchmark::State& state) {
  Catalog db = MakeDb(static_cast<std::size_t>(state.range(0)));
  JoinGroupCountSpec spec;
  spec.dim_table = "Customer";
  spec.fact_table = "Order";
  spec.dim_key_column = "Id";
  spec.fact_join_column = "CustomerId";
  spec.fact_count_column = "Id";
  spec.filter_column = "City";
  spec.filter_value = Value{"Berlin"};
  spec.group_columns = {"FirstName", "LastName"};
  EvalOptions options;
  std::size_t groups = 0;
  for (auto _ : state) {
    auto rows = RunJoinGroupCountFoc1(db, spec, options);
    groups = rows->size();
    benchmark::DoNotOptimize(groups);
  }
  state.counters["customers"] = static_cast<double>(state.range(0));
  state.counters["groups"] = static_cast<double>(groups);
}

void BM_BerlinJoinDirect(benchmark::State& state) {
  Catalog db = MakeDb(static_cast<std::size_t>(state.range(0)));
  JoinGroupCountSpec spec;
  spec.dim_table = "Customer";
  spec.fact_table = "Order";
  spec.dim_key_column = "Id";
  spec.fact_join_column = "CustomerId";
  spec.fact_count_column = "Id";
  spec.filter_column = "City";
  spec.filter_value = Value{"Berlin"};
  spec.group_columns = {"FirstName", "LastName"};
  for (auto _ : state) {
    auto rows = RunJoinGroupCountDirect(db, spec);
    benchmark::DoNotOptimize(rows->size());
  }
  state.counters["customers"] = static_cast<double>(state.range(0));
}

BENCHMARK(BM_GroupByCountFoc1)->Arg(500)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupByCountDirect)->Arg(500)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TotalCountsFoc1)->Arg(500)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BerlinJoinFoc1)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BerlinJoinDirect)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace focq
