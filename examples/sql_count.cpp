// Example 5.3 end-to-end: the paper's three SQL COUNT statements, translated
// to FOC1(P)-queries and evaluated against a synthetic Customer/Order
// database, with the direct hash-aggregation baseline for comparison.
//
// Run: ./example_sql_count
#include <cstdio>

#include "focq/logic/printer.h"
#include "focq/sql/count_query.h"
#include "focq/sql/datagen.h"

int main() {
  using namespace focq;

  CustomerOrderConfig config;
  config.num_customers = 200;
  config.num_orders = 800;
  config.seed = 2026;
  Catalog db = MakeCustomerOrderDatabase(config);
  EvalOptions options;

  // --- Query 1: SELECT Country, COUNT(Id) FROM Customer GROUP BY Country.
  GroupByCountSpec by_country{"Customer", "Country", "Id"};
  Result<Foc1Query> q1 = BuildGroupByCountQuery(db, by_country);
  std::printf("Q1 condition: %s\n", ToString(q1->condition).c_str());
  std::printf("Q1 count term: %s\n", ToString(q1->head_terms[0]).c_str());
  auto rows1 = RunGroupByCountFoc1(db, by_country, options);
  auto direct1 = RunGroupByCountDirect(db, by_country);
  std::printf("customers per country (FOC1 == direct: %s):\n",
              *rows1 == *direct1 ? "yes" : "NO");
  for (const AggRow& row : *rows1) {
    std::printf("  %-10s %lld\n", ValueToString(row.group[0]).c_str(),
                static_cast<long long>(row.count));
  }

  // --- Query 2: total number of customers and orders.
  TotalCountsSpec totals{{"Customer", "Order"}};
  auto rows2 = RunTotalCountsFoc1(db, totals, options);
  auto direct2 = RunTotalCountsDirect(db, totals);
  std::printf("totals (FOC1 == direct: %s):\n",
              *rows2 == *direct2 ? "yes" : "NO");
  for (const AggRow& row : *rows2) {
    std::printf("  %-10s %lld\n", ValueToString(row.group[0]).c_str(),
                static_cast<long long>(row.count));
  }

  // --- Query 3: orders per Berlin customer, grouped by name.
  JoinGroupCountSpec berlin;
  berlin.dim_table = "Customer";
  berlin.fact_table = "Order";
  berlin.dim_key_column = "Id";
  berlin.fact_join_column = "CustomerId";
  berlin.fact_count_column = "Id";
  berlin.filter_column = "City";
  berlin.filter_value = Value{"Berlin"};
  berlin.group_columns = {"FirstName", "LastName"};
  auto rows3 = RunJoinGroupCountFoc1(db, berlin, options);
  auto direct3 = RunJoinGroupCountDirect(db, berlin);
  std::printf("orders per Berlin customer name (FOC1 == direct: %s), "
              "%zu groups; first 5:\n",
              *rows3 == *direct3 ? "yes" : "NO", rows3->size());
  for (std::size_t i = 0; i < 5 && i < rows3->size(); ++i) {
    std::printf("  %-8s %-8s %lld\n",
                ValueToString((*rows3)[i].group[0]).c_str(),
                ValueToString((*rows3)[i].group[1]).c_str(),
                static_cast<long long>((*rows3)[i].count));
  }
  return 0;
}
