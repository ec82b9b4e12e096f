#include <gtest/gtest.h>

#include "focq/logic/fragment.h"
#include "focq/sql/count_query.h"
#include "focq/sql/datagen.h"

namespace focq {
namespace {

Catalog SmallDatabase() {
  Catalog catalog;
  SqlTable customer("Customer", {"Id", "FirstName", "LastName", "City",
                                 "Country", "Phone"});
  customer.AddRow({Value{std::int64_t{1}}, Value{"Ada"}, Value{"Lovelace"},
                   Value{"Berlin"}, Value{"DE"}, Value{"111"}});
  customer.AddRow({Value{std::int64_t{2}}, Value{"Alan"}, Value{"Turing"},
                   Value{"London"}, Value{"UK"}, Value{"222"}});
  customer.AddRow({Value{std::int64_t{3}}, Value{"Kurt"}, Value{"Goedel"},
                   Value{"Berlin"}, Value{"AT"}, Value{"333"}});
  customer.AddRow({Value{std::int64_t{4}}, Value{"Emmy"}, Value{"Noether"},
                   Value{"Erlangen"}, Value{"DE"}, Value{"444"}});
  catalog.AddTable(std::move(customer));

  SqlTable orders("Order", {"Id", "OrderDate", "OrderNumber", "CustomerId",
                            "TotalAmount"});
  orders.AddRow({Value{std::int64_t{100}}, Value{"2026-01"}, Value{"A"},
                 Value{std::int64_t{1}}, Value{std::int64_t{10}}});
  orders.AddRow({Value{std::int64_t{101}}, Value{"2026-01"}, Value{"B"},
                 Value{std::int64_t{1}}, Value{std::int64_t{20}}});
  orders.AddRow({Value{std::int64_t{102}}, Value{"2026-02"}, Value{"C"},
                 Value{std::int64_t{3}}, Value{std::int64_t{30}}});
  orders.AddRow({Value{std::int64_t{103}}, Value{"2026-02"}, Value{"D"},
                 Value{std::int64_t{2}}, Value{std::int64_t{40}}});
  catalog.AddTable(std::move(orders));
  return catalog;
}

TEST(Catalog, EncodingShape) {
  Catalog db = SmallDatabase();
  Catalog::Encoded enc = db.Encode({Value{"Berlin"}});
  // Relations: Customer/6, Order/5, C_Berlin/1.
  EXPECT_EQ(enc.structure.signature().NumSymbols(), 3u);
  EXPECT_EQ(enc.structure.relation(0).NumTuples(), 4u);
  EXPECT_EQ(enc.structure.relation(1).NumTuples(), 4u);
  Result<ElemId> berlin = enc.IdOf(Value{"Berlin"});
  ASSERT_TRUE(berlin.ok());
  SymbolId c = *enc.structure.signature().Find("C_Berlin");
  EXPECT_TRUE(enc.structure.Holds(c, {*berlin}));
  // Int 1 and string "1" would be distinct domain members.
  EXPECT_TRUE(enc.IdOf(Value{std::int64_t{1}}).ok());
  EXPECT_FALSE(enc.IdOf(Value{"1"}).ok());
}

TEST(SqlCount, GroupByCountryMatchesDirect) {
  Catalog db = SmallDatabase();
  GroupByCountSpec spec{"Customer", "Country", "Id"};
  Result<Foc1Query> q = BuildGroupByCountQuery(db, spec);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->Validate().ok());
  EXPECT_TRUE(IsFOC1(q->condition));

  auto direct = RunGroupByCountDirect(db, spec);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(direct->size(), 3u);  // DE:2, UK:1, AT:1
  for (Engine engine : {Engine::kLocal}) {
    EvalOptions options;
    options.engine = engine;
    auto foc1 = RunGroupByCountFoc1(db, spec, options);
    ASSERT_TRUE(foc1.ok()) << foc1.status().ToString();
    EXPECT_EQ(*foc1, *direct);
  }
}

TEST(SqlCount, TotalsMatchDirect) {
  Catalog db = SmallDatabase();
  TotalCountsSpec spec{{"Customer", "Order"}};
  auto direct = RunTotalCountsDirect(db, spec);
  ASSERT_TRUE(direct.ok());
  for (Engine engine : {Engine::kLocal}) {
    EvalOptions options;
    options.engine = engine;
    auto foc1 = RunTotalCountsFoc1(db, spec, options);
    ASSERT_TRUE(foc1.ok()) << foc1.status().ToString();
    EXPECT_EQ(*foc1, *direct);
    ASSERT_EQ(foc1->size(), 2u);
    EXPECT_EQ((*foc1)[0].count, 4);
    EXPECT_EQ((*foc1)[1].count, 4);
  }
}

TEST(SqlCount, BerlinJoinMatchesDirect) {
  Catalog db = SmallDatabase();
  JoinGroupCountSpec spec;
  spec.dim_table = "Customer";
  spec.fact_table = "Order";
  spec.dim_key_column = "Id";
  spec.fact_join_column = "CustomerId";
  spec.fact_count_column = "Id";
  spec.filter_column = "City";
  spec.filter_value = Value{"Berlin"};
  spec.group_columns = {"FirstName", "LastName"};

  auto direct = RunJoinGroupCountDirect(db, spec);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(direct->size(), 2u);  // Ada Lovelace (2 orders), Kurt Goedel (1)
  auto foc1 = RunJoinGroupCountFoc1(db, spec, EvalOptions{});
  ASSERT_TRUE(foc1.ok()) << foc1.status().ToString();
  EXPECT_EQ(*foc1, *direct);
  // Spot check the counts.
  for (const AggRow& row : *foc1) {
    if (ValueToString(row.group[0]) == "Ada") EXPECT_EQ(row.count, 2);
    if (ValueToString(row.group[0]) == "Kurt") EXPECT_EQ(row.count, 1);
  }
}

TEST(SqlCount, GeneratedDataAgreesAcrossEngines) {
  CustomerOrderConfig config;
  config.num_customers = 40;
  config.num_orders = 120;
  config.seed = 9;
  Catalog db = MakeCustomerOrderDatabase(config);
  GroupByCountSpec spec{"Customer", "Country", "Id"};
  auto direct = RunGroupByCountDirect(db, spec);
  auto naive = RunGroupByCountFoc1(db, spec, EvalOptions{});
  auto local = RunGroupByCountFoc1(db, spec, EvalOptions{});
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(*naive, *direct);
  EXPECT_EQ(*local, *direct);

  JoinGroupCountSpec join;
  join.dim_table = "Customer";
  join.fact_table = "Order";
  join.dim_key_column = "Id";
  join.fact_join_column = "CustomerId";
  join.fact_count_column = "Id";
  join.filter_column = "City";
  join.filter_value = Value{"Berlin"};
  join.group_columns = {"FirstName", "LastName"};
  auto jdirect = RunJoinGroupCountDirect(db, join);
  auto jfoc1 = RunJoinGroupCountFoc1(db, join, EvalOptions{});
  ASSERT_TRUE(jdirect.ok());
  ASSERT_TRUE(jfoc1.ok()) << jfoc1.status().ToString();
  EXPECT_EQ(*jfoc1, *jdirect);
}

TEST(Datagen, Reproducible) {
  CustomerOrderConfig config;
  config.seed = 4;
  Catalog a = MakeCustomerOrderDatabase(config);
  Catalog b = MakeCustomerOrderDatabase(config);
  Result<const SqlTable*> ta = a.FindTable("Customer");
  Result<const SqlTable*> tb = b.FindTable("Customer");
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  ASSERT_EQ((*ta)->NumRows(), (*tb)->NumRows());
  for (std::size_t i = 0; i < (*ta)->NumRows(); ++i) {
    for (std::size_t j = 0; j < (*ta)->NumColumns(); ++j) {
      EXPECT_EQ(ValueToString((*ta)->rows()[i][j]),
                ValueToString((*tb)->rows()[i][j]));
    }
  }
}

}  // namespace
}  // namespace focq
