#include <gtest/gtest.h>

#include "nn/model.h"
#include "nn/model_meta.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

using sql::ParseSelect;
using sql::Tokenize;
using testutil::F;
using testutil::I;
using testutil::MakeTable;

// ---------- lexer ----------

TEST(LexerTest, TokenKinds) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("SELECT a1, 3.5e2 FROM t WHERE x <> 'abc' -- c\n;"));
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].type, sql::TokenType::kKeyword);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].type, sql::TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].text, "a1");
  EXPECT_EQ(tokens[3].type, sql::TokenType::kFloatLiteral);
  EXPECT_DOUBLE_EQ(tokens[3].float_value, 350.0);
  bool found_string = false;
  for (const auto& t : tokens) {
    if (t.type == sql::TokenType::kStringLiteral) {
      EXPECT_EQ(t.text, "abc");
      found_string = true;
    }
  }
  EXPECT_TRUE(found_string);
  EXPECT_EQ(tokens.back().type, sql::TokenType::kEnd);
}

TEST(LexerTest, Operators) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("<= >= <> < > = + - * / %"));
  std::vector<std::string> expected = {"<=", ">=", "<>", "<", ">", "=",
                                       "+",  "-",  "*",  "/", "%"};
  ASSERT_EQ(tokens.size(), expected.size() + 1);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(tokens[i].text, expected[i]);
  }
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT #").ok());
}

// ---------- parser ----------

TEST(ParserTest, PrecedenceAndAssociativity) {
  ASSERT_OK_AND_ASSIGN(auto stmt, ParseSelect("SELECT 1 + 2 * 3 - 4 FROM t"));
  // ((1 + (2*3)) - 4)
  EXPECT_EQ(stmt->select_list[0].expr->ToString(), "((1 + (2 * 3)) - 4)");
}

TEST(ParserTest, LogicalPrecedence) {
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       ParseSelect("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3"));
  EXPECT_EQ(stmt->where->ToString(), "((a = 1) OR ((b = 2) AND (c = 3)))");
}

TEST(ParserTest, CaseExpression) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      ParseSelect("SELECT CASE WHEN a = 1 THEN 10 ELSE 20 END AS x FROM t"));
  EXPECT_EQ(stmt->select_list[0].alias, "x");
  EXPECT_TRUE(stmt->select_list[0].expr->has_else);
}

TEST(ParserTest, ModelJoinClause) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      ParseSelect("SELECT * FROM fact MODEL JOIN mt USING MODEL 'm' "
                  "DEVICE 'gpu' PREDICT (a, b)"));
  ASSERT_NE(stmt->from, nullptr);
  EXPECT_EQ(stmt->from->kind, sql::TableRef::Kind::kModelJoin);
  EXPECT_EQ(stmt->from->model_table, "mt");
  EXPECT_EQ(stmt->from->model_name, "m");
  EXPECT_EQ(stmt->from->device, "gpu");
  ASSERT_EQ(stmt->from->predict_columns.size(), 2u);
}

TEST(ParserTest, NestedSubqueries) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      ParseSelect("SELECT x FROM (SELECT y AS x FROM (SELECT 1 AS y FROM t) AS a) AS b"));
  EXPECT_EQ(stmt->from->kind, sql::TableRef::Kind::kSubquery);
  EXPECT_EQ(stmt->from->subquery->from->kind, sql::TableRef::Kind::kSubquery);
}

TEST(ParserTest, OrderLimitGroup) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt, ParseSelect("SELECT a, SUM(b) s FROM t GROUP BY a "
                             "ORDER BY a DESC, s ASC LIMIT 7"));
  EXPECT_EQ(stmt->group_by.size(), 1u);
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_TRUE(stmt->order_by[1].ascending);
  EXPECT_EQ(stmt->limit, 7);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM (SELECT b FROM t)").ok());  // no alias
  EXPECT_FALSE(ParseSelect("SELECT CASE END FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra garbage ; nonsense").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t MODEL JOIN m USING MODEL").ok());
}

// ---------- optimizer plan shapes ----------

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<sql::QueryEngine>();
    auto fact = MakeTable("fact",
                          {{"id", exec::DataType::kInt64},
                           {"x", exec::DataType::kFloat},
                           {"payload", exec::DataType::kFloat}},
                          {{I(0), F(1), F(9)}, {I(1), F(2), F(8)}});
    fact->SetUniqueIdColumn("id");
    fact->SetSortedBy({"id"});
    ASSERT_OK(engine_->catalog()->CreateTable(fact));
    auto dim = MakeTable("dim",
                         {{"k", exec::DataType::kInt64},
                          {"w", exec::DataType::kFloat},
                          {"unused", exec::DataType::kFloat}},
                         {{I(0), F(0.5f), F(0)}, {I(1), F(2.5f), F(0)}});
    ASSERT_OK(engine_->catalog()->CreateTable(dim));
  }

  std::string Plan(const std::string& sql) {
    auto plan = engine_->PlanQuery(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? (*plan)->ToString() : "";
  }

  std::unique_ptr<sql::QueryEngine> engine_;
};

TEST_F(OptimizerTest, PredicatePushedIntoScan) {
  std::string plan = Plan("SELECT id FROM fact WHERE x > 1.5");
  // The comparison becomes a scan predicate, not a Filter node.
  EXPECT_EQ(plan.find("Filter"), std::string::npos) << plan;
  EXPECT_NE(plan.find("{col1 >"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, EqualityBecomesHashJoin) {
  std::string plan =
      Plan("SELECT f.id FROM fact f, dim d WHERE f.id = d.k AND f.x > 0.0");
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("CrossJoin"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, NonEquiJoinStaysCrossJoinWithFilter) {
  std::string plan = Plan("SELECT f.id FROM fact f, dim d WHERE f.x < d.w");
  EXPECT_NE(plan.find("CrossJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, ProjectionPruningTrimsScan) {
  std::string plan = Plan("SELECT id FROM fact");
  // The payload and x columns must not be scanned.
  EXPECT_EQ(plan.find("payload"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Scan fact [id]"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, PruningKeepsJoinKeys) {
  std::string plan = Plan("SELECT d.w FROM fact f, dim d WHERE f.id = d.k");
  // id is needed as a join key even though not selected; 'unused' is not.
  EXPECT_NE(plan.find("Scan fact [id]"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("unused"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, OrderedAggregationChosenOnSortedPrefix) {
  std::string plan = Plan("SELECT id, SUM(x) s FROM fact GROUP BY id");
  EXPECT_NE(plan.find("streaming, prefix=1"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, HashAggregationWhenNoOrder) {
  // Grouping by a non-prefix column cannot stream.
  std::string plan = Plan("SELECT payload, SUM(x) s FROM fact GROUP BY payload");
  EXPECT_NE(plan.find("(hash)"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, OrderedAggregationDisabledByOption) {
  sql::QueryEngine::Options options;
  options.optimizer.ordered_aggregation = false;
  engine_->set_options(options);
  std::string plan = Plan("SELECT id, SUM(x) s FROM fact GROUP BY id");
  EXPECT_NE(plan.find("(hash)"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, ParallelSafetyAnalysis) {
  auto check = [&](const std::string& sql, bool expect_safe) {
    auto plan = engine_->PlanQuery(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    sql::Optimizer optimizer(engine_->options().optimizer);
    sql::PlanAnalysis analysis = optimizer.Analyze(**plan);
    EXPECT_EQ(analysis.parallel_safe, expect_safe) << sql;
  };
  check("SELECT id, SUM(x) s FROM fact GROUP BY id", true);
  check("SELECT payload, SUM(x) s FROM fact GROUP BY payload", false);
  check("SELECT id FROM fact ORDER BY id", true);
  check("SELECT id FROM fact ORDER BY id DESC", false);
  check("SELECT id, payload FROM fact ORDER BY payload", false);
  check("SELECT id FROM fact LIMIT 1", false);
  check("SELECT f.id FROM fact f, dim d WHERE f.id = d.k", true);
  // Fact joined with itself: aligned on id -> safe.
  check("SELECT a.id FROM fact a, fact b WHERE a.id = b.id", true);
  // Fact joined with itself on a non-partition key -> unsafe.
  check("SELECT a.id FROM fact a, fact b WHERE a.x = b.x", false);
}

TEST_F(OptimizerTest, DisabledPushdownKeepsFilter) {
  sql::QueryEngine::Options options;
  options.optimizer.predicate_pushdown = false;
  options.optimizer.join_conversion = false;
  engine_->set_options(options);
  std::string plan = Plan("SELECT id FROM fact WHERE x > 1.5");
  EXPECT_NE(plan.find("Filter"), std::string::npos) << plan;
}

// ---------- predicate pushdown through MODEL JOIN ----------

/// Plans over `feat(id, a, b, c, d) MODEL JOIN m USING MODEL 'dense'`. The
/// binder needs only the model metadata and a table named like the model
/// table, so no relational model representation is deployed.
class ModelJoinPushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<sql::QueryEngine>();
    auto feat = MakeTable("feat",
                          {{"id", exec::DataType::kInt64},
                           {"a", exec::DataType::kFloat},
                           {"b", exec::DataType::kFloat},
                           {"c", exec::DataType::kFloat},
                           {"d", exec::DataType::kFloat}},
                          {{I(0), F(1), F(2), F(3), F(4)},
                           {I(1), F(5), F(6), F(7), F(8)}});
    feat->SetUniqueIdColumn("id");
    feat->SetSortedBy({"id"});
    ASSERT_OK(engine_->catalog()->CreateTable(feat));
    ASSERT_OK(engine_->catalog()->CreateTable(
        MakeTable("m", {{"w", exec::DataType::kFloat}}, {{F(0)}})));
    ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(4, 1, 3));
    engine_->models()->Register(nn::MetaOf(model, "dense"));
  }

  static std::string Query(const std::string& where) {
    return "SELECT id, prediction FROM feat MODEL JOIN m USING MODEL 'dense' "
           "DEVICE 'cpu' PREDICT (a, b, c, d) WHERE " +
           where;
  }

  sql::LogicalOpPtr Plan(const std::string& where) {
    auto plan = engine_->PlanQuery(Query(where));
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? std::move(plan).ValueOrDie() : nullptr;
  }

  static const sql::LogicalOp* Find(const sql::LogicalOp& node,
                                    sql::LogicalKind kind) {
    if (node.kind == kind) return &node;
    for (const auto& child : node.children) {
      if (const sql::LogicalOp* found = Find(*child, kind)) return found;
    }
    return nullptr;
  }

  /// The Filter directly above the ModelJoin, or null.
  static const sql::LogicalOp* FilterAbove(const sql::LogicalOp& node) {
    if (node.kind == sql::LogicalKind::kFilter &&
        node.children[0]->kind == sql::LogicalKind::kModelJoin) {
      return &node;
    }
    for (const auto& child : node.children) {
      if (const sql::LogicalOp* found = FilterAbove(*child)) return found;
    }
    return nullptr;
  }

  std::unique_ptr<sql::QueryEngine> engine_;
};

TEST_F(ModelJoinPushdownTest, FactColumnFilterBecomesScanPredicate) {
  auto plan = Plan("id >= 4096 AND id <= 4195");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(Find(*plan, sql::LogicalKind::kFilter), nullptr) << plan->ToString();
  const sql::LogicalOp* mj = Find(*plan, sql::LogicalKind::kModelJoin);
  ASSERT_NE(mj, nullptr);
  const sql::LogicalOp& scan = *mj->children[0];
  ASSERT_EQ(scan.kind, sql::LogicalKind::kScan) << plan->ToString();
  ASSERT_EQ(scan.pushed.size(), 2u);
  EXPECT_EQ(scan.pushed[0].op, exec::BinaryOp::kGe);
  EXPECT_EQ(scan.pushed[0].value.i, 4096);
  EXPECT_EQ(scan.pushed[1].op, exec::BinaryOp::kLe);
  EXPECT_EQ(scan.pushed[1].value.i, 4195);

  // The analysis hands the same predicates to morsel generation.
  sql::Optimizer optimizer(engine_->options().optimizer);
  sql::PlanAnalysis analysis = optimizer.Analyze(*plan);
  EXPECT_TRUE(analysis.parallel_safe);
  EXPECT_EQ(analysis.partition_predicates.size(), 2u);
}

TEST_F(ModelJoinPushdownTest, PredictionFilterStaysAboveModelJoin) {
  auto plan = Plan("prediction > 0.5");
  ASSERT_NE(plan, nullptr);
  const sql::LogicalOp* filter = FilterAbove(*plan);
  ASSERT_NE(filter, nullptr) << plan->ToString();
  EXPECT_NE(filter->condition->ToString().find("prediction"), std::string::npos);
  const sql::LogicalOp* scan = Find(*plan, sql::LogicalKind::kScan);
  EXPECT_TRUE(scan->pushed.empty()) << plan->ToString();
}

TEST_F(ModelJoinPushdownTest, MixedConjunctionSplits) {
  // One conjunct per destination: a scan predicate, a residual filter over
  // the child's columns under the ModelJoin, and a prediction filter above.
  auto plan = Plan("id >= 1 AND prediction > 0.5 AND a + b > 3.0");
  ASSERT_NE(plan, nullptr);
  const sql::LogicalOp* above = FilterAbove(*plan);
  ASSERT_NE(above, nullptr) << plan->ToString();
  const std::string above_cond = above->condition->ToString();
  EXPECT_NE(above_cond.find("prediction"), std::string::npos) << plan->ToString();
  EXPECT_EQ(above_cond.find("id"), std::string::npos) << plan->ToString();

  const sql::LogicalOp* mj = Find(*plan, sql::LogicalKind::kModelJoin);
  const sql::LogicalOp& below = *mj->children[0];
  ASSERT_EQ(below.kind, sql::LogicalKind::kFilter) << plan->ToString();
  EXPECT_EQ(below.condition->ToString().find("prediction"), std::string::npos);
  const sql::LogicalOp& scan = *below.children[0];
  ASSERT_EQ(scan.kind, sql::LogicalKind::kScan) << plan->ToString();
  ASSERT_EQ(scan.pushed.size(), 1u);
  EXPECT_EQ(scan.pushed[0].op, exec::BinaryOp::kGe);
}

TEST_F(ModelJoinPushdownTest, DisabledPushdownKeepsFilterAboveModelJoin) {
  sql::QueryEngine::Options options;
  options.optimizer.predicate_pushdown = false;
  engine_->set_options(options);
  auto plan = Plan("id >= 4096 AND id <= 4195");
  ASSERT_NE(plan, nullptr);
  EXPECT_NE(FilterAbove(*plan), nullptr) << plan->ToString();
  const sql::LogicalOp* scan = Find(*plan, sql::LogicalKind::kScan);
  EXPECT_TRUE(scan->pushed.empty()) << plan->ToString();
  sql::Optimizer optimizer(options.optimizer);
  EXPECT_TRUE(optimizer.Analyze(*plan).partition_predicates.empty());
}

}  // namespace
}  // namespace indbml
