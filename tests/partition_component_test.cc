// Tests for the repair/choice partitioning helpers and the WSD component
// algebra.

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "sql/ast.h"
#include "tests/test_util.h"
#include "worlds/component.h"
#include "worlds/partition.h"

namespace maybms::worlds {
namespace {

using maybms::testing::I;
using maybms::testing::N;
using maybms::testing::Row;
using maybms::testing::T;

Table KeyedTable() {
  Schema schema({Column("K", DataType::kText),
                 Column("V", DataType::kInteger),
                 Column("W", DataType::kInteger)});
  Table t(schema);
  t.AppendUnchecked(Row({T("a"), I(1), I(2)}));
  t.AppendUnchecked(Row({T("a"), I(2), I(6)}));
  t.AppendUnchecked(Row({T("b"), I(3), I(4)}));
  t.AppendUnchecked(Row({T("b"), I(4), I(5)}));
  t.AppendUnchecked(Row({T("c"), I(5), I(6)}));
  return t;
}

TEST(RepairPartitionTest, OneBlockPerKeyGroup) {
  sql::RepairClause clause;
  clause.key_columns = {"K"};
  auto blocks = RepairPartition(KeyedTable(), clause);
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
  ASSERT_EQ(blocks->size(), 3u);
  EXPECT_EQ((*blocks)[0].choices.size(), 2u);
  EXPECT_EQ((*blocks)[1].choices.size(), 2u);
  EXPECT_EQ((*blocks)[2].choices.size(), 1u);
  // Uniform probabilities within each block.
  for (const auto& block : *blocks) {
    double total = 0;
    for (const auto& choice : block.choices) {
      EXPECT_EQ(choice.row_indices.size(), 1u);
      total += choice.probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(RepairPartitionTest, WeightedProbabilities) {
  sql::RepairClause clause;
  clause.key_columns = {"K"};
  clause.weight_column = "W";
  auto blocks = RepairPartition(KeyedTable(), clause);
  ASSERT_TRUE(blocks.ok());
  // Key 'a': weights 2 and 6 -> 0.25 / 0.75.
  EXPECT_NEAR((*blocks)[0].choices[0].probability, 0.25, 1e-12);
  EXPECT_NEAR((*blocks)[0].choices[1].probability, 0.75, 1e-12);
}

TEST(RepairPartitionTest, NonPositiveWeightIsError) {
  Schema schema({Column("K", DataType::kText),
                 Column("W", DataType::kInteger)});
  Table t(schema);
  t.AppendUnchecked(Row({T("a"), I(0)}));
  sql::RepairClause clause;
  clause.key_columns = {"K"};
  clause.weight_column = "W";
  auto blocks = RepairPartition(t, clause);
  ASSERT_FALSE(blocks.ok());
  EXPECT_EQ(blocks.status().code(), StatusCode::kInvalidArgument);
}

TEST(RepairPartitionTest, NullWeightIsError) {
  Schema schema({Column("K", DataType::kText),
                 Column("W", DataType::kInteger)});
  Table t(schema);
  t.AppendUnchecked(Row({T("a"), N()}));
  sql::RepairClause clause;
  clause.key_columns = {"K"};
  clause.weight_column = "W";
  EXPECT_FALSE(RepairPartition(t, clause).ok());
}

TEST(RepairPartitionTest, EmptyTableYieldsNoBlocks) {
  sql::RepairClause clause;
  clause.key_columns = {"K"};
  auto blocks = RepairPartition(Table(KeyedTable().schema()), clause);
  ASSERT_TRUE(blocks.ok());
  EXPECT_TRUE(blocks->empty());
}

TEST(RepairPartitionTest, UnknownKeyColumnIsError) {
  sql::RepairClause clause;
  clause.key_columns = {"Nope"};
  EXPECT_EQ(RepairPartition(KeyedTable(), clause).status().code(),
            StatusCode::kNotFound);
}

TEST(ChoicePartitionTest, SingleBlockOnePartitionPerValue) {
  sql::ChoiceClause clause;
  clause.columns = {"K"};
  auto blocks = ChoicePartition(KeyedTable(), clause);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 1u);
  const PartitionBlock& block = (*blocks)[0];
  ASSERT_EQ(block.choices.size(), 3u);
  EXPECT_EQ(block.choices[0].row_indices.size(), 2u);  // 'a' tuples
  for (const auto& choice : block.choices) {
    EXPECT_NEAR(choice.probability, 1.0 / 3, 1e-12);
  }
}

TEST(ChoicePartitionTest, WeightedBySumOfPartitionWeights) {
  sql::ChoiceClause clause;
  clause.columns = {"K"};
  clause.weight_column = "W";
  auto blocks = ChoicePartition(KeyedTable(), clause);
  ASSERT_TRUE(blocks.ok());
  const PartitionBlock& block = (*blocks)[0];
  // Total weight 23; partitions a=8, b=9, c=6.
  EXPECT_NEAR(block.choices[0].probability, 8.0 / 23, 1e-12);
  EXPECT_NEAR(block.choices[1].probability, 9.0 / 23, 1e-12);
  EXPECT_NEAR(block.choices[2].probability, 6.0 / 23, 1e-12);
}

TEST(ChoicePartitionTest, EmptyRelationIsError) {
  sql::ChoiceClause clause;
  clause.columns = {"K"};
  auto blocks = ChoicePartition(Table(KeyedTable().schema()), clause);
  ASSERT_FALSE(blocks.ok());
  EXPECT_EQ(blocks.status().code(), StatusCode::kEmptyWorldSet);
}

TEST(ChoicePartitionTest, MultiColumnChoice) {
  sql::ChoiceClause clause;
  clause.columns = {"K", "V"};
  auto blocks = ChoicePartition(KeyedTable(), clause);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ((*blocks)[0].choices.size(), 5u) << "all (K,V) pairs distinct";
}

// ---- components ----

Alternative MakeAlt(double p, const std::string& rel,
                    std::vector<Tuple> tuples) {
  Alternative alt;
  alt.probability = p;
  alt.tuples[rel] = std::move(tuples);
  return alt;
}

TEST(ComponentTest, ContributesToIgnoresEmptyContributions) {
  Component c;
  c.alternatives.push_back(MakeAlt(0.5, "r", {Row({I(1)})}));
  c.alternatives.push_back(MakeAlt(0.5, "r", {}));
  EXPECT_TRUE(c.ContributesTo("r"));
  EXPECT_FALSE(c.ContributesTo("s"));
  EXPECT_EQ(c.Relations(), std::vector<std::string>{"r"});
}

TEST(ComponentTest, NormalizeRescalesToOne) {
  Component c;
  c.alternatives.push_back(MakeAlt(2.0, "r", {}));
  c.alternatives.push_back(MakeAlt(6.0, "r", {}));
  MAYBMS_EXPECT_OK(c.Normalize());
  EXPECT_NEAR(c.alternatives[0].probability, 0.25, 1e-12);
  EXPECT_NEAR(c.alternatives[1].probability, 0.75, 1e-12);

  Component zero;
  zero.alternatives.push_back(MakeAlt(0.0, "r", {}));
  EXPECT_EQ(zero.Normalize().code(), StatusCode::kEmptyWorldSet);
}

TEST(ComponentTest, MergeComputesProduct) {
  Component a;
  a.alternatives.push_back(MakeAlt(0.25, "r", {Row({I(1)})}));
  a.alternatives.push_back(MakeAlt(0.75, "r", {Row({I(2)})}));
  Component b;
  b.alternatives.push_back(MakeAlt(0.5, "s", {Row({I(10)})}));
  b.alternatives.push_back(MakeAlt(0.5, "s", {Row({I(20)})}));

  auto merged = MergeComponents({&a, &b}, 0);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->size(), 4u);
  double total = 0;
  for (const Alternative& alt : merged->alternatives) {
    total += alt.probability;
    EXPECT_EQ(alt.tuples.at("r").size(), 1u);
    EXPECT_EQ(alt.tuples.at("s").size(), 1u);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ComponentTest, MergeOfNothingIsTrivialChoice) {
  auto merged = MergeComponents({}, 0);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->size(), 1u);
  EXPECT_NEAR(merged->alternatives[0].probability, 1.0, 1e-12);
}

TEST(ComponentTest, MergeCapIsEnforced) {
  Component a;
  for (int i = 0; i < 10; ++i) a.alternatives.push_back(MakeAlt(0.1, "r", {}));
  auto merged = MergeComponents({&a, &a, &a}, 100);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kUnsupported);
}

TEST(ComponentTest, MergeConcatenatesSharedRelationContributions) {
  Component a;
  a.alternatives.push_back(MakeAlt(1.0, "r", {Row({I(1)})}));
  Component b;
  b.alternatives.push_back(MakeAlt(1.0, "r", {Row({I(2)})}));
  auto merged = MergeComponents({&a, &b}, 0);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->alternatives[0].tuples.at("r").size(), 2u);
}

TEST(ProductTest, DigitZeroVariesFastest) {
  Product product;
  product.AddPart(2);
  product.AddPart(3);
  ASSERT_EQ(product.size(), 6u);
  std::vector<std::pair<size_t, size_t>> digits;
  for (uint64_t i = 0; i < product.size(); ++i) {
    std::pair<size_t, size_t> d;
    product.Decode(i, [&d](size_t k, size_t digit) {
      (k == 0 ? d.first : d.second) = digit;
    });
    digits.push_back(d);
  }
  EXPECT_EQ(digits, (std::vector<std::pair<size_t, size_t>>{
                        {0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}));
  EXPECT_FALSE(product.Exceeds(6));
  EXPECT_TRUE(product.Exceeds(5));
  EXPECT_EQ(Product().size(), 1u);  // the trivial choice
}

TEST(ProductTest, SizeSaturatesAndAnEmptyPartEmptiesIt) {
  Product product;
  for (int k = 0; k < 63; ++k) product.AddPart(2);
  EXPECT_EQ(product.size(), uint64_t{1} << 63);
  EXPECT_FALSE(product.Exceeds(std::numeric_limits<uint64_t>::max()));
  product.AddPart(2);  // 2^64 does not fit
  EXPECT_EQ(product.size(), std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(product.Exceeds(std::numeric_limits<uint64_t>::max()));
  // The largest ordinal still decodes: the last part's digit is 1.
  size_t last = 0;
  product.Decode(product.size() - 1,
                 [&last](size_t k, size_t digit) {
                   if (k == 63) last = digit;
                 });
  EXPECT_EQ(last, 1u);
  product.AddPart(0);
  EXPECT_EQ(product.size(), 0u);
  EXPECT_FALSE(product.Exceeds(0));
}

TEST(ProductTest, OrdinalsOfComponents) {
  Component a;
  a.alternatives.push_back(MakeAlt(0.25, "r", {Row({I(1)})}));
  a.alternatives.push_back(MakeAlt(0.75, "r", {Row({I(2)})}));
  Component b;
  b.alternatives.push_back(MakeAlt(0.5, "r", {Row({I(10)})}));
  b.alternatives.push_back(MakeAlt(0.5, "s", {Row({I(20)})}));
  const Product product({&a, &b});
  ASSERT_EQ(product.size(), 4u);
  // Ordinal 1: a's second alternative, b's first.
  EXPECT_EQ(product.Chosen(1), (std::vector<const Alternative*>{
                                   &a.alternatives[1], &b.alternatives[0]}));
  EXPECT_EQ(product.Probability(1), 1.0 * 0.75 * 0.5);
  Alternative merged = product.Merged(1);
  EXPECT_EQ(merged.probability, product.Probability(1));
  ASSERT_EQ(merged.tuples.at("r").size(), 2u);
  EXPECT_EQ(merged.tuples.at("r")[0].value(0).AsInteger(), 2);
  EXPECT_EQ(merged.tuples.at("r")[1].value(0).AsInteger(), 10);
}

TEST(ProductTest, MergeProductRefusesAnOverflowEvenWithoutACap) {
  Component coin;
  coin.alternatives.push_back(MakeAlt(0.5, "r", {}));
  coin.alternatives.push_back(MakeAlt(0.5, "r", {}));
  std::vector<const Component*> parts(64, &coin);
  auto product = MergeProduct(parts, 0);
  ASSERT_FALSE(product.ok());
  EXPECT_EQ(product.status().code(), StatusCode::kUnsupported);
  parts.pop_back();
  EXPECT_TRUE(MergeProduct(parts, 0).ok());
  Component empty;
  auto refused = MergeProduct({&coin, &empty}, 0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kEmptyWorldSet);
}

}  // namespace
}  // namespace maybms::worlds
