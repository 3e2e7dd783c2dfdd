/** @file Unit tests for the factorial design builder. */

#include "regress/design.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace treadmill {
namespace regress {
namespace {

TEST(DesignTest, TermCountIsTwoToTheK)
{
    EXPECT_EQ(FactorialDesign({"a"}).termCount(), 2u);
    EXPECT_EQ(FactorialDesign({"a", "b"}).termCount(), 4u);
    EXPECT_EQ(FactorialDesign({"numa", "turbo", "dvfs", "nic"})
                  .termCount(),
              16u);
}

TEST(DesignTest, RejectsDegenerateFactorLists)
{
    EXPECT_THROW(FactorialDesign({}), ConfigError);
    EXPECT_THROW(FactorialDesign(std::vector<std::string>(17, "f")),
                 ConfigError);
}

TEST(DesignTest, TermNamesMatchPaperStyle)
{
    FactorialDesign d({"numa", "turbo", "dvfs", "nic"});
    EXPECT_EQ(d.termName(0), "(Intercept)");
    EXPECT_EQ(d.termName(1), "numa");
    EXPECT_EQ(d.termName(2), "turbo");
    EXPECT_EQ(d.termName(3), "numa:turbo");
    EXPECT_EQ(d.termName(5), "numa:dvfs");
    EXPECT_EQ(d.termName(15), "numa:turbo:dvfs:nic");
    EXPECT_EQ(d.termNames().size(), 16u);
}

TEST(DesignTest, DesignRowIsProductOfLevels)
{
    FactorialDesign d({"a", "b"});
    const Vec row = d.designRow({1.0, 0.0});
    ASSERT_EQ(row.size(), 4u);
    EXPECT_DOUBLE_EQ(row[0], 1.0); // intercept
    EXPECT_DOUBLE_EQ(row[1], 1.0); // a
    EXPECT_DOUBLE_EQ(row[2], 0.0); // b
    EXPECT_DOUBLE_EQ(row[3], 0.0); // a:b

    const Vec both = d.designRow({1.0, 1.0});
    EXPECT_DOUBLE_EQ(both[3], 1.0);
}

TEST(DesignTest, RowRejectsWrongLevelCount)
{
    FactorialDesign d({"a", "b"});
    EXPECT_THROW(d.designRow({1.0}), NumericalError);
}

TEST(DesignTest, CellRowsGroupByLevelsInInputOrder)
{
    FactorialDesign d({"a", "b"});
    const std::vector<std::vector<double>> obs{
        {1, 1}, {0, 0}, {1, 0}, {0, 1}, {0, 0}, {1, 1}};
    const auto cells = d.cellRows(obs);
    ASSERT_EQ(cells.size(), 4u);
    // Cell index bit f is factor f's level, as in the term index.
    EXPECT_EQ(cells[0], (std::vector<std::size_t>{1, 4}));
    EXPECT_EQ(cells[1], (std::vector<std::size_t>{2}));
    EXPECT_EQ(cells[2], (std::vector<std::size_t>{3}));
    EXPECT_EQ(cells[3], (std::vector<std::size_t>{0, 5}));
}

TEST(DesignTest, CellRowsRejectsWrongLevelCount)
{
    // Empty cells and non-0/1 levels: FactorialFitTest.
    FactorialDesign d({"numa", "turbo"});
    EXPECT_THROW(d.cellRows({{0, 0}, {1, 0}, {0, 1}, {1}}), ConfigError);
}

} // namespace
} // namespace regress
} // namespace treadmill
