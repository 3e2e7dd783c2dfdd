/** @file Unit tests for report/table rendering. */

#include "analysis/report.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace treadmill {
namespace analysis {
namespace {

TEST(TextTableTest, RendersAlignedColumns)
{
    TextTable t({"Factor", "Est."});
    t.addRow({"numa", "56 us"});
    t.addRow({"turbo", "-29 us"});
    const std::string out = t.render();
    EXPECT_NE(out.find("Factor"), std::string::npos);
    EXPECT_NE(out.find("numa"), std::string::npos);
    EXPECT_NE(out.find("-29 us"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTableTest, RejectsMismatchedRow)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), ConfigError);
    EXPECT_THROW(TextTable({}), ConfigError);
}

TEST(FormatTest, MicrosFormatting)
{
    EXPECT_EQ(formatMicros(355.4), "355 us");
    EXPECT_EQ(formatMicros(0.4), "<1 us");
    EXPECT_EQ(formatMicros(-0.4), ">-1 us");
    EXPECT_EQ(formatMicros(-29.0), "-29 us");
}

TEST(FormatTest, PValueFormatting)
{
    EXPECT_EQ(formatPValue(1e-9), "<1e-06");
    EXPECT_EQ(formatPValue(0.05), "5.00e-02");
    EXPECT_EQ(formatPValue(0.354), "3.54e-01");
}

TEST(CdfTest, MonotoneOutput)
{
    std::vector<double> samples;
    for (int i = 100; i > 0; --i)
        samples.push_back(static_cast<double>(i));
    const std::string out = renderCdf(samples, 10);
    // Ten lines, ascending values.
    std::size_t lines = 0;
    double prev = -1.0;
    std::size_t pos = 0;
    while (pos < out.size()) {
        const std::size_t eol = out.find('\n', pos);
        const std::string line = out.substr(pos, eol - pos);
        const double value = std::stod(line);
        EXPECT_GE(value, prev);
        prev = value;
        ++lines;
        pos = eol + 1;
    }
    EXPECT_EQ(lines, 10u);
}

TEST(CdfTest, RejectsDegenerateInputs)
{
    EXPECT_THROW(renderCdf({}, 10), NumericalError);
    EXPECT_THROW(renderCdf({1.0}, 1), ConfigError);
}

TEST(CoefficientTableTest, RendersSyntheticAttribution)
{
    // Build a tiny synthetic attribution and render it end to end.
    AttributionParams params;
    params.quantiles = {0.5, 0.99};
    params.bootstrapReplicates = 16;
    std::vector<Observation> obs;
    for (int rep = 0; rep < 4; ++rep) {
        for (unsigned idx = 0; idx < 16; ++idx) {
            Observation o;
            o.config = hw::HardwareConfig::fromIndex(idx);
            const auto l = o.config.levels();
            o.quantileUs[0.5] = 100.0 + 50.0 * l[0] + 0.01 * rep;
            o.quantileUs[0.99] = 300.0 + 150.0 * l[0] + 0.01 * rep;
            obs.push_back(std::move(o));
        }
    }
    const auto attribution = fitAttribution(params, std::move(obs));
    const std::string table = renderCoefficientTable(attribution);

    // All 16 term rows present; numa flagged significant.
    EXPECT_NE(table.find("(Intercept)"), std::string::npos);
    EXPECT_NE(table.find("numa *"), std::string::npos);
    EXPECT_NE(table.find("numa:turbo:dvfs:nic"), std::string::npos);
    EXPECT_NE(table.find("pseudo-R2"), std::string::npos);
    // Estimates rendered in microsecond form.
    EXPECT_NE(table.find("us"), std::string::npos);
}

TEST(CoefficientTableTest, EmptyModelsRejected)
{
    AttributionResult empty;
    EXPECT_THROW(renderCoefficientTable(empty), NumericalError);
}

} // namespace
} // namespace analysis
} // namespace treadmill
