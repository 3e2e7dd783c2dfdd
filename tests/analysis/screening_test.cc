/** @file Tests for the factor-screening pass. */

#include "analysis/screening.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/random_variates.h"

namespace treadmill {
namespace analysis {
namespace {

/** A synthetic study: numa shifts P99 by +40, turbo by -25, dvfs and
 *  nic by nothing. */
AttributionResult
syntheticStudy(int reps, double noiseSd, std::uint64_t seed)
{
    Rng rng(seed);
    Normal noise(0.0, noiseSd);
    AttributionResult study;
    for (int rep = 0; rep < reps; ++rep) {
        for (unsigned idx = 0; idx < 16; ++idx) {
            const auto l = hw::HardwareConfig::fromIndex(idx).levels();
            study.levels.emplace_back(l.begin(), l.end());
            study.responses[0.99].push_back(300.0 + 40.0 * l[0] -
                                            25.0 * l[1] +
                                            noise.sample(rng));
        }
    }
    return study;
}

TEST(ScreeningTest, DetectsRealFactorsRejectsNullOnes)
{
    const auto study = syntheticStudy(10, 5.0, 1);
    ScreeningParams params;
    params.permutations = 500;
    const auto screens = screenFactors(study, params);
    ASSERT_EQ(screens.size(), 4u);

    EXPECT_EQ(screens[0].name, "numa");
    EXPECT_TRUE(screens[0].significant);
    EXPECT_NEAR(screens[0].effectUs, 40.0, 4.0);

    EXPECT_EQ(screens[1].name, "turbo");
    EXPECT_TRUE(screens[1].significant);
    EXPECT_NEAR(screens[1].effectUs, -25.0, 4.0);

    EXPECT_EQ(screens[2].name, "dvfs");
    EXPECT_FALSE(screens[2].significant);
    EXPECT_EQ(screens[3].name, "nic");
    EXPECT_FALSE(screens[3].significant);
}

TEST(ScreeningTest, HeavyNoiseWeakensDetection)
{
    // With noise far above the effects, even real factors become
    // statistically invisible -- the reason the paper collects >= 30
    // reps per cell.
    const auto study = syntheticStudy(1, 500.0, 2);
    ScreeningParams params;
    params.permutations = 300;
    const auto screens = screenFactors(study, params);
    int significant = 0;
    for (const auto &s : screens)
        significant += s.significant ? 1 : 0;
    EXPECT_LE(significant, 1);
}

TEST(ScreeningTest, RejectsDegenerateInputs)
{
    EXPECT_THROW(screenFactors(AttributionResult{}, ScreeningParams{}),
                 NumericalError);

    // Every run at one level of every factor.
    AttributionResult fixed;
    for (int i = 0; i < 8; ++i) {
        fixed.levels.push_back({0.0, 0.0, 0.0, 0.0});
        fixed.responses[0.99].push_back(100.0);
    }
    EXPECT_THROW(screenFactors(fixed, ScreeningParams{}),
                 NumericalError);

    // Missing tau.
    auto study = syntheticStudy(1, 1.0, 3);
    ScreeningParams wrongTau;
    wrongTau.tau = 0.5;
    EXPECT_THROW(screenFactors(study, wrongTau), NumericalError);

    // A run whose levels do not match the four-factor design.
    study.levels[3].pop_back();
    EXPECT_THROW(screenFactors(study, ScreeningParams{}), ConfigError);
}

TEST(ScreeningTest, DeterministicForSameSeed)
{
    const auto study = syntheticStudy(5, 10.0, 4);
    ScreeningParams params;
    params.permutations = 200;
    const auto a = screenFactors(study, params);
    const auto b = screenFactors(study, params);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pValue, b[i].pValue);
        EXPECT_EQ(a[i].effectUs, b[i].effectUs);
    }
}

} // namespace
} // namespace analysis
} // namespace treadmill
