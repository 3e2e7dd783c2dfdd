/** @file Tests for conditional factor impacts on a synthetic model. */

#include <gtest/gtest.h>

#include "analysis/attribution.h"
#include "util/error.h"
#include "util/random_variates.h"

namespace treadmill {
namespace analysis {
namespace {

/**
 * Build an AttributionResult from a synthetic data set with a known
 * generative model (no simulation), so impact arithmetic can be
 * checked exactly:
 *   y = 100 + 30*turbo - 40*turbo*dvfs + 10*numa + noise(small)
 */
AttributionResult
syntheticAttribution()
{
    AttributionResult result;
    Rng rng(17);
    Normal noise(0.0, 0.1);
    for (int rep = 0; rep < 8; ++rep) {
        for (unsigned idx = 0; idx < 16; ++idx) {
            const auto l = hw::HardwareConfig::fromIndex(idx).levels();
            result.levels.emplace_back(l.begin(), l.end());
            result.responses[0.5].push_back(
                100.0 + 30.0 * l[1] - 40.0 * l[1] * l[2] + 10.0 * l[0] +
                noise.sample(rng));
        }
    }
    FactorialFitParams fit;
    fit.quantiles = {0.5};
    fit.bootstrapReplicates = 20;
    fit.seed = 5;
    result.models = fitFactorialModels(result.design, result.levels,
                                       result.responses, fit);
    return result;
}

TEST(ConditionalImpactTest, RecoverGenerativeCoefficients)
{
    const auto result = syntheticAttribution();
    const auto &m = result.model(0.5);
    EXPECT_NEAR(m.terms[0].estimate, 100.0, 0.3); // intercept
    EXPECT_NEAR(m.terms[1].estimate, 10.0, 0.3);  // numa
    EXPECT_NEAR(m.terms[2].estimate, 30.0, 0.3);  // turbo
    EXPECT_NEAR(m.terms[6].estimate, -40.0, 0.5); // turbo:dvfs
    EXPECT_GT(m.pseudoR2, 0.99);
}

TEST(ConditionalImpactTest, UnconditionalIsMeanOfConditionals)
{
    const auto result = syntheticAttribution();
    const double total = result.averageFactorImpact(0.5, 1);
    const double givenLow =
        result.averageFactorImpactGiven(0.5, 1, 2, false);
    const double givenHigh =
        result.averageFactorImpactGiven(0.5, 1, 2, true);
    EXPECT_NEAR(total, 0.5 * (givenLow + givenHigh), 1e-9);
}

TEST(ConditionalImpactTest, ConditionalExposesInteraction)
{
    // turbo's effect: +30 when dvfs low, 30-40 = -10 when dvfs high.
    const auto result = syntheticAttribution();
    EXPECT_NEAR(result.averageFactorImpactGiven(0.5, 1, 2, false),
                30.0, 0.5);
    EXPECT_NEAR(result.averageFactorImpactGiven(0.5, 1, 2, true),
                -10.0, 0.5);
}

TEST(ConditionalImpactTest, IndependentFactorUnaffectedByCondition)
{
    // numa's +10 effect has no interactions in the generative model.
    const auto result = syntheticAttribution();
    EXPECT_NEAR(result.averageFactorImpactGiven(0.5, 0, 1, false),
                10.0, 0.5);
    EXPECT_NEAR(result.averageFactorImpactGiven(0.5, 0, 1, true),
                10.0, 0.5);
}

TEST(ConditionalImpactDeathTest, RejectsSelfConditioning)
{
    const auto result = syntheticAttribution();
    EXPECT_DEATH(
        (void)result.averageFactorImpactGiven(0.5, 1, 1, true),
        "differ");
}

} // namespace
} // namespace analysis
} // namespace treadmill
