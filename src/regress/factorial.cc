#include "regress/factorial.h"

#include <algorithm>
#include <cmath>

#include "stats/hypothesis.h"
#include "stats/summary.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/strings.h"

namespace treadmill {
namespace regress {

namespace {

using CellRows = std::vector<std::vector<std::size_t>>;

/**
 * In place over the subset lattice, one factor bit at a time:
 * v[m] += sign * v[m without that bit]. sign = -1 is the Möbius
 * inversion (cell values to term coefficients); sign = +1 is the
 * subset sum (v[S] = sum over T subset of S of v[T]). O(k 2^k).
 */
void
subsetTransform(Vec &v, double sign)
{
    for (std::size_t bit = 1; bit < v.size(); bit <<= 1) {
        for (std::size_t m = 0; m < v.size(); ++m) {
            if (m & bit)
                v[m] += sign * v[m ^ bit];
        }
    }
}

void
checkSizes(const std::vector<std::vector<double>> &levels, const Vec &y)
{
    if (y.size() != levels.size())
        throw NumericalError(strprintf(
            "factorial fit has %zu responses for %zu observations",
            y.size(), levels.size()));
}

/** fitFactorial() over rows already grouped by cell; a row may
 *  repeat (a bootstrap draw). */
QuantRegResult
fitCells(const CellRows &cells, const Vec &y, double tau)
{
    QuantRegResult fit;
    fit.tau = tau;
    fit.coefficients.resize(cells.size());
    std::vector<double> values;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        values.clear();
        for (std::size_t r : cells[c])
            values.push_back(y[r]);
        const double mu = lowerQuantile(values, tau);
        for (double v : values)
            fit.loss += pinballLoss(tau, v - mu);
        fit.coefficients[c] = mu;
    }
    subsetTransform(fit.coefficients, -1.0);
    return fit;
}

double
normalPValue(double estimate, double standardError)
{
    if (standardError > 0.0)
        return stats::twoSidedPValue(estimate / standardError);
    return estimate == 0.0 ? 1.0 : 0.0;
}

} // namespace

double
pinballLoss(double tau, double err)
{
    return err >= 0.0 ? tau * err : (tau - 1.0) * err;
}

double
lowerQuantile(std::vector<double> values, double tau)
{
    if (values.empty())
        throw NumericalError("quantile of an empty sample");
    if (!(tau > 0.0 && tau < 1.0))
        throw NumericalError("tau must lie strictly in (0, 1)");
    // 0 < n tau < n, so the 1-based rank lies in [1, n].
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(values.size()) * tau));
    const auto kth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(values.begin(), kth, values.end());
    return *kth;
}

double
QuantRegResult::predict(const Vec &xRow) const
{
    TM_ASSERT(xRow.size() == coefficients.size(),
              "prediction row does not match the model's terms");
    double sum = 0.0;
    for (std::size_t i = 0; i < xRow.size(); ++i)
        sum += xRow[i] * coefficients[i];
    return sum;
}

QuantRegResult
fitFactorial(const FactorialDesign &design,
             const std::vector<std::vector<double>> &levels, const Vec &y,
             double tau)
{
    checkSizes(levels, y);
    return fitCells(design.cellRows(levels), y, tau);
}

OlsResult
fitFactorialOls(const FactorialDesign &design,
                const std::vector<std::vector<double>> &levels,
                const Vec &y)
{
    checkSizes(levels, y);
    const CellRows cells = design.cellRows(levels);

    OlsResult fit;
    fit.coefficients.resize(cells.size());
    // Per cell 1 / n_T; the subset sum below makes it Var(beta_S) /
    // sigma^2, since the cell means are independent.
    Vec variance(cells.size());
    double rss = 0.0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const auto n = static_cast<double>(cells[c].size());
        double sum = 0.0;
        for (std::size_t r : cells[c])
            sum += y[r];
        const double mean = sum / n;
        for (std::size_t r : cells[c])
            rss += (y[r] - mean) * (y[r] - mean);
        fit.coefficients[c] = mean;
        variance[c] = 1.0 / n;
    }
    subsetTransform(fit.coefficients, -1.0);
    subsetTransform(variance, 1.0);

    const double grand = stats::mean(y);
    double tss = 0.0;
    for (double v : y)
        tss += (v - grand) * (v - grand);
    fit.rSquared = tss > 0.0 ? 1.0 - rss / tss : 0.0;

    const auto dof = static_cast<double>(y.size() - cells.size());
    const double sigma2 = dof > 0.0 ? rss / dof : 0.0;
    for (std::size_t j = 0; j < cells.size(); ++j) {
        const double se = std::sqrt(sigma2 * variance[j]);
        fit.standardErrors.push_back(se);
        fit.pValues.push_back(normalPValue(fit.coefficients[j], se));
    }
    return fit;
}

QuantRegInference
bootstrapFactorial(const FactorialDesign &design,
                   const std::vector<std::vector<double>> &levels,
                   const Vec &y, double tau, std::size_t replicates,
                   Rng &rng)
{
    if (replicates < 2)
        throw ConfigError("bootstrap needs at least 2 replicates");
    checkSizes(levels, y);
    const CellRows cells = design.cellRows(levels);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (cells[c].size() < 2)
            throw ConfigError(strprintf(
                "bootstrap needs at least 2 runs in factorial cell %s: "
                "a 1-run cell's resample cannot vary",
                design.cellName(c).c_str()));
    }

    QuantRegInference result;
    result.fit = fitCells(cells, y, tau);
    result.bootstrapReplicates = replicates;

    // draws[t][b]: term t's coefficient in replicate b.
    const std::size_t p = cells.size();
    std::vector<Vec> draws(p, Vec(replicates));
    CellRows resample = cells;
    for (std::size_t b = 0; b < replicates; ++b) {
        for (std::size_t c = 0; c < p; ++c) {
            for (std::size_t &row : resample[c])
                row = cells[c][rng.nextBelow(cells[c].size())];
        }
        const Vec beta = fitCells(resample, y, tau).coefficients;
        for (std::size_t t = 0; t < p; ++t)
            draws[t][b] = beta[t];
    }

    result.coefficients.resize(p);
    for (std::size_t t = 0; t < p; ++t) {
        CoefficientInference &ci = result.coefficients[t];
        ci.estimate = result.fit.coefficients[t];
        ci.standardError = stats::stddev(draws[t]);
        ci.pValue = normalPValue(ci.estimate, ci.standardError);
    }
    return result;
}

} // namespace regress
} // namespace treadmill
