/**
 * @file
 * 2-level full-factorial experiment design with interactions.
 *
 * Builds the model of the paper's Equation 1: an intercept, every
 * factor in isolation, and the products of every factor subset
 * ("numa:turbo", ..., "numa:turbo:dvfs:nic"). The model is saturated
 * -- one term per factorial cell -- and terms and cells share one
 * encoding: bit f of an index is factor f (in the term) or factor f's
 * level (in the cell).
 */

#ifndef TREADMILL_REGRESS_DESIGN_H_
#define TREADMILL_REGRESS_DESIGN_H_

#include <cstddef>
#include <string>
#include <vector>

namespace treadmill {
namespace regress {

/** Column vector. */
using Vec = std::vector<double>;

/** The term structure of a 2^k factorial model with interactions. */
class FactorialDesign
{
  public:
    /**
     * @param factorNames One name per factor, in canonical order.
     * @throws ConfigError when empty or absurdly large (> 16 factors).
     */
    explicit FactorialDesign(std::vector<std::string> factorNames);

    /** Number of base factors k. */
    std::size_t factorCount() const { return names.size(); }

    /** Number of model terms (and of cells): 2^k. */
    std::size_t termCount() const { return std::size_t{1} << names.size(); }

    /**
     * Name of term @p t: "(Intercept)" for t = 0, otherwise factor
     * names joined by ':' ("numa:dvfs").
     */
    std::string termName(std::size_t t) const;

    /** All term names in canonical order. */
    std::vector<std::string> termNames() const;

    /**
     * Index of the main-effect term of factor @p factorIdx (the
     * singleton subset {factorIdx}); lets callers rank factors by
     * their isolated coefficient without re-deriving the subset
     * encoding.
     */
    std::size_t mainEffectTerm(std::size_t factorIdx) const;

    /**
     * Design-matrix row for one observation's factor levels:
     * row[t] = product of levels of the factors in term t.
     */
    Vec designRow(const std::vector<double> &levels) const;

    /**
     * Group observations by factorial cell: entry c lists, in input
     * order, the rows whose levels put them in cell c.
     *
     * @param levels One level vector per observation.
     * @throws ConfigError naming the observation when a level is not
     *         exactly 0 or 1, or naming an empty cell by its levels.
     */
    std::vector<std::vector<std::size_t>>
    cellRows(const std::vector<std::vector<double>> &levels) const;

    /** Cell @p c by its levels: "{numa=1, turbo=0}". */
    std::string cellName(std::size_t c) const;

  private:
    std::vector<std::string> names;
};

} // namespace regress
} // namespace treadmill

#endif // TREADMILL_REGRESS_DESIGN_H_
