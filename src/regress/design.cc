#include "regress/design.h"

#include "util/error.h"
#include "util/logging.h"
#include "util/strings.h"

namespace treadmill {
namespace regress {

FactorialDesign::FactorialDesign(std::vector<std::string> factorNames)
    : names(std::move(factorNames))
{
    if (names.empty())
        throw ConfigError("factorial design needs at least one factor");
    if (names.size() > 16)
        throw ConfigError("factorial design limited to 16 factors");
}

std::string
FactorialDesign::termName(std::size_t t) const
{
    TM_ASSERT(t < termCount(), "term index out of range");
    if (t == 0)
        return "(Intercept)";
    std::vector<std::string> parts;
    for (std::size_t f = 0; f < names.size(); ++f) {
        if (t & (std::size_t{1} << f))
            parts.push_back(names[f]);
    }
    return join(parts, ":");
}

std::vector<std::string>
FactorialDesign::termNames() const
{
    std::vector<std::string> out;
    out.reserve(termCount());
    for (std::size_t t = 0; t < termCount(); ++t)
        out.push_back(termName(t));
    return out;
}

std::size_t
FactorialDesign::mainEffectTerm(std::size_t factorIdx) const
{
    TM_ASSERT(factorIdx < names.size(), "factor index out of range");
    return std::size_t{1} << factorIdx;
}

Vec
FactorialDesign::designRow(const std::vector<double> &levels) const
{
    if (levels.size() != names.size())
        throw NumericalError("level vector size mismatch");
    Vec row(termCount(), 1.0);
    for (std::size_t t = 1; t < termCount(); ++t) {
        double value = 1.0;
        for (std::size_t f = 0; f < names.size(); ++f) {
            if (t & (std::size_t{1} << f))
                value *= levels[f];
        }
        row[t] = value;
    }
    return row;
}

std::vector<std::vector<std::size_t>>
FactorialDesign::cellRows(
    const std::vector<std::vector<double>> &levels) const
{
    std::vector<std::vector<std::size_t>> cells(termCount());
    for (std::size_t r = 0; r < levels.size(); ++r) {
        if (levels[r].size() != names.size())
            throw ConfigError(strprintf(
                "observation %zu has %zu levels for %zu factors", r,
                levels[r].size(), names.size()));
        std::size_t cell = 0;
        for (std::size_t f = 0; f < names.size(); ++f) {
            const double level = levels[r][f];
            if (level != 0.0 && level != 1.0)
                throw ConfigError(strprintf(
                    "observation %zu: level %g of factor \"%s\" is not "
                    "0 or 1",
                    r, level, names[f].c_str()));
            if (level == 1.0)
                cell |= std::size_t{1} << f;
        }
        cells[cell].push_back(r);
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (cells[c].empty())
            throw ConfigError(strprintf(
                "factorial cell %s has no observations",
                cellName(c).c_str()));
    }
    return cells;
}

std::string
FactorialDesign::cellName(std::size_t c) const
{
    TM_ASSERT(c < termCount(), "cell index out of range");
    std::string name = "{";
    for (std::size_t f = 0; f < names.size(); ++f) {
        if (f > 0)
            name += ", ";
        name += names[f];
        name += (c >> f) & 1 ? "=1" : "=0";
    }
    name += '}';
    return name;
}

} // namespace regress
} // namespace treadmill
