/**
 * @file
 * FileSummary queries.
 */

#include "index.h"

namespace treadmill {
namespace tmlint {

bool FileSummary::allowedAt(const std::string &rule, int line) const
{
    if (fileAllows.count(rule) != 0) {
        return true;
    }
    auto it = lineAllows.find(line);
    return it != lineAllows.end() && it->second.count(rule) != 0;
}

} // namespace tmlint
} // namespace treadmill
