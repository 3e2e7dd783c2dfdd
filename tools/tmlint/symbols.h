/**
 * @file
 * The recoverable scope/declaration scanner.
 *
 * indexSymbols() walks one lexed file and fills a FileSummary with
 * functions, class fields, call sites, identifier uses (with the set
 * of mutexes lexically held at each), hot-path hygiene facts, and the
 * per-function value-flow graph the taint pass propagates over. It is
 * not a C++ parser: scopes are classified by inspecting the token
 * slice between the previous statement boundary and each `{`, and
 * anything unclassifiable becomes an anonymous block that the scanner
 * simply descends into. Misclassification degrades precision, never
 * correctness of the traversal.
 *
 * Pool-lifetime checking (use of a `util::Pool` / `util::RawPool`
 * handle after `release()` / `recycle()`, and escape of pooled
 * references into containers that outlive the function) is purely
 * intra-procedural, so it runs here at index time and its findings are
 * emitted into FileSummary::localFindings, already filtered against
 * the file's inline suppressions.
 */

#ifndef TREADMILL_TOOLS_TMLINT_SYMBOLS_H_
#define TREADMILL_TOOLS_TMLINT_SYMBOLS_H_

#include <set>
#include <string>
#include <vector>

#include "index.h"
#include "lexer.h"

namespace treadmill {
namespace tmlint {

/** Rule id for use-after-release / pooled-pointer escape findings. */
extern const char kPoolLifetimeRule[];

/** What a token does that the steady-state path must not. */
struct HotPathHit {
    /** Base rule id ("hot-path-no-alloc"); nullptr when none. */
    const char *rule = nullptr;
    /** The offending token as reported ("std::function", "new"). */
    std::string token;
};

/**
 * The one hot-path hygiene classifier, behind both the lexical
 * hot-path rules and the facts hot-path-transitive follows: whether
 * identifier token @p i of @p toks names std::function or one of
 * @p functionAliases, allocates (`new`, except placement
 * `new (buf) T`; make_unique / make_shared), constructs a std::string
 * (declarations, temporaries, brace-inits, to_string, strprintf), or
 * throws.
 */
HotPathHit classifyHotPath(const std::vector<Token> &toks, std::size_t i,
                           const std::set<std::string> &functionAliases);

/** Add to @p out every X that @p toks declares as
 *  `using X = std::function<...>`. */
void collectFunctionAliases(const std::vector<Token> &toks,
                            std::set<std::string> &out);

/**
 * Index @p lexed into @p summary (functions, fields, flow graphs) and
 * append pool-lifetime findings to summary.localFindings. Hot-path facts
 * treat every name in @p functionAliases as std::function.
 *
 * @p summary must already have its path/module/suppression members
 * populated; this function only adds symbol information.
 */
void indexSymbols(const LexedFile &lexed, FileSummary &summary,
                  const std::set<std::string> &functionAliases);

} // namespace tmlint
} // namespace treadmill

#endif // TREADMILL_TOOLS_TMLINT_SYMBOLS_H_
