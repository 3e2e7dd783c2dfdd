/**
 * @file
 * The tmlint rule engine.
 *
 * Linting is two-phase. Phase one (lintFile) lexes each file and
 * collects the std::function aliases it declares. Phase two (finish)
 * runs the per-file token-level rules (determinism, hot-path hygiene,
 * unordered containers, include layering) and indexes symbols into a
 * FileSummary per file, then the whole-program passes: the layering
 * cycle check, the determinism-taint propagation, the guarded-by
 * lock-discipline check, and the transitive hot-path pass.
 * Findings come back sorted (file, line, rule) so output is
 * deterministic regardless of the order files were fed in.
 */

#ifndef TREADMILL_TOOLS_TMLINT_LINT_H_
#define TREADMILL_TOOLS_TMLINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "config.h"
#include "index.h"
#include "lexer.h"

namespace treadmill {
namespace tmlint {

/** Render a finding as "file:line: [rule] message". */
std::string formatFinding(const Finding &f);

class Linter
{
  public:
    explicit Linter(Config config);

    /**
     * Lex one file (phase one); its rules run in finish().
     *
     * @param path Repo-relative path with forward slashes (absolute
     *             paths are normalized to their "src/..." suffix).
     * @param content The file's full text.
     */
    void lintFile(const std::string &path, const std::string &content);

    /** Finish the run (phase two): whole-program passes over the
     *  collected summaries, then sorted findings. */
    std::vector<Finding> finish();

    /** Files fed so far (for the driver's summary line). */
    std::size_t fileCount() const { return filesSeen; }

  private:
    struct IncludeEdge {
        std::string fromFile;
        int line;
        std::string toModule;
    };

    struct LexedSource {
        std::string path; ///< normalized repo-relative path
        LexedFile lexed;
    };

    /** Phase two for one file: token rules, includes, symbols. */
    void summarize(const std::string &path, const LexedFile &lexed);
    void checkTokens(FileSummary &sum, const LexedFile &lexed);
    void checkIncludes(FileSummary &sum, const LexedFile &lexed);
    void report(FileSummary &sum, const LexedFile &lexed, int line,
                const std::string &rule, const std::string &message);

    Config cfg;
    std::vector<LexedSource> lexedFiles;
    /** Names declared as std::function aliases in any file fed. */
    std::set<std::string> functionAliases;
    std::vector<FileSummary> summaries;
    std::vector<Finding> findings;
    std::size_t filesSeen = 0;
};

/**
 * Normalize @p path to a repo-relative form: backslashes become
 * slashes and everything before a leading "src" / "tools" / "bench" /
 * "tests" / "examples" component is dropped, so absolute build paths
 * match config allowlist prefixes.
 */
std::string normalizeRepoPath(const std::string &path);

/** The "src/<module>/..." component of @p path, or "" if absent. */
std::string moduleOfPath(const std::string &path);

} // namespace tmlint
} // namespace treadmill

#endif // TREADMILL_TOOLS_TMLINT_LINT_H_
