/**
 * @file
 * Per-file semantic summaries: the unit of tmlint's flow analysis.
 *
 * tmlint's semantic rules cannot be answered one file at a time: a
 * guarded field is declared in a header but accessed in a .cc, a
 * tainted value crosses a call boundary, a hot-path region reaches an
 * allocating helper two modules away. The FileSummary is the bridge:
 * everything the global passes (callgraph.h, flow.h) need to know
 * about one file, extracted once by the symbol indexer (symbols.h),
 * after which the whole-program propagation runs over every summary.
 *
 * The flow graph is deliberately small: per function, a set of nodes
 * (locals, parameters in/out, call results, call arguments, the return
 * value, taint seeds) and directed edges between them, built from a
 * recoverable statement scan rather than a real C++ parse. Precision
 * is traded for robustness: object-field assignments taint the whole
 * object, any read of an unordered container taints the reader, and
 * resolution is by name. The result is an analysis that over-warns
 * slightly and never crashes on real code; suppressions carry the
 * judgment calls.
 */

#ifndef TREADMILL_TOOLS_TMLINT_INDEX_H_
#define TREADMILL_TOOLS_TMLINT_INDEX_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace treadmill {
namespace tmlint {

/** One rule violation. */
struct Finding {
    std::string file; ///< repo-relative path
    int line;         ///< 1-based; 0 for whole-graph findings
    std::string rule;
    std::string message;
};

/** Kinds of node in a function's local flow graph. */
enum class FlowKind {
    Var,        ///< a local variable / field name used in the body
    ParamIn,    ///< value a caller passes into parameter `arg`
    ParamOut,   ///< value the function writes back through param `arg`
    CallRet,    ///< result of call site `call`
    CallArg,    ///< value passed at call site `call`, position `arg`
    CallArgOut, ///< callee write-back into argument `arg` of `call`
    Ret,        ///< the function's return value
    Seed,       ///< a taint source (unordered-container iteration)
};

/** One node in a function's local flow graph. */
struct FlowNode {
    FlowKind kind = FlowKind::Var;
    std::string name; ///< variable name (Var/Seed), else ""
    int call = -1;    ///< call-site index for Call* kinds
    int arg = -1;     ///< argument / parameter position
    int line = 0;     ///< source line (Seed: where taint originates)
};

/** One call site inside a function body. */
struct CallInfo {
    std::string callee;    ///< unqualified name as written
    std::string qualifier; ///< `q` in `q::callee(...)`, else ""
    std::string receiver;  ///< `r` in `r.callee(...)` / `r->`, else ""
    int line = 0;
    int args = 0; ///< argument count observed at the call
    /** Mutexes held (lexically) at the call site. */
    std::vector<std::string> heldLocks;
};

/** One identifier access inside a function body. */
struct UseInfo {
    std::string name;
    int line = 0;
    /** Mutexes held (lexically) at the access. */
    std::vector<std::string> heldLocks;
};

/** One hot-path hygiene fact (an alloc/string/function/throw token). */
struct FactInfo {
    std::string rule;  ///< base rule id, e.g. "hot-path-no-alloc"
    std::string token; ///< offending token, for the message
    int line = 0;
    bool lexHot = false; ///< line already inside a lexical hot region
};

/** A function-local variable annotated with tm:guarded_by. */
struct GuardedVar {
    std::string name;
    int line = 0; ///< declaration line (uses on this line are exempt)
    std::vector<std::string> mutexes;
};

/** Everything the global passes need to know about one function. */
struct FuncIndex {
    std::string name;      ///< unqualified name
    std::string className; ///< enclosing or qualifying class, or ""
    int line = 0;          ///< line of the body's opening brace
    int endLine = 0;       ///< line of the body's closing brace
    bool isCtorDtor = false;
    bool hotLex = false; ///< body intersects a lexical hot region
    bool cold = false;   ///< carries a tmlint:cold marker
    /** Mutexes this function asserts its callers hold (tm:requires). */
    std::vector<std::string> requiresMutex;
    /** Names of locally declared std::mutex objects. */
    std::vector<std::string> localMutexes;
    std::vector<CallInfo> calls;
    std::vector<FlowNode> nodes;
    /** Directed edges between `nodes` (value flow). */
    std::vector<std::pair<int, int>> edges;
    std::vector<UseInfo> uses;
    std::vector<FactInfo> facts;
    std::vector<GuardedVar> guardedLocals;

    /** Display name for findings: "Class::name" or "name". */
    std::string displayName() const
    {
        return className.empty() ? name : className + "::" + name;
    }
};

/** One class data member. */
struct FieldIndex {
    std::string className;
    std::string name;
    int line = 0;
    bool isMutex = false;
    bool isUnordered = false;
    /** Mutexes that must be held to touch this field (tm:guarded_by). */
    std::vector<std::string> guardedBy;
};

/** The complete semantic summary of one file. */
struct FileSummary {
    std::string path;   ///< repo-relative, forward slashes
    std::string module; ///< "core" for src/core/..., else ""
    std::vector<FuncIndex> functions;
    std::vector<FieldIndex> fields;
    /** Findings local to this file (token rules, pool lifetime,
     *  layering allowlist), already suppression-filtered. */
    std::vector<Finding> localFindings;
    /** Module-qualified quoted includes: (toModule, line). */
    std::vector<std::pair<std::string, int>> moduleIncludes;
    /** Suppressions, kept so global-pass findings that land in this
     *  file respect its inline allows. */
    std::map<int, std::set<std::string>> lineAllows;
    std::set<std::string> fileAllows;

    /** True if @p rule is suppressed at @p line in this file. */
    bool allowedAt(const std::string &rule, int line) const;
};

} // namespace tmlint
} // namespace treadmill

#endif // TREADMILL_TOOLS_TMLINT_INDEX_H_
