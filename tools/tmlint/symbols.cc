/**
 * @file
 * The scope/declaration scanner behind indexSymbols().
 *
 * One forward pass over the token stream maintains a scope stack.
 * Each `{` is classified by the token slice since the last statement
 * boundary: namespace, class, function, or -- when the slice looks
 * like an initializer or anything unrecognizable -- an anonymous
 * scope the scanner just descends through. Inside function bodies the
 * same pass splits statements into fragments (at `;`, `{`, `}` with
 * per-brace-level paren depth, so lambda bodies and for-headers split
 * correctly), from which it extracts call sites, assignment flow
 * edges, lock acquisitions, pool handle events, and guarded-local
 * declarations.
 *
 * Everything here is heuristic by design. The failure mode of a
 * misread slice is an anonymous block: traversal stays balanced and
 * the affected function merely contributes less information to the
 * global passes.
 */

#include "symbols.h"

#include <algorithm>
#include <cstddef>

namespace treadmill {
namespace tmlint {

const char kPoolLifetimeRule[] = "pool-lifetime";

namespace {

bool isKeyword(const std::string &s)
{
    static const std::set<std::string> kw = {
        "alignas",     "alignof",       "and",
        "auto",        "bool",          "break",
        "case",        "catch",         "char",
        "char16_t",    "char32_t",      "char8_t",
        "class",       "const",         "const_cast",
        "constexpr",   "continue",      "decltype",
        "default",     "delete",        "do",
        "double",      "dynamic_cast",  "else",
        "enum",        "explicit",      "extern",
        "false",       "final",         "float",
        "for",         "friend",        "goto",
        "if",          "inline",        "int",
        "long",        "mutable",       "namespace",
        "new",         "noexcept",      "not",
        "nullptr",     "operator",      "or",
        "override",    "private",       "protected",
        "public",      "register",      "reinterpret_cast",
        "return",      "short",         "signed",
        "sizeof",      "static",        "static_assert",
        "static_cast", "struct",        "switch",
        "template",    "this",          "thread_local",
        "throw",       "true",          "try",
        "typedef",     "typeid",        "typename",
        "union",       "unsigned",      "using",
        "virtual",     "void",          "volatile",
        "wchar_t",     "while",         "xor",
        // Not keywords, but never interesting as value names:
        "std",         "size_t",        "ptrdiff_t",
        "int8_t",      "int16_t",       "int32_t",
        "int64_t",     "uint8_t",       "uint16_t",
        "uint32_t",    "uint64_t",      "intptr_t",
        "uintptr_t",
    };
    return kw.count(s) != 0;
}

bool isMutexType(const std::string &s)
{
    return s == "mutex" || s == "shared_mutex" ||
           s == "recursive_mutex" || s == "timed_mutex" ||
           s == "shared_timed_mutex";
}

bool isUnorderedType(const std::string &s)
{
    return s == "unordered_map" || s == "unordered_set" ||
           s == "unordered_multimap" || s == "unordered_multiset";
}

bool isLockType(const std::string &s)
{
    return s == "lock_guard" || s == "unique_lock" ||
           s == "scoped_lock" || s == "shared_lock";
}

bool isAccessLabel(const std::string &s)
{
    return s == "public" || s == "private" || s == "protected";
}

bool isInsertCall(const std::string &s)
{
    return s == "push_back" || s == "emplace_back" || s == "insert" ||
           s == "emplace" || s == "push_front" || s == "push" ||
           s == "assign";
}

class Scanner
{
  public:
    Scanner(const LexedFile &lexedFile, FileSummary &out,
            const std::set<std::string> &aliases)
        : lexed(lexedFile), sum(out), toks(lexedFile.tokens),
          functionAliases(aliases)
    {
    }

    void run();

  private:
    struct Scope {
        enum Kind { TU, Namespace, Class, Function, Block, Other };
        Kind kind = Block;
        std::string name;         ///< class name when kind == Class
        int funcIdx = -1;         ///< when kind == Function
        int blockId = 0;
        std::size_t locksAtOpen = 0;
        bool keepSlice = false;   ///< initializer brace: the pending
                                  ///< declaration continues after `}`
        std::size_t savedFragStart = 0;
    };

    struct PoolHandle {
        std::string pool;
        bool released = false;
        int releaseLine = 0;
        std::vector<int> releaseScope;
    };

    struct FuncState {
        int funcIdx = -1;
        int declLine = 0;
        std::map<std::string, int> varNodes;
        int retNode = -1;
        std::vector<int> scopePath;
        std::set<std::string> localUnordered;
        std::set<std::string> localVars;
        std::set<std::string> paramNames;
        std::set<std::string> poolVars;
        std::set<std::string> pooledRefs;
        std::map<std::string, PoolHandle> handles;
        /** lock-guard variable -> mutexes it holds (for g.unlock()). */
        std::map<std::string, std::vector<std::string>> guardVars;
        std::set<long long> reported;
    };

    // ---- token helpers --------------------------------------------
    const std::string &text(std::size_t i) const
    {
        static const std::string empty;
        return i < toks.size() ? toks[i].text : empty;
    }
    bool isIdent(std::size_t i) const
    {
        return i < toks.size() && toks[i].kind == TokKind::Identifier;
    }
    /** An identifier usable as a value name: not a keyword, not a
     *  member selector (`x.name`, except `this->name`), not part of a
     *  qualified path (`ns::name`, `name::member`). */
    bool okIdent(std::size_t i) const
    {
        if (!isIdent(i) || isKeyword(toks[i].text))
            return false;
        const std::string &prev = i > 0 ? text(i - 1) : text(toks.size());
        if (prev == "::" || prev == ".")
            return false;
        if (prev == ">" && i >= 2 && text(i - 2) == "-" &&
            !(i >= 3 && text(i - 3) == "this"))
            return false; // arrow access on another object
        if (text(i + 1) == "::")
            return false;
        return true;
    }
    std::size_t matchParen(std::size_t open, std::size_t limit) const
    {
        int depth = 0;
        for (std::size_t i = open; i < limit; ++i) {
            if (toks[i].kind != TokKind::Punct)
                continue;
            if (toks[i].text == "(")
                ++depth;
            else if (toks[i].text == ")" && --depth == 0)
                return i;
        }
        return limit;
    }

    // ---- scope machinery ------------------------------------------
    bool inFunction() const { return !funcStates.empty(); }
    FuncState &st() { return funcStates.back(); }
    FuncIndex &fn() { return sum.functions[st().funcIdx]; }

    void openBrace(std::size_t i);
    void closeBrace(std::size_t i);
    void onSemicolon(std::size_t i);
    void classify(std::size_t b, std::size_t e, Scope &s);
    bool classifyFunction(std::size_t b, std::size_t e, Scope &s);
    void beginFunction(const std::string &name,
                       const std::string &className, bool ctorDtor,
                       std::size_t sliceBegin, std::size_t paramOpen,
                       std::size_t paramClose, std::size_t braceIdx,
                       Scope &s);

    // ---- declaration-scope processing -----------------------------
    void processFieldDecl(std::size_t b, std::size_t e);

    // ---- function-body processing ---------------------------------
    void processFragment(std::size_t b, std::size_t e);
    void handleRangeFor(std::size_t b, std::size_t e);
    void handleLocks(std::size_t b, std::size_t e);
    void handleCalls(std::size_t b, std::size_t e);
    void handleAssignment(std::size_t b, std::size_t e,
                          std::size_t eqIdx);
    void handleDeclaration(std::size_t b, std::size_t e,
                           std::size_t eqIdx);
    void recordUseAndFacts(std::size_t i);
    void checkPoolUse(std::size_t i);

    int addNode(FlowKind kind, const std::string &name, int call,
                int arg, int line)
    {
        fn().nodes.push_back({kind, name, call, arg, line});
        return static_cast<int>(fn().nodes.size()) - 1;
    }
    int varNode(const std::string &name)
    {
        auto it = st().varNodes.find(name);
        if (it != st().varNodes.end())
            return it->second;
        int idx = addNode(FlowKind::Var, name, -1, -1, 0);
        st().varNodes[name] = idx;
        return idx;
    }
    int retNode()
    {
        if (st().retNode < 0)
            st().retNode = addNode(FlowKind::Ret, "", -1, -1, 0);
        return st().retNode;
    }
    void addEdge(int from, int to) { fn().edges.emplace_back(from, to); }
    std::vector<std::string> lockSnapshot() const
    {
        std::vector<std::string> out;
        for (const auto &name : locks) {
            if (std::find(out.begin(), out.end(), name) == out.end())
                out.push_back(name);
        }
        return out;
    }
    void reportPool(int line, const std::string &message)
    {
        if (lexed.allowed(kPoolLifetimeRule, line))
            return;
        sum.localFindings.push_back(
            {sum.path, line, kPoolLifetimeRule, message});
    }

    /** Mutex names annotated on any line in [first-1, last]. */
    std::vector<std::string> annotationsInRange(
        const std::map<int, std::vector<std::string>> &table, int first,
        int last) const
    {
        std::vector<std::string> out;
        for (int line = first - 1; line <= last; ++line) {
            auto it = table.find(line);
            if (it == table.end())
                continue;
            for (const auto &name : it->second) {
                if (std::find(out.begin(), out.end(), name) == out.end())
                    out.push_back(name);
            }
        }
        return out;
    }

    const LexedFile &lexed;
    FileSummary &sum;
    const std::vector<Token> &toks;
    const std::set<std::string> &functionAliases;

    std::vector<Scope> scopes;
    std::vector<int> parens; ///< paren depth per brace level
    std::vector<std::string> locks;
    std::vector<FuncState> funcStates;
    std::size_t fragStart = 0;
    int nextBlockId = 1;

    /** Call sites found in the fragment being processed. */
    struct FragCall {
        int callIdx;
        std::size_t open;  ///< index of the call's '('
        std::size_t close; ///< index of the matching ')'
        int retN;          ///< CallRet node
    };
    std::vector<FragCall> fragCalls;
    /** Receiver of a `.acquire()` seen in the current fragment; the
     *  assignment target becomes a tracked pool handle. */
    std::string fragAcquirePool;
};

void Scanner::run()
{
    scopes.push_back({});
    scopes.back().kind = Scope::TU;
    parens.push_back(0);

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind == TokKind::Punct) {
            if (t.text == "(") {
                ++parens.back();
            } else if (t.text == ")") {
                if (parens.back() > 0)
                    --parens.back();
            } else if (t.text == "{") {
                openBrace(i);
            } else if (t.text == "}") {
                closeBrace(i);
            } else if (t.text == ";" && parens.back() == 0) {
                onSemicolon(i);
            }
            continue;
        }
        if (!inFunction())
            continue;
        if (lexed.hot(t.line))
            fn().hotLex = true;
        if (t.kind == TokKind::Identifier) {
            recordUseAndFacts(i);
            checkPoolUse(i);
        }
    }
}

void Scanner::openBrace(std::size_t i)
{
    const Scope::Kind parent = scopes.back().kind;
    Scope s;
    s.blockId = nextBlockId++;
    s.locksAtOpen = locks.size();
    s.savedFragStart = fragStart;

    if (parent == Scope::TU || parent == Scope::Namespace ||
        parent == Scope::Class) {
        classify(fragStart, i, s);
    } else {
        s.kind = Scope::Block;
        if (inFunction())
            processFragment(fragStart, i);
    }

    scopes.push_back(s);
    parens.push_back(0);
    if (s.kind == Scope::Block && inFunction())
        st().scopePath.push_back(s.blockId);
    if (!s.keepSlice)
        fragStart = i + 1;
}

void Scanner::closeBrace(std::size_t i)
{
    if (scopes.size() <= 1) {
        fragStart = i + 1;
        return;
    }
    if (inFunction() && !scopes.back().keepSlice)
        processFragment(fragStart, i);

    const Scope s = scopes.back();
    scopes.pop_back();
    parens.pop_back();
    while (locks.size() > s.locksAtOpen)
        locks.pop_back();

    if (s.kind == Scope::Function) {
        sum.functions[s.funcIdx].endLine = toks[i].line;
        FuncIndex &f = sum.functions[s.funcIdx];
        for (int line : lexed.coldLines) {
            if (line >= funcStates.back().declLine - 1 &&
                line <= f.endLine) {
                f.cold = true;
                break;
            }
        }
        funcStates.pop_back();
        fragStart = i + 1;
    } else if (s.keepSlice) {
        // Initializer brace: the enclosing declaration continues.
        fragStart = s.savedFragStart;
    } else {
        if (s.kind == Scope::Block && inFunction() &&
            !st().scopePath.empty()) {
            st().scopePath.pop_back();
        }
        fragStart = i + 1;
    }
}

void Scanner::onSemicolon(std::size_t i)
{
    const Scope::Kind kind = scopes.back().kind;
    if (kind == Scope::Class)
        processFieldDecl(fragStart, i);
    else if (inFunction() &&
             (kind == Scope::Function || kind == Scope::Block))
        processFragment(fragStart, i);
    fragStart = i + 1;
}

void Scanner::classify(std::size_t b, std::size_t e, Scope &s)
{
    // Skip leading access labels ("public : ...").
    while (b + 1 < e && isAccessLabel(text(b)) && text(b + 1) == ":")
        b += 2;
    if (b >= e) {
        s.kind = Scope::Block;
        return;
    }

    if (text(b) == "namespace") {
        s.kind = Scope::Namespace;
        if (isIdent(b + 1))
            s.name = text(b + 1);
        return;
    }
    if (text(b) == "extern" && b + 1 < e &&
        toks[b + 1].kind == TokKind::String) {
        s.kind = Scope::Namespace; // extern "C" { ... } is transparent
        return;
    }

    // A top-level '=' before the brace means this is an initializer
    // (`Foo x = { ... }`), not a new named scope.
    int paren = 0;
    int brace = 0;
    bool topEq = false;
    std::size_t kwIdx = toks.size();
    for (std::size_t i = b; i < e; ++i) {
        const Token &t = toks[i];
        if (t.kind == TokKind::Punct) {
            if (t.text == "(")
                ++paren;
            else if (t.text == ")")
                --paren;
            else if (t.text == "{")
                ++brace;
            else if (t.text == "}")
                --brace;
            else if (t.text == "=" && paren == 0 && brace == 0 &&
                     text(i + 1) != "=" && (i == 0 || text(i - 1) != "=") &&
                     (i == 0 || text(i - 1) != "!") &&
                     (i == 0 || text(i - 1) != "<") &&
                     (i == 0 || text(i - 1) != ">"))
                topEq = true;
            continue;
        }
        if (paren != 0 || brace != 0 || kwIdx != toks.size())
            continue;
        const std::string &w = t.text;
        if (w == "class" || w == "struct" || w == "union" ||
            w == "enum") {
            // `template <class T>` parameters are not definitions.
            const std::string &prev = i > b ? text(i - 1) : "";
            if (prev != "<" && prev != ",")
                kwIdx = i;
        }
    }
    if (topEq) {
        s.kind = Scope::Other;
        s.keepSlice = true;
        return;
    }
    if (kwIdx != toks.size()) {
        if (text(kwIdx) == "enum" || text(kwIdx) == "union") {
            s.kind = Scope::Other;
            s.keepSlice = true;
            return;
        }
        // Find the definition name, skipping specifier groups such as
        // alignas(64).
        std::string name;
        for (std::size_t i = kwIdx + 1; i < e; ++i) {
            if (text(i) == "[") {
                while (i < e && text(i) != "]")
                    ++i;
                continue;
            }
            if (isIdent(i)) {
                if (text(i + 1) == "(") {
                    i = matchParen(i + 1, e);
                    continue;
                }
                if (text(i) == "final" || isKeyword(text(i)))
                    continue;
                name = text(i);
                break;
            }
            if (text(i) == ":")
                break; // base-clause: name was anonymous
        }
        s.kind = Scope::Class;
        s.name = name;
        return;
    }

    if (classifyFunction(b, e, s))
        return;

    s.kind = Scope::Other;
    s.keepSlice = true;
}

bool Scanner::classifyFunction(std::size_t b, std::size_t e, Scope &s)
{
    // Scan top-level paren groups; the parameter list of a function
    // definition is a group preceded by a plain identifier whose
    // trailer (up to the brace) contains only qualifiers, a trailing
    // return type, or a constructor init list.
    int brace = 0;
    for (std::size_t i = b; i < e; ++i) {
        if (toks[i].kind == TokKind::Punct) {
            if (toks[i].text == "{")
                ++brace;
            else if (toks[i].text == "}")
                --brace;
        }
        if (brace != 0 || text(i) != "(")
            continue;
        const std::size_t open = i;
        const std::size_t close = matchParen(open, e);
        if (close >= e) {
            i = close;
            continue;
        }

        // Candidate name immediately before the group.
        if (open == b || !isIdent(open - 1)) {
            i = close;
            continue;
        }
        const std::string name = text(open - 1);
        if (isKeyword(name) && name != "operator") {
            i = close;
            continue;
        }
        if (open >= 2 && text(open - 2) == "operator") {
            i = close;
            continue;
        }
        if (name == "operator") {
            i = close;
            continue;
        }

        // Trailer check.
        bool ok = true;
        bool sawColon = false;
        for (std::size_t j = close + 1; j < e && ok; ++j) {
            const Token &t = toks[j];
            if (t.text == "(") {
                j = matchParen(j, e);
                continue;
            }
            if (t.text == ":" && text(j + 1) != ":") {
                sawColon = true;
                continue;
            }
            if (sawColon)
                continue;
            if (t.kind == TokKind::Identifier || t.kind == TokKind::Number)
                continue;
            if (t.text == "::" || t.text == "<" || t.text == ">" ||
                t.text == "-" || t.text == "&" || t.text == "*" ||
                t.text == "," || t.text == "[" || t.text == "]" ||
                t.text == "{" || t.text == "}")
                continue;
            ok = false;
        }
        if (!ok) {
            i = close;
            continue;
        }
        // A member brace-init inside a ctor init list (`: n{0} {`)
        // would put an identifier, not ')', right before the brace.
        if (sawColon && e > b && text(e - 1) != ")" &&
            text(e - 1) != "}") {
            s.kind = Scope::Other;
            s.keepSlice = true;
            return true;
        }

        std::string className;
        bool ctorDtor = false;
        if (open >= 3 && text(open - 2) == "::" && isIdent(open - 3))
            className = text(open - 3);
        if (open >= 2 && text(open - 2) == "~")
            ctorDtor = true;
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
            if (it->kind == Scope::Class) {
                if (className.empty())
                    className = it->name;
                break;
            }
            if (it->kind == Scope::Function)
                break;
        }
        if (!className.empty() && name == className)
            ctorDtor = true;

        beginFunction(name, className, ctorDtor, b, open, close, e, s);
        return true;
    }
    return false;
}

void Scanner::beginFunction(const std::string &name,
                            const std::string &className, bool ctorDtor,
                            std::size_t sliceBegin, std::size_t paramOpen,
                            std::size_t paramClose, std::size_t braceIdx,
                            Scope &s)
{
    FuncIndex f;
    f.name = name;
    f.className = className;
    f.isCtorDtor = ctorDtor;
    f.line = toks[braceIdx].line;
    f.requiresMutex = annotationsInRange(
        lexed.requiresLock, toks[sliceBegin].line, toks[braceIdx].line);

    s.kind = Scope::Function;
    s.funcIdx = static_cast<int>(sum.functions.size());
    sum.functions.push_back(std::move(f));

    FuncState state;
    state.funcIdx = s.funcIdx;
    state.declLine = toks[sliceBegin].line;
    funcStates.push_back(std::move(state));

    // Parameters: split the group on top-level commas; each param's
    // value name is its last plain identifier (before any default).
    int position = 0;
    std::size_t argBegin = paramOpen + 1;
    int depth = 0;
    for (std::size_t i = paramOpen + 1; i <= paramClose; ++i) {
        const bool last = i == paramClose;
        if (!last && toks[i].kind == TokKind::Punct) {
            if (toks[i].text == "(" || toks[i].text == "<")
                ++depth;
            else if (toks[i].text == ")" || toks[i].text == ">")
                --depth;
        }
        if (!last && !(toks[i].text == "," && depth <= 0))
            continue;
        const std::size_t argEnd = i;
        if (argEnd > argBegin) {
            std::string pname;
            bool unordered = false;
            for (std::size_t j = argBegin; j < argEnd; ++j) {
                if (text(j) == "=")
                    break;
                if (isUnorderedType(text(j)))
                    unordered = true;
                if (okIdent(j))
                    pname = text(j);
            }
            const int in =
                addNode(FlowKind::ParamIn, pname, -1, position, 0);
            const int out =
                addNode(FlowKind::ParamOut, pname, -1, position, 0);
            if (!pname.empty()) {
                st().paramNames.insert(pname);
                const int var = varNode(pname);
                addEdge(in, var);
                addEdge(var, out);
                if (unordered) {
                    const int seed =
                        addNode(FlowKind::Seed, pname, -1, -1,
                                toks[argBegin].line);
                    addEdge(seed, var);
                    st().localUnordered.insert(pname);
                }
            }
            ++position;
        }
        argBegin = i + 1;
    }
}

void Scanner::processFieldDecl(std::size_t b, std::size_t e)
{
    while (b + 1 < e && isAccessLabel(text(b)) && text(b + 1) == ":")
        b += 2;
    if (b >= e)
        return;
    const std::string &first = text(b);
    if (first == "using" || first == "typedef" || first == "friend" ||
        first == "template" || first == "static_assert")
        return;

    // Reject anything with top-level parens (method declarations,
    // function pointers) or a nested type definition, and find where
    // the declarator ends (initializer or bitfield).
    int paren = 0;
    int brace = 0;
    std::size_t limit = e;
    for (std::size_t i = b; i < e; ++i) {
        const Token &t = toks[i];
        if (t.kind == TokKind::Punct) {
            if (t.text == "(") {
                if (paren == 0 && brace == 0)
                    return;
                ++paren;
            } else if (t.text == ")") {
                --paren;
            } else if (t.text == "{") {
                if (paren == 0 && brace == 0 && limit == e)
                    limit = i;
                ++brace;
            } else if (t.text == "}") {
                --brace;
            } else if (paren == 0 && brace == 0 && limit == e &&
                       (t.text == "=" || t.text == ":")) {
                limit = i;
            }
        } else if (paren == 0 && brace == 0 &&
                   (t.text == "class" || t.text == "struct" ||
                    t.text == "enum" || t.text == "union")) {
            return;
        }
    }

    std::string name;
    bool isMutex = false;
    bool isUnordered = false;
    for (std::size_t i = b; i < limit; ++i) {
        if (isMutexType(text(i)) && !okIdent(i))
            isMutex = true;
        if (isUnorderedType(text(i)))
            isUnordered = true;
        if (okIdent(i))
            name = text(i);
    }
    if (name.empty())
        return;
    // `std::mutex mutex;` names the member after the type; the type
    // token is "::"-qualified, so the surviving okIdent is the member.
    if (isMutexType(name) && !isMutex)
        isMutex = true;

    FieldIndex field;
    field.name = name;
    field.line = toks[b].line;
    field.isMutex = isMutex;
    field.isUnordered = isUnordered;
    field.guardedBy = annotationsInRange(lexed.guardedBy, toks[b].line,
                                         toks[e < toks.size() ? e : e - 1]
                                             .line);
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
        if (it->kind == Scope::Class) {
            field.className = it->name;
            break;
        }
    }
    sum.fields.push_back(std::move(field));
}

void Scanner::processFragment(std::size_t b, std::size_t e)
{
    if (b >= e || !inFunction())
        return;
    const std::string &first = text(b);
    if (first == "case" || first == "default" || isAccessLabel(first) ||
        first == "using" || first == "typedef" ||
        first == "template" || first == "friend")
        return;

    handleLocks(b, e);
    if (first == "for")
        handleRangeFor(b, e);

    fragCalls.clear();
    fragAcquirePool.clear();
    handleCalls(b, e);

    // Locate a top-level assignment ('=' outside parens/braces, not
    // part of a comparison; compound ops like += qualify).
    std::size_t eqIdx = toks.size();
    std::size_t returnIdx = toks.size();
    int paren = 0;
    int brace = 0;
    for (std::size_t i = b; i < e; ++i) {
        const Token &t = toks[i];
        if (t.kind == TokKind::Identifier) {
            if (t.text == "return" && paren == 0 && brace == 0 &&
                returnIdx == toks.size())
                returnIdx = i;
            continue;
        }
        if (t.kind != TokKind::Punct)
            continue;
        if (t.text == "(")
            ++paren;
        else if (t.text == ")")
            --paren;
        else if (t.text == "{")
            ++brace;
        else if (t.text == "}")
            --brace;
        else if (t.text == "=" && paren == 0 && brace == 0 &&
                 eqIdx == toks.size()) {
            const std::string &prev = i > b ? text(i - 1) : "";
            if (text(i + 1) != "=" && prev != "=" && prev != "!" &&
                prev != "<" && prev != ">")
                eqIdx = i;
        }
    }

    handleDeclaration(b, e, eqIdx);
    if (eqIdx != toks.size())
        handleAssignment(b, e, eqIdx);

    if (returnIdx != toks.size()) {
        for (std::size_t i = returnIdx + 1; i < e; ++i) {
            if (okIdent(i))
                addEdge(varNode(text(i)), retNode());
        }
        for (const auto &fc : fragCalls) {
            if (fc.open > returnIdx)
                addEdge(fc.retN, retNode());
        }
    }
}

void Scanner::handleRangeFor(std::size_t b, std::size_t e)
{
    std::size_t open = b;
    while (open < e && text(open) != "(")
        ++open;
    if (open >= e)
        return;
    const std::size_t close = matchParen(open, e);
    int depth = 0;
    std::size_t colon = e;
    for (std::size_t i = open + 1; i < close; ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Punct)
            continue;
        if (t.text == "(")
            ++depth;
        else if (t.text == ")")
            --depth;
        else if (t.text == "?" && depth == 0)
            return; // ternary, not a range-for
        else if (t.text == ":" && depth == 0) {
            colon = i;
            break;
        }
    }
    if (colon >= e)
        return;
    std::string loopVar;
    for (std::size_t i = open + 1; i < colon; ++i) {
        if (okIdent(i))
            loopVar = text(i);
    }
    if (loopVar.empty())
        return;
    st().localVars.insert(loopVar);
    const int lv = varNode(loopVar);
    for (std::size_t i = colon + 1; i < close; ++i) {
        if (okIdent(i))
            addEdge(varNode(text(i)), lv);
    }
}

void Scanner::handleLocks(std::size_t b, std::size_t e)
{
    for (std::size_t i = b; i < e; ++i) {
        if (!isIdent(i))
            continue;
        const std::string &w = toks[i].text;
        if (isLockType(w)) {
            std::size_t open = i + 1;
            while (open < e && text(open) != "(")
                ++open;
            if (open >= e)
                continue;
            const std::size_t close = matchParen(open, e);
            std::string guardVar;
            if (isIdent(open - 1) && !isKeyword(text(open - 1)))
                guardVar = text(open - 1);
            std::vector<std::string> names;
            std::string last;
            int depth = 0;
            for (std::size_t j = open + 1; j <= close && j < e; ++j) {
                const bool end = j == close;
                if (!end && toks[j].kind == TokKind::Punct) {
                    if (toks[j].text == "(")
                        ++depth;
                    else if (toks[j].text == ")")
                        --depth;
                }
                if (end || (toks[j].text == "," && depth == 0)) {
                    if (!last.empty())
                        names.push_back(last);
                    last.clear();
                    continue;
                }
                if (okIdent(j))
                    last = text(j);
            }
            for (const auto &name : names)
                locks.push_back(name);
            if (!guardVar.empty() && !names.empty())
                st().guardVars[guardVar] = names;
            i = close;
            continue;
        }
        if ((w == "lock" || w == "unlock") && i >= 2 &&
            text(i - 1) == "." && text(i + 1) == "(" &&
            isIdent(i - 2)) {
            const std::string base = text(i - 2);
            std::vector<std::string> names;
            auto gv = st().guardVars.find(base);
            if (gv != st().guardVars.end())
                names = gv->second;
            else
                names.push_back(base);
            if (w == "lock") {
                for (const auto &name : names)
                    locks.push_back(name);
            } else {
                for (const auto &name : names) {
                    auto it =
                        std::find(locks.rbegin(), locks.rend(), name);
                    if (it != locks.rend())
                        locks.erase(std::next(it).base());
                }
            }
        }
    }
}

void Scanner::handleCalls(std::size_t b, std::size_t e)
{
    for (std::size_t i = b; i < e; ++i) {
        if (!isIdent(i) || isKeyword(toks[i].text))
            continue;
        if (text(i + 1) != "(")
            continue;
        const std::string &prev = i > b ? text(i - 1) : "";
        std::string qualifier;
        std::string receiver;
        if (prev == "::") {
            if (i >= 2 && isIdent(i - 2))
                qualifier = text(i - 2);
            if (qualifier == "std")
                continue; // std:: calls: flow runs through args anyway
        } else if (prev == ".") {
            if (i >= 2 && isIdent(i - 2) && text(i - 2) != "this")
                receiver = text(i - 2);
        } else if (prev == ">" && i >= 2 && text(i - 2) == "-") {
            if (i >= 3 && isIdent(i - 3) && text(i - 3) != "this")
                receiver = text(i - 3);
        }
        // `probe(...)` where `probe` is a local or a parameter is a
        // call through a functor value, not of a function named
        // `probe`; resolving it by name would invent call edges.
        if (qualifier.empty() && receiver.empty() &&
            (st().localVars.count(toks[i].text) != 0 ||
             st().paramNames.count(toks[i].text) != 0))
            continue;
        const std::size_t close = matchParen(i + 1, e);

        CallInfo call;
        call.callee = toks[i].text;
        call.qualifier = qualifier;
        call.receiver = receiver;
        call.line = toks[i].line;
        call.heldLocks = lockSnapshot();
        const int callIdx = static_cast<int>(fn().calls.size());
        fn().calls.push_back(std::move(call));
        const int retN = addNode(FlowKind::CallRet, toks[i].text,
                                 callIdx, -1, toks[i].line);
        fragCalls.push_back({callIdx, i + 1, close, retN});
    }

    for (const auto &fc : fragCalls) {
        CallInfo &call = fn().calls[fc.callIdx];
        const int line = call.line;
        int position = 0;
        std::size_t argBegin = fc.open + 1;
        int depth = 0;
        int brace = 0;
        for (std::size_t i = fc.open + 1;
             i <= fc.close && i < toks.size(); ++i) {
            const bool last = i == fc.close;
            if (!last && toks[i].kind == TokKind::Punct) {
                if (toks[i].text == "(")
                    ++depth;
                else if (toks[i].text == ")")
                    --depth;
                else if (toks[i].text == "{")
                    ++brace;
                else if (toks[i].text == "}")
                    --brace;
            }
            if (!last &&
                !(toks[i].text == "," && depth == 0 && brace == 0))
                continue;
            const std::size_t argEnd = i;
            if (argEnd > argBegin) {
                const int argN = addNode(FlowKind::CallArg, "",
                                         fc.callIdx, position, line);
                std::string base;
                for (std::size_t j = argBegin; j < argEnd; ++j) {
                    if (okIdent(j)) {
                        addEdge(varNode(text(j)), argN);
                        if (base.empty())
                            base = text(j);
                    }
                }
                for (const auto &other : fragCalls) {
                    if (other.callIdx != fc.callIdx &&
                        other.open > argBegin && other.open < argEnd)
                        addEdge(other.retN, argN);
                }
                if (!call.receiver.empty())
                    addEdge(argN, varNode(call.receiver));
                if (!base.empty()) {
                    const int outN =
                        addNode(FlowKind::CallArgOut, "", fc.callIdx,
                                position, line);
                    addEdge(outN, varNode(base));
                }
                ++position;
            }
            argBegin = i + 1;
        }
        call.args = position;

        // Pool lifetime events.
        if (call.callee == "acquire" && !call.receiver.empty()) {
            st().poolVars.insert(call.receiver);
            fragAcquirePool = call.receiver;
        }
        if ((call.callee == "release" || call.callee == "recycle") &&
            !call.receiver.empty()) {
            std::string handle;
            int d2 = 0;
            for (std::size_t j = fc.open + 1; j < fc.close; ++j) {
                if (toks[j].kind == TokKind::Punct) {
                    if (toks[j].text == "(")
                        ++d2;
                    else if (toks[j].text == ")")
                        --d2;
                    else if (toks[j].text == "," && d2 == 0)
                        break;
                }
                if (okIdent(j))
                    handle = text(j);
            }
            if (!handle.empty()) {
                PoolHandle &h = st().handles[handle];
                if (h.pool.empty())
                    h.pool = call.receiver;
                h.released = true;
                h.releaseLine = line;
                h.releaseScope = st().scopePath;
            }
        }
        if (isInsertCall(call.callee) && !call.receiver.empty() &&
            st().localVars.count(call.receiver) == 0) {
            bool pooled = false;
            std::string what;
            for (std::size_t j = fc.open + 1; j < fc.close; ++j) {
                if (okIdent(j) &&
                    st().pooledRefs.count(text(j)) != 0) {
                    pooled = true;
                    what = text(j);
                    break;
                }
                if (isIdent(j) && text(j + 1) == "." &&
                    text(j + 2) == "get" && text(j + 3) == "(" &&
                    st().poolVars.count(text(j)) != 0) {
                    pooled = true;
                    what = text(j) + ".get(...)";
                    break;
                }
            }
            if (pooled) {
                reportPool(line,
                           "pooled reference '" + what +
                               "' escapes into '" + call.receiver +
                               "', which outlives the pool handle; "
                               "copy the value or keep the container "
                               "local");
            }
        }
    }
}

void Scanner::handleAssignment(std::size_t b, std::size_t e,
                               std::size_t eqIdx)
{
    bool hasBracket = false;
    std::vector<std::size_t> cands;
    int paren = 0;
    int brace = 0;
    for (std::size_t i = b; i < eqIdx; ++i) {
        const Token &t = toks[i];
        if (t.kind == TokKind::Punct) {
            if (t.text == "(")
                ++paren;
            else if (t.text == ")")
                --paren;
            else if (t.text == "{")
                ++brace;
            else if (t.text == "}")
                --brace;
            else if (t.text == "[" && paren == 0 && brace == 0)
                hasBracket = true;
            continue;
        }
        if (paren == 0 && brace == 0 && okIdent(i))
            cands.push_back(i);
    }
    if (cands.empty())
        return;
    const std::string target =
        text(hasBracket ? cands.front() : cands.back());
    const int tgt = varNode(target);
    for (std::size_t i = eqIdx + 1; i < e; ++i) {
        if (okIdent(i))
            addEdge(varNode(text(i)), tgt);
    }
    for (const auto &fc : fragCalls) {
        if (fc.open > eqIdx)
            addEdge(fc.retN, tgt);
    }
    if (!fragAcquirePool.empty()) {
        // `h = pool.acquire(...)` (re)arms the handle.
        PoolHandle fresh;
        fresh.pool = fragAcquirePool;
        st().handles[target] = fresh;
        fragAcquirePool.clear();
    } else {
        // Any other overwrite discards the released index; the old
        // handle value is gone, so stop tracking it.
        st().handles.erase(target);
    }
    // `auto &r = pool.get(h)`: r aliases pooled storage.
    for (std::size_t i = eqIdx + 1; i + 3 < e; ++i) {
        if (isIdent(i) && text(i + 1) == "." &&
            text(i + 2) == "get" && text(i + 3) == "(" &&
            st().poolVars.count(text(i)) != 0) {
            st().pooledRefs.insert(target);
            break;
        }
    }
}

void Scanner::handleDeclaration(std::size_t b, std::size_t e,
                                std::size_t eqIdx)
{
    const std::size_t end = eqIdx != toks.size() ? eqIdx : e;
    int paren = 0;
    int brace = 0;
    std::size_t identCount = 0;
    std::vector<std::size_t> cands;
    bool typeish = false;
    for (std::size_t i = b; i < end; ++i) {
        const Token &t = toks[i];
        if (t.kind == TokKind::Punct) {
            if (t.text == "(")
                ++paren;
            else if (t.text == ")")
                --paren;
            else if (t.text == "{")
                ++brace;
            else if (t.text == "}")
                --brace;
            else if (paren == 0 && brace == 0) {
                if (t.text == "." || t.text == "(")
                    return; // member access / call: not a declaration
                if (t.text == ">" && i > b && text(i - 1) == "-")
                    return;
                if (t.text == "<" || t.text == "::")
                    typeish = true;
            }
            continue;
        }
        if (paren == 0 && brace == 0 && t.kind == TokKind::Identifier) {
            ++identCount;
            if (isKeyword(t.text) && t.text != "this")
                typeish = true;
            if (okIdent(i))
                cands.push_back(i);
        }
    }
    if (cands.empty() || (identCount < 2 && !typeish))
        return;
    if (paren != 0)
        return; // fragment cut mid-parens (e.g. lambda argument)

    const std::string name = text(cands.back());
    st().localVars.insert(name);

    bool unordered = false;
    bool mutexType = false;
    bool poolType = false;
    for (std::size_t i = b; i < end; ++i) {
        const std::string &w = text(i);
        if (isUnorderedType(w))
            unordered = true;
        if (isMutexType(w) && !okIdent(i))
            mutexType = true;
        if ((w == "Pool" || w == "RawPool") && !okIdent(i))
            poolType = true;
    }
    if (unordered) {
        st().localUnordered.insert(name);
        const int seed =
            addNode(FlowKind::Seed, name, -1, -1, toks[b].line);
        addEdge(seed, varNode(name));
    }
    if (mutexType)
        fn().localMutexes.push_back(name);
    if (poolType)
        st().poolVars.insert(name);

    const std::vector<std::string> guards = annotationsInRange(
        lexed.guardedBy, toks[b].line, toks[e < toks.size() ? e : e - 1]
                                           .line);
    if (!guards.empty())
        fn().guardedLocals.push_back({name, toks[b].line, guards});
}

void Scanner::recordUseAndFacts(std::size_t i)
{
    const Token &t = toks[i];
    HotPathHit hit = classifyHotPath(toks, i, functionAliases);
    if (hit.rule != nullptr)
        fn().facts.push_back(
            {hit.rule, std::move(hit.token), t.line, lexed.hot(t.line)});

    if (okIdent(i))
        fn().uses.push_back({t.text, t.line, lockSnapshot()});
}

void Scanner::checkPoolUse(std::size_t i)
{
    auto it = st().handles.find(toks[i].text);
    if (it == st().handles.end() || !it->second.released)
        return;
    // `h = ...` overwrites the released value rather than using it
    // (the fragment pass then rearms or drops the handle). `=` is a
    // single-char token, so this also skips benign `h == x` compares.
    if (text(i + 1) == "=")
        return;
    const PoolHandle &h = it->second;
    if (toks[i].line < h.releaseLine)
        return;
    if (h.releaseScope.size() > st().scopePath.size())
        return;
    if (!std::equal(h.releaseScope.begin(), h.releaseScope.end(),
                    st().scopePath.begin()))
        return;
    const long long key =
        static_cast<long long>(toks[i].line) * 1000003 +
        static_cast<long long>(it->first.size());
    if (!st().reported.insert(key).second)
        return;
    reportPool(toks[i].line,
               "pool handle '" + it->first + "' of '" + h.pool +
                   "' used after release on line " +
                   std::to_string(h.releaseLine) +
                   "; reacquire before reuse");
}

} // namespace

HotPathHit classifyHotPath(const std::vector<Token> &toks, std::size_t i,
                           const std::set<std::string> &functionAliases)
{
    static const std::string none;
    const auto text = [&](std::size_t k) -> const std::string & {
        return k < toks.size() ? toks[k].text : none;
    };
    const auto isIdent = [&](std::size_t k) {
        return k < toks.size() && toks[k].kind == TokKind::Identifier;
    };
    const std::string &t = toks[i].text;
    const std::string &prev = i > 0 ? text(i - 1) : none;
    const std::string &next = text(i + 1);
    const bool stdQualified =
        prev == "::" && i >= 2 && isIdent(i - 2) && text(i - 2) == "std";

    if (t == "function" && stdQualified)
        return {"hot-path-no-function", "std::function"};
    // An alias names std::function everywhere but its own declaration.
    if (functionAliases.count(t) != 0 && prev != "using" && next != "=")
        return {"hot-path-no-function", t};
    // `new (place) T` is placement syntax and does not allocate.
    if (t == "new" && prev != "operator" && next != "(")
        return {"hot-path-no-alloc", "new"};
    if (t == "make_unique" || t == "make_shared")
        return {"hot-path-no-alloc", t};
    // References, pointers, nested-name uses and template arguments do
    // not construct; declarations, temporaries and brace-inits do.
    if (t == "string" && stdQualified &&
        (next == "(" || next == "{" || isIdent(i + 1)))
        return {"hot-path-no-string", "std::string"};
    if ((t == "to_string" && stdQualified) || t == "strprintf")
        return {"hot-path-no-string", t};
    if (t == "throw")
        return {"hot-path-no-throw", "throw"};
    return {};
}

void collectFunctionAliases(const std::vector<Token> &toks,
                            std::set<std::string> &out)
{
    const auto at = [&](std::size_t k, const char *s) {
        return k < toks.size() && toks[k].text == s;
    };
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (at(i, "using") && toks[i + 1].kind == TokKind::Identifier &&
            at(i + 2, "=") && at(i + 3, "std") && at(i + 4, "::") &&
            at(i + 5, "function"))
            out.insert(toks[i + 1].text);
    }
}

void indexSymbols(const LexedFile &lexed, FileSummary &summary,
                  const std::set<std::string> &functionAliases)
{
    Scanner scanner(lexed, summary, functionAliases);
    scanner.run();
}

} // namespace tmlint
} // namespace treadmill
