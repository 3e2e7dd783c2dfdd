#include "lint.h"

#include <algorithm>
#include <utility>

#include "callgraph.h"
#include "flow.h"
#include "symbols.h"
#include "util/strings.h"

namespace treadmill {
namespace tmlint {

namespace {

bool
hasPrefix(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
pathAllowed(const std::string &path,
            const std::vector<std::string> &prefixes)
{
    for (const auto &p : prefixes) {
        if (hasPrefix(path, p))
            return true;
    }
    return false;
}

/** Identifiers that read the wall clock or an external time source. */
bool
isClockIdent(const std::string &id)
{
    return id == "system_clock" || id == "steady_clock" ||
           id == "high_resolution_clock" || id == "gettimeofday" ||
           id == "clock_gettime" || id == "timespec_get" ||
           id == "localtime" || id == "gmtime" || id == "strftime" ||
           id == "utc_clock" || id == "file_clock";
}

/** Identifiers that draw entropy from outside the seeded Rng tree. */
bool
isEntropyIdent(const std::string &id)
{
    return id == "random_device" || id == "srand" ||
           id == "default_random_engine" || id == "getentropy" ||
           id == "getrandom" || id == "__DATE__" || id == "__TIME__" ||
           id == "__TIMESTAMP__";
}

/** Standard engines that are deterministic only if explicitly seeded. */
bool
isEngineIdent(const std::string &id)
{
    return id == "mt19937" || id == "mt19937_64" ||
           id == "minstd_rand" || id == "minstd_rand0" ||
           id == "ranlux24" || id == "ranlux48" || id == "knuth_b";
}

bool
isUnorderedIdent(const std::string &id)
{
    return id == "unordered_map" || id == "unordered_set" ||
           id == "unordered_multimap" || id == "unordered_multiset";
}

/** The lexical finding message of a classifyHotPath() hit. */
std::string
hotPathMessage(const HotPathHit &hit)
{
    const std::string rule = hit.rule;
    if (rule == "hot-path-no-function") {
        return (hit.token == "std::function"
                    ? std::string("std::function")
                    : "'" + hit.token + "' aliases std::function, which") +
               " allocates and indirect-calls on the steady-state path; "
               "use util::InlineFunction";
    }
    if (rule == "hot-path-no-alloc") {
        return (hit.token == "new" ? std::string("'new' on")
                                   : "'" + hit.token + "' allocates on") +
               " the steady-state path; recycle through util::Pool / "
               "util::RawPool instead";
    }
    if (rule == "hot-path-no-string") {
        return hit.token == "std::string"
                   ? "std::string construction on the steady-state path; "
                     "keep keys/payloads pooled or preallocated"
                   : "'" + hit.token +
                         "' builds a std::string on the steady-state "
                         "path; format at report time instead";
    }
    return "throwing on the steady-state path; validate configuration "
           "at setup time (ConfigError belongs in constructors)";
}

} // namespace

std::string
normalizeRepoPath(const std::string &path)
{
    std::string p = path;
    std::replace(p.begin(), p.end(), '\\', '/');

    // Split into components and restart at the last recognized root,
    // so "/home/ci/repo/src/core/client.cc" matches "src/core/...".
    const std::vector<std::string> parts = split(p, '/');
    std::size_t start = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
        const std::string &c = parts[i];
        if (c == "src" || c == "tools" || c == "bench" || c == "tests" ||
            c == "examples") {
            start = i;
        }
    }
    if (start == parts.size())
        return p;
    std::string out;
    for (std::size_t i = start; i < parts.size(); ++i) {
        if (!out.empty())
            out += '/';
        out += parts[i];
    }
    return out;
}

std::string
moduleOfPath(const std::string &path)
{
    const std::vector<std::string> parts = split(path, '/');
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
        if (parts[i] == "src")
            return parts[i + 1];
    }
    return "";
}

std::string
formatFinding(const Finding &f)
{
    return strprintf("%s:%d: [%s] %s", f.file.c_str(), f.line,
                     f.rule.c_str(), f.message.c_str());
}

Linter::Linter(Config config) : cfg(std::move(config)) {}

void
Linter::report(FileSummary &sum, const LexedFile &lexed, int line,
               const std::string &rule, const std::string &message)
{
    if (!cfg.ruleEnabled(rule))
        return;
    if (lexed.allowed(rule, line))
        return;
    sum.localFindings.push_back({sum.path, line, rule, message});
}

void
Linter::lintFile(const std::string &path, const std::string &content)
{
    ++filesSeen;
    lexedFiles.push_back(
        {normalizeRepoPath(path), lex(content, knownRules())});
    collectFunctionAliases(lexedFiles.back().lexed.tokens, functionAliases);
}

void
Linter::summarize(const std::string &path, const LexedFile &lexed)
{
    FileSummary sum;
    sum.path = path;
    sum.module = moduleOfPath(path);
    sum.lineAllows = lexed.lineAllows;
    sum.fileAllows = lexed.fileAllows;

    for (const auto &err : lexed.directiveErrors)
        report(sum, lexed, err.line, "tmlint-directive", err.message);

    checkTokens(sum, lexed);
    checkIncludes(sum, lexed);
    indexSymbols(lexed, sum, functionAliases);
    summaries.push_back(std::move(sum));
}

void
Linter::checkTokens(FileSummary &sum, const LexedFile &lexed)
{
    const std::string &path = sum.path;
    const std::string &module = sum.module;
    const bool clockExempt = pathAllowed(path, cfg.wallclockAllow);
    const bool entropyExempt = pathAllowed(path, cfg.entropyAllow);
    const bool exportModule =
        cfg.exportModules.find(module) != cfg.exportModules.end();

    const std::vector<Token> &toks = lexed.tokens;
    const auto text = [&](std::size_t i) -> const std::string & {
        static const std::string empty;
        return i < toks.size() ? toks[i].text : empty;
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier)
            continue;
        const bool hot = lexed.hot(t.line);
        const std::string &prev = i > 0 ? text(i - 1) : text(toks.size());
        const std::string &next = text(i + 1);

        // ---- determinism: wall-clock reads ------------------------
        if (!clockExempt && isClockIdent(t.text)) {
            report(sum, lexed, t.line, "no-wallclock",
                   "'" + t.text +
                       "' reads host time; simulator code must derive "
                       "time from sim::Simulation::now()");
        }
        if (!clockExempt && (t.text == "time" || t.text == "clock") &&
            next == "(" && prev != "." && prev != "->") {
            // Member calls like sim.time() are fine; ::time(nullptr)
            // and std::time are not. Unqualified uses are only
            // flagged when the argument shape matches the libc call
            // (nullptr/NULL/0/&tv or empty), so a method *named* time
            // does not false-positive.
            const bool qualifiedStd =
                prev == "::" &&
                (i < 2 || toks[i - 2].kind != TokKind::Identifier ||
                 text(i - 2) == "std");
            const std::string &arg = text(i + 2);
            const bool libcShape = arg == "nullptr" || arg == "NULL" ||
                                   arg == "0" || arg == ")" ||
                                   arg == "&";
            if ((prev == "::" && qualifiedStd) ||
                (prev != "::" && libcShape)) {
                report(sum, lexed, t.line, "no-wallclock",
                       "'" + t.text +
                           "()' reads host time; use the simulated "
                           "clock instead");
            }
        }

        // ---- determinism: ambient entropy -------------------------
        if (!entropyExempt && isEntropyIdent(t.text)) {
            report(sum, lexed, t.line, "no-ambient-entropy",
                   "'" + t.text +
                       "' injects nondeterminism; derive randomness "
                       "from a seeded util::Rng substream");
        }
        if (!entropyExempt && t.text == "rand" && next == "(" &&
            prev != "." && prev != "->") {
            // Same shape test as time(): `rand()` / `std::rand()` are
            // the libc call; `long rand(long r)` is a declaration.
            const bool qualifiedStd =
                prev == "::" &&
                (i < 2 || toks[i - 2].kind != TokKind::Identifier ||
                 text(i - 2) == "std");
            const bool callShape = text(i + 2) == ")";
            if ((prev == "::" && qualifiedStd) ||
                (prev != "::" && callShape)) {
                report(sum, lexed, t.line, "no-ambient-entropy",
                       "'rand()' is seeded by global state; use a "
                       "seeded util::Rng substream");
            }
        }

        // ---- determinism: default-seeded engines ------------------
        if (!entropyExempt && isEngineIdent(t.text) &&
            i + 1 < toks.size() &&
            toks[i + 1].kind == TokKind::Identifier) {
            const std::string &after = text(i + 2);
            const bool defaultSeeded =
                after == ";" || (after == "{" && text(i + 3) == "}");
            if (defaultSeeded) {
                report(sum, lexed, t.line, "no-default-seed",
                       "'std::" + t.text + " " + text(i + 1) +
                           "' is default-seeded and thus identical in "
                           "every run but divergent across standard "
                           "libraries; seed it explicitly");
            }
        }

        // ---- determinism hazard: unordered containers -------------
        if (exportModule && isUnorderedIdent(t.text)) {
            report(sum, lexed, t.line, "no-unordered-in-export",
                   "'" + t.text + "' in module '" + module +
                       "' feeds exported results; iteration order is "
                       "implementation-defined -- use std::map, a "
                       "sorted vector, or util::FlatU64Map with an "
                       "explicit sort before emit");
        }

        // ---- hot-path hygiene -------------------------------------
        if (!hot)
            continue;

        const HotPathHit hit = classifyHotPath(toks, i, functionAliases);
        if (hit.rule != nullptr)
            report(sum, lexed, t.line, hit.rule, hotPathMessage(hit));
    }
}

void
Linter::checkIncludes(FileSummary &sum, const LexedFile &lexed)
{
    const std::string &module = sum.module;
    if (module.empty())
        return;

    // Even the *include* of an unordered container is banned in the
    // export-facing modules; the usual identifier pass never sees the
    // target of an #include line.
    const bool exportModule =
        cfg.exportModules.find(module) != cfg.exportModules.end();
    for (const auto &inc : lexed.includes) {
        if (exportModule && !inc.quoted &&
            (inc.target == "unordered_map" ||
             inc.target == "unordered_set")) {
            report(sum, lexed, inc.line, "no-unordered-in-export",
                   "#include <" + inc.target + "> in module '" + module +
                       "': iteration order can leak into exported "
                       "results");
        }
    }

    if (cfg.layering.find(module) == cfg.layering.end())
        return;
    const std::vector<std::string> &allowed = cfg.layering.at(module);

    for (const auto &inc : lexed.includes) {
        if (!inc.quoted)
            continue; // system headers carry no layering information
        const std::vector<std::string> parts = split(inc.target, '/');
        if (parts.size() < 2)
            continue; // not a module-qualified include
        const std::string &to = parts[0];
        if (to == module)
            continue; // intra-module includes are always fine
        if (cfg.layering.find(to) == cfg.layering.end())
            continue; // not one of ours

        // Record the observed edge for the whole-graph cycle check.
        sum.moduleIncludes.emplace_back(to, inc.line);

        if (std::find(allowed.begin(), allowed.end(), to) ==
            allowed.end()) {
            report(sum, lexed, inc.line, "layering",
                   "module '" + module + "' may not include '" +
                       inc.target + "': allowed dependencies are {" +
                       join(allowed, ", ") +
                       "} (see tools/tmlint/tmlint.json)");
        }
    }
}

std::vector<Finding>
Linter::finish()
{
    // The per-file rules run once every file is lexed, so a
    // std::function alias declared in a header is known in every file
    // that uses it.
    for (const LexedSource &file : lexedFiles)
        summarize(file.path, file.lexed);
    lexedFiles.clear();

    // Replay per-file findings (token rules, pool lifetime, layering
    // allowlist). The disabled-rule filter re-applies here because the
    // symbol indexer records pool-lifetime findings unconditionally.
    for (const FileSummary &sum : summaries) {
        for (const Finding &f : sum.localFindings) {
            if (cfg.ruleEnabled(f.rule))
                findings.push_back(f);
        }
    }

    // Rebuild the observed module graph from the summaries (first
    // edge per module pair wins, deterministic given sorted input).
    std::map<std::string, std::map<std::string, IncludeEdge>> moduleGraph;
    for (const FileSummary &sum : summaries) {
        if (cfg.layering.find(sum.module) == cfg.layering.end())
            continue;
        auto &edges = moduleGraph[sum.module];
        for (const auto &inc : sum.moduleIncludes) {
            if (edges.find(inc.first) == edges.end())
                edges[inc.first] =
                    IncludeEdge{sum.path, inc.second, inc.first};
        }
    }

    // Cycle check over the *observed* graph. This is deliberately
    // independent of the allowlist check: even if the config were
    // loosened edge by edge, an include cycle is reported.
    if (cfg.ruleEnabled("layering-cycle")) {
        enum class Mark { White, Grey, Black };
        std::map<std::string, Mark> mark;
        std::vector<std::string> stack;

        struct Dfs {
            Linter &lint;
            std::map<std::string, std::map<std::string, IncludeEdge>>
                &graph;
            std::map<std::string, Mark> &mark;
            std::vector<std::string> &stack;

            void visit(const std::string &node)
            {
                mark[node] = Mark::Grey;
                stack.push_back(node);
                for (const auto &edge : graph[node]) {
                    const std::string &to = edge.first;
                    if (mark[to] == Mark::Grey) {
                        std::string cycle;
                        bool in = false;
                        for (const auto &n : stack) {
                            if (n == to)
                                in = true;
                            if (in)
                                cycle += n + " -> ";
                        }
                        lint.findings.push_back(
                            {edge.second.fromFile, edge.second.line,
                             "layering-cycle",
                             "include cycle between modules: " + cycle +
                                 to});
                    } else if (mark[to] == Mark::White) {
                        visit(to);
                    }
                }
                stack.pop_back();
                mark[node] = Mark::Black;
            }
        };

        Dfs dfs{*this, moduleGraph, mark, stack};
        for (const auto &entry : moduleGraph) {
            if (mark[entry.first] == Mark::White)
                dfs.visit(entry.first);
        }
    }

    // Whole-program semantic passes over the collected summaries: every
    // cross-file invariant is checked against every file, every run.
    const SymbolTable table(summaries);
    for (auto &f : checkTaint(table, cfg))
        findings.push_back(std::move(f));
    for (auto &f : checkGuards(table, cfg))
        findings.push_back(std::move(f));
    for (auto &f : checkHotTransitive(table, cfg))
        findings.push_back(std::move(f));

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    return findings;
}

} // namespace tmlint
} // namespace treadmill
