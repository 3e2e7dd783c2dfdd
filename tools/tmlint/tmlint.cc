/**
 * @file
 * tmlint driver: lint a source tree against the simulator invariants.
 *
 * Usage:
 *   tmlint [--config FILE] [--sarif FILE] [--baseline FILE]
 *          [--write-baseline FILE] [--list-rules]
 *          <file-or-directory>...
 *
 * Directories are walked recursively for C++ sources and headers, in
 * sorted order so output and exit status are reproducible. Exit codes:
 * 0 clean, 1 findings, 2 usage or configuration error.
 *
 * With no --config, tools/tmlint/tmlint.json is used when it exists
 * relative to the current directory; otherwise the built-in defaults
 * (that file, embedded at build time) apply, so `./build/tools/tmlint
 * src` works from a repository checkout with no flags.
 *
 * --sarif additionally writes the findings as a SARIF 2.1.0 document
 * for code-scanning upload. --baseline suppresses
 * known findings recorded with --write-baseline, budgeted per
 * (rule, file), so a legacy debt list cannot silently grow.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/json.h"

#include "lint.h"
#include "sarif.h"

namespace {

namespace fs = std::filesystem;
using treadmill::json::Object;
using treadmill::json::Value;
using treadmill::tmlint::Config;
using treadmill::tmlint::Finding;
using treadmill::tmlint::Linter;

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hh" || ext == ".hpp" || ext == ".cc" ||
           ext == ".cpp" || ext == ".cxx";
}

/** Collect lintable files under @p root (or @p root itself), sorted. */
void
collectFiles(const fs::path &root, std::vector<fs::path> &out)
{
    if (fs::is_directory(root)) {
        for (const auto &entry : fs::recursive_directory_iterator(root)) {
            if (entry.is_regular_file() && isSourceFile(entry.path()))
                out.push_back(entry.path());
        }
        return;
    }
    out.push_back(root);
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw treadmill::ConfigError("tmlint: cannot read " +
                                     path.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Baseline key: one budget per (rule, file) pair. */
std::string
baselineKey(const Finding &f)
{
    return f.rule + "|" + f.file;
}

void
writeBaseline(const std::string &path,
              const std::vector<Finding> &findings)
{
    std::map<std::string, int> counts;
    for (const auto &f : findings)
        ++counts[baselineKey(f)];
    Object body;
    for (const auto &entry : counts)
        body[entry.first] = Value(entry.second);
    Object doc;
    doc["version"] = Value(1);
    doc["findings"] = Value(std::move(body));

    std::ofstream out(path);
    if (!out)
        throw treadmill::ConfigError("tmlint: cannot write baseline " +
                                     path);
    out << Value(std::move(doc)).dumpPretty() << "\n";
}

std::map<std::string, int>
loadBaseline(const std::string &path)
{
    const Value doc = treadmill::json::parseFile(path);
    if (doc.intOr("version", -1) != 1)
        throw treadmill::ConfigError("tmlint: unsupported baseline "
                                     "version in " +
                                     path);
    std::map<std::string, int> budgets;
    for (const auto &entry : doc.at("findings").asObject())
        budgets[entry.first] = static_cast<int>(entry.second.asInt());
    return budgets;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: tmlint [--config FILE] "
                 "[--sarif FILE] [--baseline FILE] "
                 "[--write-baseline FILE] [--list-rules] "
                 "<file-or-dir>...\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string configPath;
    std::string sarifPath;
    std::string baselinePath;
    std::string writeBaselinePath;
    std::vector<std::string> inputs;

    const auto flagValue = [&](int &i) -> const char * {
        return ++i < argc ? argv[i] : nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *v = nullptr;
        if (arg == "--config") {
            if ((v = flagValue(i)) == nullptr)
                return usage();
            configPath = v;
        } else if (arg == "--sarif") {
            if ((v = flagValue(i)) == nullptr)
                return usage();
            sarifPath = v;
        } else if (arg == "--baseline") {
            if ((v = flagValue(i)) == nullptr)
                return usage();
            baselinePath = v;
        } else if (arg == "--write-baseline") {
            if ((v = flagValue(i)) == nullptr)
                return usage();
            writeBaselinePath = v;
        } else if (arg == "--list-rules") {
            for (const auto &rule : treadmill::tmlint::knownRules())
                std::printf("%s\n", rule.c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "tmlint: unknown option %s\n",
                         arg.c_str());
            return usage();
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty())
        return usage();

    try {
        Config cfg;
        if (!configPath.empty()) {
            cfg = treadmill::tmlint::loadConfig(configPath);
        } else if (fs::exists("tools/tmlint/tmlint.json")) {
            cfg = treadmill::tmlint::loadConfig("tools/tmlint/tmlint.json");
        } else {
            cfg = treadmill::tmlint::defaultConfig();
        }

        std::vector<fs::path> files;
        for (const auto &input : inputs) {
            if (!fs::exists(input)) {
                std::fprintf(stderr, "tmlint: no such path: %s\n",
                             input.c_str());
                return 2;
            }
            collectFiles(input, files);
        }
        // Directory iteration order is unspecified; sort so runs are
        // reproducible -- tmlint holds itself to its own determinism
        // rules.
        std::sort(files.begin(), files.end());
        files.erase(std::unique(files.begin(), files.end()),
                    files.end());

        Linter linter(cfg);
        for (const auto &file : files)
            linter.lintFile(file.generic_string(), readFile(file));
        std::vector<Finding> findings = linter.finish();

        if (!writeBaselinePath.empty()) {
            writeBaseline(writeBaselinePath, findings);
            std::printf("tmlint: baseline of %zu finding%s written to "
                        "%s\n",
                        findings.size(), findings.size() == 1 ? "" : "s",
                        writeBaselinePath.c_str());
            return 0;
        }

        std::size_t baselined = 0;
        if (!baselinePath.empty()) {
            std::map<std::string, int> budgets =
                loadBaseline(baselinePath);
            std::vector<Finding> fresh;
            for (auto &f : findings) {
                auto it = budgets.find(baselineKey(f));
                if (it != budgets.end() && it->second > 0) {
                    --it->second;
                    ++baselined;
                } else {
                    fresh.push_back(std::move(f));
                }
            }
            findings = std::move(fresh);
        }

        if (!sarifPath.empty()) {
            std::ofstream out(sarifPath);
            if (!out)
                throw treadmill::ConfigError(
                    "tmlint: cannot write SARIF report " + sarifPath);
            out << treadmill::tmlint::sarifReport(findings) << "\n";
        }

        for (const auto &f : findings) {
            std::printf("%s\n",
                        treadmill::tmlint::formatFinding(f).c_str());
        }

        if (baselined > 0) {
            std::printf("tmlint: %zu baselined finding%s suppressed\n",
                        baselined, baselined == 1 ? "" : "s");
        }
        if (!findings.empty()) {
            std::printf("tmlint: %zu finding%s in %zu file%s\n",
                        findings.size(),
                        findings.size() == 1 ? "" : "s",
                        linter.fileCount(),
                        linter.fileCount() == 1 ? "" : "s");
            return 1;
        }
        std::printf("tmlint: clean (%zu files)\n", linter.fileCount());
        return 0;
    } catch (const treadmill::Error &e) {
        std::fprintf(stderr, "tmlint: %s\n", e.what());
        return 2;
    }
}
