#include "config.h"

#include <utility>

#include "util/error.h"
#include "util/json.h"

namespace treadmill {
namespace tmlint {

namespace {

/**
 * The canonical configuration for this repository. Kept byte-for-byte
 * in sync with tools/tmlint/tmlint.json so `tmlint src` behaves the
 * same with or without the file (config_test asserts the two parse to
 * the same Config).
 */
const char *const kDefaultJson = R"CFG({
  "rules": {
    "no-wallclock": {
      "allow": [
        "bench/",
        "tests/",
        "src/exec/thread_pool."
      ]
    },
    "no-ambient-entropy": {
      "allow": ["bench/", "tests/"]
    },
    "no-default-seed": {
      "allow": ["bench/", "tests/"]
    },
    "no-unordered-in-export": {
      "modules": ["analysis", "obs", "stats", "regress"]
    },
    "determinism-taint": {
      "sinks": ["dump", "dumpPretty", "encodeRunRecord", "toJson",
                "spanJson", "chromeSpanJson", "telemetryCsv",
                "decompositionCsv", "renderProvenanceTable",
                "provenanceToJson", "renderCoefficientTable",
                "renderCdf", "renderDecompositionTable"]
    },
    "guarded-by": {},
    "pool-lifetime": {},
    "hot-path-no-function": {},
    "hot-path-no-alloc": {},
    "hot-path-no-string": {},
    "hot-path-no-throw": {},
    "hot-path-transitive": {
      "depth": 3
    },
    "layering": {
      "modules": {
        "util": [],
        "exec": ["util"],
        "obs": ["util"],
        "stats": ["util"],
        "sim": ["util", "obs"],
        "store": ["util"],
        "regress": ["util", "stats"],
        "hw": ["util", "sim"],
        "net": ["util", "sim", "obs"],
        "server": ["util", "sim", "obs", "hw"],
        "lb": ["util", "sim", "obs", "server"],
        "fault": ["util", "sim", "obs", "hw", "net", "server"],
        "core": ["util", "exec", "sim", "obs", "stats", "store",
                 "hw", "net", "server", "fault", "lb"],
        "analysis": ["util", "exec", "sim", "obs", "stats", "store",
                     "hw", "net", "server", "core", "regress", "lb"],
        "drive": ["util", "exec", "stats", "store", "regress",
                  "hw", "core", "analysis"]
      }
    }
  }
}
)CFG";

std::vector<std::string>
stringList(const json::Value &v, const char *what)
{
    std::vector<std::string> out;
    if (!v.isArray())
        throw ConfigError(std::string("tmlint config: ") + what +
                          " must be an array of strings");
    for (const auto &e : v.asArray())
        out.push_back(e.asString());
    return out;
}

} // namespace

const std::set<std::string> &
knownRules()
{
    static const std::set<std::string> rules = {
        "no-wallclock",
        "no-ambient-entropy",
        "no-default-seed",
        "no-unordered-in-export",
        "determinism-taint",
        "guarded-by",
        "pool-lifetime",
        "hot-path-no-function",
        "hot-path-no-alloc",
        "hot-path-no-string",
        "hot-path-no-throw",
        "hot-path-transitive",
        "layering",
        "layering-cycle",
        "tmlint-directive",
    };
    return rules;
}

void
validateLayering(
    const std::map<std::string, std::vector<std::string>> &layering)
{
    // Every dependency must itself be a configured module.
    for (const auto &entry : layering) {
        for (const auto &dep : entry.second) {
            if (layering.find(dep) == layering.end())
                throw ConfigError("tmlint config: layering module '" +
                                  entry.first +
                                  "' depends on unknown module '" + dep +
                                  "'");
        }
    }

    // Depth-first search for a cycle in the *allowed* graph: a cyclic
    // allowance would make the layering rule vacuous.
    enum class Mark { White, Grey, Black };
    std::map<std::string, Mark> mark;
    std::vector<std::string> stack;

    struct Dfs {
        const std::map<std::string, std::vector<std::string>> &graph;
        std::map<std::string, Mark> &mark;
        std::vector<std::string> &stack;

        void visit(const std::string &node)
        {
            mark[node] = Mark::Grey;
            stack.push_back(node);
            for (const auto &dep : graph.at(node)) {
                if (mark[dep] == Mark::Grey) {
                    std::string cycle;
                    bool in = false;
                    for (const auto &n : stack) {
                        if (n == dep)
                            in = true;
                        if (in)
                            cycle += n + " -> ";
                    }
                    throw ConfigError(
                        "tmlint config: layering graph has a cycle: " +
                        cycle + dep);
                }
                if (mark[dep] == Mark::White)
                    visit(dep);
            }
            stack.pop_back();
            mark[node] = Mark::Black;
        }
    };

    Dfs dfs{layering, mark, stack};
    for (const auto &entry : layering) {
        if (mark[entry.first] == Mark::White)
            dfs.visit(entry.first);
    }
}

namespace {

Config
configFromValue(const json::Value &doc)
{
    Config cfg;
    if (!doc.contains("rules"))
        throw ConfigError("tmlint config: missing top-level 'rules'");

    for (const auto &entry : doc.at("rules").asObject()) {
        const std::string &rule = entry.first;
        const json::Value &body = entry.second;
        if (knownRules().find(rule) == knownRules().end())
            throw ConfigError("tmlint config: unknown rule '" + rule +
                              "'");
        if (!body.boolOr("enabled", true))
            cfg.disabled.insert(rule);

        if (rule == "no-wallclock" && body.contains("allow")) {
            cfg.wallclockAllow = stringList(body.at("allow"),
                                            "no-wallclock.allow");
        } else if ((rule == "no-ambient-entropy" ||
                    rule == "no-default-seed") &&
                   body.contains("allow")) {
            // Both entropy rules share one allowlist; the union is
            // taken so either spelling works.
            for (auto &p : stringList(body.at("allow"),
                                      "entropy allow")) {
                cfg.entropyAllow.push_back(std::move(p));
            }
        } else if (rule == "no-unordered-in-export" &&
                   body.contains("modules")) {
            for (auto &m : stringList(body.at("modules"),
                                      "no-unordered-in-export.modules")) {
                cfg.exportModules.insert(std::move(m));
            }
        } else if (rule == "determinism-taint" &&
                   body.contains("sinks")) {
            for (auto &s : stringList(body.at("sinks"),
                                      "determinism-taint.sinks")) {
                cfg.taintSinks.insert(std::move(s));
            }
        } else if (rule == "hot-path-transitive" &&
                   body.contains("depth")) {
            cfg.hotTransitiveDepth =
                static_cast<int>(body.at("depth").asInt());
            if (cfg.hotTransitiveDepth < 1)
                throw ConfigError("tmlint config: hot-path-transitive."
                                  "depth must be >= 1");
        } else if (rule == "layering" && body.contains("modules")) {
            for (const auto &mod : body.at("modules").asObject()) {
                cfg.layering[mod.first] =
                    stringList(mod.second, "layering.modules entry");
            }
        }
    }

    validateLayering(cfg.layering);
    return cfg;
}

} // namespace

Config
parseConfig(const std::string &jsonText)
{
    return configFromValue(json::parse(jsonText));
}

Config
defaultConfig()
{
    return parseConfig(kDefaultJson);
}

Config
loadConfig(const std::string &path)
{
    return configFromValue(json::parseFile(path));
}

} // namespace tmlint
} // namespace treadmill
