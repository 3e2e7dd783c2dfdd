/**
 * @file
 * tmlint rule configuration.
 *
 * The rule set is fixed in code (each rule is a named invariant the
 * simulator depends on); the configuration controls where each rule
 * applies: path allowlists for the determinism rules, the module list
 * for the unordered-container rule, and the allowed include DAG for
 * the layering rule. The built-in defaults are tools/tmlint/tmlint.json
 * itself, embedded at build time; a --config file overrides them.
 */

#ifndef TREADMILL_TOOLS_TMLINT_CONFIG_H_
#define TREADMILL_TOOLS_TMLINT_CONFIG_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace treadmill {
namespace tmlint {

/** Name of every rule tmlint can emit, including meta-rules. */
const std::set<std::string> &knownRules();

/** Where each rule applies. See tools/tmlint/tmlint.json. */
struct Config {
    /** Rules disabled wholesale ("enabled": false in JSON). */
    std::set<std::string> disabled;

    /** Path prefixes exempt from the wall-clock rule. */
    std::vector<std::string> wallclockAllow;
    /** Path prefixes exempt from the ambient-entropy rules. */
    std::vector<std::string> entropyAllow;

    /** Modules in which unordered containers are banned because
     *  iteration order can leak into exported results. */
    std::set<std::string> exportModules;

    /** module -> modules it may #include (self always allowed).
     *  Must form a DAG; loadConfig() rejects cycles. */
    std::map<std::string, std::vector<std::string>> layering;

    /** Call names treated as export sinks by determinism-taint:
     *  a value iterated out of an unordered container must not reach
     *  any of these (as an argument or as the receiver). */
    std::set<std::string> taintSinks;

    /** Max call-chain depth explored by hot-path-transitive, counted
     *  in edges from the lexically hot root function. */
    int hotTransitiveDepth = 3;

    bool ruleEnabled(const std::string &rule) const
    {
        return disabled.find(rule) == disabled.end();
    }
};

/** The built-in configuration for this repository. */
Config defaultConfig();

/**
 * Load a configuration from a JSON file.
 *
 * @throws ConfigError on malformed JSON, unknown rule names, unknown
 *         layering modules, or a cyclic layering graph.
 */
Config loadConfig(const std::string &path);

/** Parse a configuration from JSON text (exposed for tests). */
Config parseConfig(const std::string &jsonText);

/**
 * Verify the layering map is acyclic and self-consistent.
 *
 * @throws ConfigError naming the offending cycle otherwise.
 */
void validateLayering(
    const std::map<std::string, std::vector<std::string>> &layering);

} // namespace tmlint
} // namespace treadmill

#endif // TREADMILL_TOOLS_TMLINT_CONFIG_H_
