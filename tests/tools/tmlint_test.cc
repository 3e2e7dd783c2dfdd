/**
 * @file
 * Tests for the tmlint static-analysis engine: rule detection on
 * seeded fixture files, suppression forms, allowlist boundaries,
 * lexer false-positive hardening, layering, and config validation.
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"
#include "sarif.h"
#include "util/error.h"
#include "util/json.h"

namespace treadmill {
namespace tmlint {
namespace {

std::string
readFixture(const std::string &name)
{
    const std::string path = std::string(TMLINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Lint one in-memory file under the given (default) config. */
std::vector<Finding>
lintOne(const std::string &path, const std::string &content,
        const Config &cfg = defaultConfig())
{
    Linter linter(cfg);
    linter.lintFile(path, content);
    return linter.finish();
}

int
countRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return static_cast<int>(
        std::count_if(findings.begin(), findings.end(),
                      [&](const Finding &f) { return f.rule == rule; }));
}

std::string
describe(const std::vector<Finding> &findings)
{
    std::string out;
    for (const auto &f : findings)
        out += formatFinding(f) + "\n";
    return out;
}

// ---------------------------------------------------------------------
// Fixture files with seeded violations.
// ---------------------------------------------------------------------

TEST(TmlintFixtures, DeterminismViolationsAreAllFound)
{
    const auto findings =
        lintOne("src/core/det_violations.cc", readFixture("det_violations.cc"));
    EXPECT_EQ(countRule(findings, "no-wallclock"), 2)
        << describe(findings);
    EXPECT_EQ(countRule(findings, "no-ambient-entropy"), 4)
        << describe(findings);
    EXPECT_EQ(countRule(findings, "no-default-seed"), 1)
        << describe(findings);
    EXPECT_EQ(countRule(findings, "tmlint-directive"), 0)
        << describe(findings);
}

TEST(TmlintFixtures, HotPathViolationsAreAllFound)
{
    const auto findings = lintOne("src/sim/hotpath_violations.cc",
                                  readFixture("hotpath_violations.cc"));
    EXPECT_EQ(countRule(findings, "hot-path-no-function"), 1)
        << describe(findings);
    EXPECT_EQ(countRule(findings, "hot-path-no-alloc"), 2)
        << describe(findings);
    EXPECT_EQ(countRule(findings, "hot-path-no-string"), 2)
        << describe(findings);
    EXPECT_EQ(countRule(findings, "hot-path-no-throw"), 1)
        << describe(findings);
}

TEST(TmlintFixtures, SuppressedFileIsClean)
{
    const auto findings = lintOne("src/core/suppressed_clean.cc",
                                  readFixture("suppressed_clean.cc"));
    EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(TmlintFixtures, TrickyStringsAndCommentsDoNotFalsePositive)
{
    const auto findings = lintOne("src/core/tricky_clean.cc",
                                  readFixture("tricky_clean.cc"));
    EXPECT_TRUE(findings.empty()) << describe(findings);
}

// ---------------------------------------------------------------------
// Allowlist boundaries.
// ---------------------------------------------------------------------

TEST(TmlintAllowlist, WallclockAllowedOnlyInExemptPaths)
{
    const std::string src =
        "#include <chrono>\n"
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_EQ(countRule(lintOne("src/sim/event_queue.cc", src),
                        "no-wallclock"),
              1);
    // progress.cc is NOT path-exempt: the real file carries an inline
    // tmlint:allow-file justification instead.
    EXPECT_EQ(countRule(lintOne("src/exec/progress.cc", src),
                        "no-wallclock"),
              1);
    const std::string annotated =
        "// tmlint:allow-file(no-wallclock): operator-facing ETA only\n" +
        src;
    EXPECT_EQ(countRule(lintOne("src/exec/progress.cc", annotated),
                        "no-wallclock"),
              0);
    // Nothing else in src/exec is exempt either.
    EXPECT_EQ(countRule(lintOne("src/exec/parallel_for.h", src),
                        "no-wallclock"),
              1);
    EXPECT_EQ(
        countRule(lintOne("bench/bench_perf_sim.cc", src), "no-wallclock"),
        0);
    EXPECT_EQ(
        countRule(lintOne("tests/sim/event_queue_test.cc", src),
                  "no-wallclock"),
        0);
    // Absolute paths normalize to their repo-relative suffix.
    EXPECT_EQ(countRule(lintOne("/home/ci/repo/src/net/link.cc", src),
                        "no-wallclock"),
              1);
    EXPECT_EQ(
        countRule(lintOne("/home/ci/repo/tests/net/link_test.cc", src),
                  "no-wallclock"),
        0);
}

TEST(TmlintAllowlist, EntropyAllowedInTestsAndBench)
{
    const std::string src = "std::random_device rd;\n";
    EXPECT_EQ(countRule(lintOne("src/util/rng.cc", src),
                        "no-ambient-entropy"),
              1);
    EXPECT_EQ(countRule(lintOne("tests/util/rng_test.cc", src),
                        "no-ambient-entropy"),
              0);
}

// ---------------------------------------------------------------------
// Token-level heuristics.
// ---------------------------------------------------------------------

TEST(TmlintRules, TimeCallShapes)
{
    EXPECT_EQ(countRule(lintOne("src/core/a.cc", "long x = time(nullptr);"),
                        "no-wallclock"),
              1);
    EXPECT_EQ(countRule(lintOne("src/core/a.cc", "long x = std::time(0);"),
                        "no-wallclock"),
              1);
    EXPECT_EQ(countRule(lintOne("src/core/a.cc", "long x = ::time(&tv);"),
                        "no-wallclock"),
              1);
    // Member calls and declarations named `time` are not the libc call.
    EXPECT_EQ(countRule(lintOne("src/core/a.cc", "long x = sim.time(t);"),
                        "no-wallclock"),
              0);
    EXPECT_EQ(countRule(lintOne("src/core/a.cc",
                                "long time(long t) { return t; }"),
                        "no-wallclock"),
              0);
    EXPECT_EQ(countRule(lintOne("src/core/a.cc",
                                "long x = Timer::time(t);"),
                        "no-wallclock"),
              0);
}

TEST(TmlintRules, DefaultSeededEngines)
{
    EXPECT_EQ(countRule(lintOne("src/core/a.cc", "std::mt19937 g;"),
                        "no-default-seed"),
              1);
    EXPECT_EQ(countRule(lintOne("src/core/a.cc", "std::mt19937 g{};"),
                        "no-default-seed"),
              1);
    EXPECT_EQ(countRule(lintOne("src/core/a.cc", "std::mt19937 g(42);"),
                        "no-default-seed"),
              0);
    EXPECT_EQ(countRule(lintOne("src/core/a.cc", "std::mt19937 g{42};"),
                        "no-default-seed"),
              0);
    EXPECT_EQ(countRule(lintOne("src/core/a.cc",
                                "using Engine = std::mt19937;"),
                        "no-default-seed"),
              0);
    EXPECT_EQ(countRule(lintOne("src/core/a.cc",
                                "void seed(std::mt19937 &g);"),
                        "no-default-seed"),
              0);
}

TEST(TmlintRules, UnorderedContainersOnlyInExportModules)
{
    const std::string usage = "std::unordered_map<int, int> m;\n";
    EXPECT_EQ(countRule(lintOne("src/analysis/export.cc", usage),
                        "no-unordered-in-export"),
              1);
    EXPECT_EQ(countRule(lintOne("src/obs/metrics.cc", usage),
                        "no-unordered-in-export"),
              1);
    EXPECT_EQ(countRule(lintOne("src/stats/summary.cc", usage),
                        "no-unordered-in-export"),
              1);
    // The paper-facing server model may hash; order never leaves it.
    EXPECT_EQ(countRule(lintOne("src/server/memcached.cc", usage),
                        "no-unordered-in-export"),
              0);
    // The #include alone is enough to flag.
    EXPECT_EQ(countRule(lintOne("src/analysis/export.cc",
                                "#include <unordered_map>\n"),
                        "no-unordered-in-export"),
              1);
}

TEST(TmlintRules, HotPathRegionsBoundTheRules)
{
    const std::string src =
        "void setup() { auto *p = new int(1); delete p; }\n"
        "// tmlint:hot-path-begin\n"
        "void hot() { auto *q = new int(2); delete q; }\n"
        "// tmlint:hot-path-end\n"
        "void teardown() { auto *r = new int(3); delete r; }\n";
    const auto findings = lintOne("src/sim/a.cc", src);
    ASSERT_EQ(countRule(findings, "hot-path-no-alloc"), 1)
        << describe(findings);
    EXPECT_EQ(findings[0].line, 3);
}

TEST(TmlintRules, StringConstructionShapesInHotFiles)
{
    const auto lintHot = [](const std::string &body) {
        return lintOne("src/sim/a.cc", "// tmlint:hot-path\n" + body);
    };
    EXPECT_EQ(countRule(lintHot("std::string s = label();"),
                        "hot-path-no-string"),
              1);
    EXPECT_EQ(countRule(lintHot("auto s = std::string(buf, n);"),
                        "hot-path-no-string"),
              1);
    EXPECT_EQ(countRule(lintHot("auto s = std::to_string(42);"),
                        "hot-path-no-string"),
              1);
    // References, pointers and template arguments do not construct.
    EXPECT_EQ(countRule(lintHot("void f(const std::string &key);"),
                        "hot-path-no-string"),
              0);
    EXPECT_EQ(countRule(lintHot("const std::string *find(int k);"),
                        "hot-path-no-string"),
              0);
    EXPECT_EQ(countRule(lintHot("std::vector<std::string> v;"),
                        "hot-path-no-string"),
              0);
    EXPECT_EQ(countRule(lintHot("auto n = std::string::npos;"),
                        "hot-path-no-string"),
              0);
}

TEST(TmlintRules, PlacementNewDoesNotAllocate)
{
    const std::string src = "// tmlint:hot-path\n"
                            "void f(void *buf) {\n"
                            "    auto *a = new (buf) int(1);\n"
                            "    auto *b = new int(2);\n"
                            "}\n";
    const auto findings = lintOne("src/sim/a.cc", src);
    ASSERT_EQ(countRule(findings, "hot-path-no-alloc"), 1)
        << describe(findings);
    EXPECT_EQ(findings[0].line, 4);
}

TEST(TmlintRules, PlacementNewCalleeIsNotATransitiveFinding)
{
    const std::string src = "int *construct(void *buf) {\n"
                            "    return new (buf) int(7);\n"
                            "}\n"
                            "// tmlint:hot-path-begin\n"
                            "int hot(void *buf) { return *construct(buf); }\n"
                            "// tmlint:hot-path-end\n";
    const auto findings = lintOne("src/sim/a.cc", src);
    EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(TmlintRules, FunctionAliasIsStdFunction)
{
    const std::string src =
        "#include <functional>\n"
        "using Callback = std::function<void(int)>;\n"
        "void cold(Callback cb) { cb(1); }\n"
        "// tmlint:hot-path-begin\n"
        "void hot(int v) { Callback cb = [v](int) {}; cb(v); }\n"
        "// tmlint:hot-path-end\n";
    const auto findings = lintOne("src/sim/a.cc", src);
    ASSERT_EQ(countRule(findings, "hot-path-no-function"), 1)
        << describe(findings);
    EXPECT_EQ(findings[0].line, 5);
    EXPECT_NE(findings[0].message.find("'Callback' aliases std::function"),
              std::string::npos)
        << describe(findings);
}

TEST(TmlintRules, FunctionAliasFromAnotherFileIsSeen)
{
    // The alias lives in a header that sorts after its user, as
    // client.cc sorts before client.h.
    Linter linter(defaultConfig());
    linter.lintFile("src/sim/a.cc",
                    "#include \"sim/a.h\"\n"
                    "// tmlint:hot-path-begin\n"
                    "void Box::fire() { Box::Fn copy = fn; copy(); }\n"
                    "// tmlint:hot-path-end\n");
    linter.lintFile("src/sim/a.h",
                    "#include <functional>\n"
                    "struct Box {\n"
                    "    using Fn = std::function<void()>;\n"
                    "    Fn fn;\n"
                    "    void fire();\n"
                    "};\n");
    const auto findings = linter.finish();
    ASSERT_EQ(countRule(findings, "hot-path-no-function"), 1)
        << describe(findings);
    EXPECT_EQ(findings[0].file, "src/sim/a.cc");
    EXPECT_EQ(findings[0].line, 3);
}

TEST(TmlintRules, FunctionAliasInHotCalleeIsATransitiveFinding)
{
    const std::string src =
        "#include <functional>\n"
        "using Task = std::function<void()>;\n"
        "void wrap(int v) { Task t = [v] {}; t(); }\n"
        "// tmlint:hot-path-begin\n"
        "void hot(int v) { wrap(v); }\n"
        "// tmlint:hot-path-end\n";
    const auto findings = lintOne("src/sim/a.cc", src);
    ASSERT_EQ(countRule(findings, "hot-path-transitive"), 1)
        << describe(findings);
    EXPECT_EQ(findings[0].line, 3);
}

// ---------------------------------------------------------------------
// Suppression directives.
// ---------------------------------------------------------------------

TEST(TmlintDirectives, UnknownRuleInAllowIsReported)
{
    const auto findings = lintOne(
        "src/core/a.cc",
        "std::mt19937 g; // tmlint:allow(no-such-rule): typo\n");
    EXPECT_EQ(countRule(findings, "tmlint-directive"), 1)
        << describe(findings);
    // The typo'd allow does not suppress the real finding.
    EXPECT_EQ(countRule(findings, "no-default-seed"), 1)
        << describe(findings);
}

TEST(TmlintDirectives, UnbalancedHotRegionIsReported)
{
    const auto findings = lintOne(
        "src/core/a.cc",
        "// tmlint:hot-path-begin\nauto *p = new int(1);\n");
    EXPECT_EQ(countRule(findings, "tmlint-directive"), 1)
        << describe(findings);
    // The open region still applies to the end of the file.
    EXPECT_EQ(countRule(findings, "hot-path-no-alloc"), 1)
        << describe(findings);

    const auto stray = lintOne("src/core/a.cc", "// tmlint:hot-path-end\n");
    EXPECT_EQ(countRule(stray, "tmlint-directive"), 1) << describe(stray);
}

TEST(TmlintDirectives, UnknownDirectiveIsReported)
{
    const auto findings =
        lintOne("src/core/a.cc", "// tmlint:allw(no-wallclock): typo\n");
    EXPECT_EQ(countRule(findings, "tmlint-directive"), 1)
        << describe(findings);
}

// ---------------------------------------------------------------------
// Layering.
// ---------------------------------------------------------------------

TEST(TmlintLayering, UpwardIncludeIsRejected)
{
    const auto findings =
        lintOne("src/util/helper.h", "#include \"core/experiment.h\"\n");
    EXPECT_EQ(countRule(findings, "layering"), 1) << describe(findings);
}

TEST(TmlintLayering, DownwardIncludesAreAllowed)
{
    Linter linter(defaultConfig());
    linter.lintFile("src/core/experiment.cc",
                    "#include \"util/json.h\"\n"
                    "#include \"sim/simulation.h\"\n"
                    "#include \"server/memcached.h\"\n");
    linter.lintFile("src/sim/simulation.cc",
                    "#include \"obs/metrics.h\"\n"
                    "#include \"sim/event_queue.h\"\n");
    const auto findings = linter.finish();
    EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(TmlintLayering, CycleFixtureIsReported)
{
    // alpha may include beta; beta may include nothing. The fixture
    // pair then forms alpha -> beta -> alpha: one upward-include
    // finding (beta/b.h) plus one cycle finding.
    Config cfg = defaultConfig();
    cfg.layering["alpha"] = {"beta"};
    cfg.layering["beta"] = {};
    Linter linter(cfg);
    linter.lintFile("src/alpha/a.h",
                    readFixture("layercycle/src/alpha/a.h"));
    linter.lintFile("src/beta/b.h",
                    readFixture("layercycle/src/beta/b.h"));
    const auto findings = linter.finish();
    EXPECT_EQ(countRule(findings, "layering"), 1) << describe(findings);
    EXPECT_EQ(countRule(findings, "layering-cycle"), 1)
        << describe(findings);
}

TEST(TmlintLayering, StoreStaysBelowTheSimulationStack)
{
    // The run store is a leaf above util only: including simulation,
    // server, or stats headers from store/ is an upward include.
    const auto sim =
        lintOne("src/store/writer.cc", "#include \"sim/simulation.h\"\n");
    EXPECT_EQ(countRule(sim, "layering"), 1) << describe(sim);
    const auto server =
        lintOne("src/store/reader.cc", "#include \"server/memcached.h\"\n");
    EXPECT_EQ(countRule(server, "layering"), 1) << describe(server);
    const auto stats =
        lintOne("src/store/record.h", "#include \"stats/reservoir.h\"\n");
    EXPECT_EQ(countRule(stats, "layering"), 1) << describe(stats);
    const auto util =
        lintOne("src/store/writer.cc", "#include \"util/checksum.h\"\n");
    EXPECT_EQ(countRule(util, "layering"), 0) << describe(util);
}

TEST(TmlintLayering, DriveSitsAboveAnalysisButIsNotIncludable)
{
    // drive/ may reach down into analysis, core, and store...
    Linter linter(defaultConfig());
    linter.lintFile("src/drive/capacity_controller.cc",
                    "#include \"analysis/capacity.h\"\n"
                    "#include \"core/run_record.h\"\n"
                    "#include \"store/writer.h\"\n");
    const auto down = linter.finish();
    EXPECT_TRUE(down.empty()) << describe(down);

    // ...but nothing below it may include drive back.
    const auto up = lintOne("src/analysis/refit.cc",
                            "#include \"drive/study_driver.h\"\n");
    EXPECT_EQ(countRule(up, "layering"), 1) << describe(up);
    const auto core = lintOne("src/core/experiment.cc",
                              "#include \"drive/capacity_controller.h\"\n");
    EXPECT_EQ(countRule(core, "layering"), 1) << describe(core);
}

TEST(TmlintLayering, CoreRunsOneExperimentAndUsesNoThreads)
{
    // Every multi-run loop lives in drive/; core/ may not reach the
    // fan-out or its progress meter.
    const auto findings = lintOne("src/core/experiment.h",
                                  "#include \"exec/parallel_for.h\"\n");
    EXPECT_EQ(countRule(findings, "layering"), 1) << describe(findings);
}

TEST(TmlintLayering, CoreAndAnalysisMayUseTheStore)
{
    Linter linter(defaultConfig());
    linter.lintFile("src/core/run_record.cc",
                    "#include \"store/record.h\"\n");
    linter.lintFile("src/analysis/refit.cc",
                    "#include \"store/reader.h\"\n");
    const auto findings = linter.finish();
    EXPECT_TRUE(findings.empty()) << describe(findings);
}

// ---------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------

TEST(TmlintConfig, CyclicLayeringConfigIsRejected)
{
    EXPECT_THROW(parseConfig(R"({
        "rules": {
            "layering": {
                "modules": {"a": ["b"], "b": ["a"]}
            }
        }
    })"),
                 ConfigError);
}

TEST(TmlintConfig, UnknownRuleNameIsRejected)
{
    EXPECT_THROW(parseConfig(R"({"rules": {"no-such-rule": {}}})"),
                 ConfigError);
    EXPECT_THROW(parseConfig(R"({"norules": true})"), ConfigError);
}

TEST(TmlintConfig, HotTransitiveDepthMustBePositive)
{
    EXPECT_THROW(
        parseConfig(R"({"rules": {"hot-path-transitive": {"depth": 0}}})"),
        ConfigError);
}

TEST(TmlintConfig, DisabledRuleIsSilent)
{
    Config cfg = parseConfig(R"({
        "rules": {"no-default-seed": {"enabled": false}}
    })");
    Linter linter(cfg);
    linter.lintFile("src/core/a.cc", "std::mt19937 g;\n");
    EXPECT_TRUE(linter.finish().empty());
}

// ---------------------------------------------------------------------
// Semantic rule families: seeded violations plus a clean pass over the
// same constructs done right.
// ---------------------------------------------------------------------

TEST(TmlintSemanticFixtures, TaintFlowsThroughCallHopIntoSink)
{
    const auto findings = lintOne("src/core/taint_violations.cc",
                                  readFixture("taint_violations.cc"));
    EXPECT_EQ(countRule(findings, "determinism-taint"), 2)
        << describe(findings);
    EXPECT_EQ(findings.size(), 2u) << describe(findings);
}

TEST(TmlintSemanticFixtures, UnlockedGuardedAccessesAreFlagged)
{
    const auto findings = lintOne("src/exec/guarded_violations.cc",
                                  readFixture("guarded_violations.cc"));
    EXPECT_EQ(countRule(findings, "guarded-by"), 2) << describe(findings);
    EXPECT_EQ(findings.size(), 2u) << describe(findings);
}

TEST(TmlintSemanticFixtures, PoolMisusesAreFlagged)
{
    const auto findings = lintOne("src/exec/pool_violations.cc",
                                  readFixture("pool_violations.cc"));
    EXPECT_EQ(countRule(findings, "pool-lifetime"), 2)
        << describe(findings);
    EXPECT_EQ(findings.size(), 2u) << describe(findings);
}

TEST(TmlintSemanticFixtures, HotPathReachesAllocatingCallee)
{
    const auto findings = lintOne("src/sim/hottrans_violations.cc",
                                  readFixture("hottrans_violations.cc"));
    EXPECT_EQ(countRule(findings, "hot-path-transitive"), 1)
        << describe(findings);
    EXPECT_EQ(findings.size(), 1u) << describe(findings);
}

TEST(TmlintSemanticFixtures, DisciplinedCodeIsClean)
{
    const auto findings = lintOne("src/core/semantic_clean.cc",
                                  readFixture("semantic_clean.cc"));
    EXPECT_TRUE(findings.empty()) << describe(findings);
}

// ---------------------------------------------------------------------
// SARIF output.
// ---------------------------------------------------------------------

TEST(TmlintSarif, ReportHasCodeScanningShape)
{
    const auto findings = lintOne("src/core/a.cc", "std::mt19937 g;\n");
    ASSERT_EQ(findings.size(), 1u) << describe(findings);

    const json::Value doc = json::parse(sarifReport(findings));
    EXPECT_EQ(doc.at("version").asString(), "2.1.0");
    const auto &runs = doc.at("runs").asArray();
    ASSERT_EQ(runs.size(), 1u);

    const json::Value &run = runs[0];
    const json::Value &driver = run.at("tool").at("driver");
    EXPECT_EQ(driver.at("name").asString(), "tmlint");

    const auto &results = run.at("results").asArray();
    ASSERT_EQ(results.size(), 1u);
    const json::Value &result = results[0];
    EXPECT_EQ(result.at("ruleId").asString(), "no-default-seed");
    EXPECT_EQ(result.at("level").asString(), "error");

    const json::Value &loc =
        result.at("locations").asArray()[0].at("physicalLocation");
    EXPECT_EQ(loc.at("artifactLocation").at("uri").asString(),
              "src/core/a.cc");
    EXPECT_EQ(loc.at("region").intOr("startLine", -1), 1);

    // ruleIndex must point at the matching reportingDescriptor.
    const auto &rules = driver.at("rules").asArray();
    const auto idx =
        static_cast<std::size_t>(result.at("ruleIndex").asInt());
    ASSERT_LT(idx, rules.size());
    EXPECT_EQ(rules[idx].at("id").asString(), "no-default-seed");
}

TEST(TmlintSarif, EmptyFindingsStillValidDocument)
{
    const json::Value doc = json::parse(sarifReport({}));
    const auto &runs = doc.at("runs").asArray();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_TRUE(runs[0].at("results").asArray().empty());
}

// ---------------------------------------------------------------------
// Output determinism.
// ---------------------------------------------------------------------

TEST(TmlintDeterminism, FindingOrderIsIndependentOfFileOrder)
{
    const std::string a = "std::random_device rd;\n";
    const std::string b = "auto t = std::chrono::steady_clock::now();\n";

    Linter forward(defaultConfig());
    forward.lintFile("src/core/a.cc", a);
    forward.lintFile("src/sim/b.cc", b);

    Linter reverse(defaultConfig());
    reverse.lintFile("src/sim/b.cc", b);
    reverse.lintFile("src/core/a.cc", a);

    EXPECT_EQ(describe(forward.finish()), describe(reverse.finish()));
}

} // namespace
} // namespace tmlint
} // namespace treadmill
