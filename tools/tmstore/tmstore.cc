/**
 * @file
 * tmstore: inspect, verify, and re-analyze run store archives.
 *
 * Usage:
 *   tmstore ls <study-dir>
 *   tmstore cat <study-dir> <seq>
 *   tmstore verify <study-dir>
 *   tmstore refit <study-dir> [--quantiles T1,T2,...] [--seed N]
 *                              [--bootstrap N] [--json]
 *
 * `ls` prints the manifest and a one-line summary per run; `cat`
 * dumps one record's columns; `verify` sweeps the whole archive and
 * reports every integrity problem (exit 1 when any); `refit` re-fits
 * the factorial quantile-regression models straight from disk -- zero
 * simulations -- and prints the Table IV-style coefficient table (or
 * the models JSON with --json). `refit --quantiles` takes only taus
 * every run snapshotted (default: the manifest's); any other tau is an
 * archive error that names it.
 *
 * Exit codes: 0 clean, 1 verify findings, 2 usage or archive error.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/refit.h"
#include "analysis/export.h"
#include "analysis/report.h"
#include "store/errors.h"
#include "store/reader.h"
#include "util/error.h"
#include "util/strings.h"

namespace {

using treadmill::strprintf;
namespace store = treadmill::store;
namespace analysis = treadmill::analysis;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: tmstore <command> <study-dir> [args]\n"
        "  ls     <study-dir>        manifest + per-run summaries\n"
        "  cat    <study-dir> <seq>  dump one run record\n"
        "  verify <study-dir>        full-archive integrity sweep\n"
        "  refit  <study-dir> [--quantiles T1,T2,...] [--seed N]\n"
        "         [--bootstrap N] [--json]\n"
        "                            re-fit models from the archive;\n"
        "                            --quantiles takes snapshotted taus\n"
        "                            only\n");
    return 2;
}

std::vector<double>
parseQuantiles(const std::string &arg)
{
    std::vector<double> taus;
    std::size_t pos = 0;
    while (pos < arg.size()) {
        std::size_t next = arg.find(',', pos);
        if (next == std::string::npos)
            next = arg.size();
        taus.push_back(std::strtod(arg.substr(pos, next - pos).c_str(),
                                   nullptr));
        pos = next + 1;
    }
    return taus;
}

std::string
levelsText(const std::vector<double> &levels)
{
    std::string out;
    for (double level : levels) {
        if (!out.empty())
            out += ",";
        out += strprintf("%g", level);
    }
    return out;
}

int
cmdLs(const store::StudyReader &study)
{
    const store::StudyMeta &meta = study.meta();
    std::printf("study:   %s\n", meta.name.c_str());
    std::string factors;
    for (const std::string &f : meta.factors)
        factors += (factors.empty() ? "" : ", ") + f;
    std::printf("factors: %s\n", factors.c_str());
    std::printf("digest:  0x%016llx\n",
                static_cast<unsigned long long>(meta.configDigest));
    std::printf("runs:    %llu\n",
                static_cast<unsigned long long>(meta.runCount));
    for (std::uint64_t seq = 0; seq < study.runCount(); ++seq) {
        const store::RunReader run = study.openRun(seq);
        const store::RunRecord rec = run.record();
        std::string quantiles;
        for (std::size_t i = 0; i < rec.quantileTaus.size(); ++i)
            quantiles += strprintf(" P%g=%.1fus",
                                   rec.quantileTaus[i] * 100.0,
                                   rec.quantileUs[i]);
        std::printf("  run %06llu  seed %llu  levels %s  "
                    "rps %.0f  util %.3f%s\n",
                    static_cast<unsigned long long>(seq),
                    static_cast<unsigned long long>(rec.seed),
                    levelsText(rec.factorLevels).c_str(),
                    rec.achievedRps, rec.serverUtilization,
                    quantiles.c_str());
    }
    return 0;
}

int
cmdCat(const store::StudyReader &study, std::uint64_t seq)
{
    const store::RunReader run = study.openRun(seq);
    const store::RunRecord rec = run.record();
    std::printf("file:            %s\n", run.path().c_str());
    std::printf("seq:             %llu\n",
                static_cast<unsigned long long>(run.runSeq()));
    std::printf("seed:            %llu\n",
                static_cast<unsigned long long>(rec.seed));
    std::printf("config digest:   0x%016llx\n",
                static_cast<unsigned long long>(rec.configDigest));
    std::printf("factor levels:   %s\n",
                levelsText(rec.factorLevels).c_str());
    for (std::size_t i = 0; i < rec.quantileTaus.size(); ++i)
        std::printf("quantile %.4f:  %.6f us\n", rec.quantileTaus[i],
                    rec.quantileUs[i]);
    std::printf("reservoir:       %zu samples (capacity %llu, "
                "stream %llu)\n",
                rec.reservoir.size(),
                static_cast<unsigned long long>(rec.reservoirCapacity),
                static_cast<unsigned long long>(rec.reservoirSeen));
    std::printf("target rps:      %.3f\n", rec.targetRps);
    std::printf("achieved rps:    %.3f\n", rec.achievedRps);
    std::printf("server util:     %.4f\n", rec.serverUtilization);
    std::printf("sim seconds:     %.4f\n", rec.simulatedSeconds);
    std::printf("metrics json:    %zu bytes\n", rec.metricsJson.size());
    if (!rec.provenance.empty()) {
        std::printf("provenance rows: %zu\n", rec.provenance.size());
        for (const store::ProvenanceRow &row : rec.provenance)
            std::printf("  tau %.4f kind %llu mean %.2fus "
                        "share %.4f\n",
                        row.tau,
                        static_cast<unsigned long long>(row.kind),
                        row.meanUs, row.share);
    }
    return 0;
}

int
cmdVerify(const store::StudyReader &study)
{
    const std::vector<store::VerifyProblem> problems = study.verify();
    for (const store::VerifyProblem &p : problems)
        std::printf("%s: %s: %s\n", p.file.c_str(), p.kind.c_str(),
                    p.detail.c_str());
    if (!problems.empty()) {
        std::printf("tmstore verify: %zu problem%s\n", problems.size(),
                    problems.size() == 1 ? "" : "s");
        return 1;
    }
    std::printf("tmstore verify: clean (%llu runs)\n",
                static_cast<unsigned long long>(study.runCount()));
    return 0;
}

int
cmdRefit(const store::StudyReader &study, int argc, char **argv,
         int first)
{
    analysis::FactorialFitParams params;
    if (!study.meta().quantiles.empty())
        params.quantiles = study.meta().quantiles;
    bool json = false;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quantiles" && i + 1 < argc) {
            params.quantiles = parseQuantiles(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            params.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--bootstrap" && i + 1 < argc) {
            params.bootstrapReplicates =
                std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--json") {
            json = true;
        } else {
            std::fprintf(stderr, "tmstore refit: unknown option %s\n",
                         arg.c_str());
            return usage();
        }
    }
    const std::vector<analysis::QuantileModel> models =
        analysis::refitFromStore(study, params);
    if (json) {
        std::printf("%s\n",
                    analysis::toJson(models).dumpPretty().c_str());
    } else {
        std::printf(
            "%s",
            analysis::renderCoefficientTable(models).c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string command = argv[1];
    const std::string dir = argv[2];
    try {
        const store::StudyReader study(dir);
        if (command == "ls")
            return cmdLs(study);
        if (command == "cat") {
            if (argc < 4)
                return usage();
            return cmdCat(study,
                          std::strtoull(argv[3], nullptr, 10));
        }
        if (command == "verify")
            return cmdVerify(study);
        if (command == "refit")
            return cmdRefit(study, argc, argv, 3);
        std::fprintf(stderr, "tmstore: unknown command %s\n",
                     command.c_str());
        return usage();
    } catch (const treadmill::Error &e) {
        std::fprintf(stderr, "tmstore: %s\n", e.what());
        return 2;
    }
}
