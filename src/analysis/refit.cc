#include "analysis/refit.h"

#include <algorithm>

#include "obs/span.h"
#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace analysis {

std::vector<QuantileModel>
refitFromStore(const store::StudyReader &study,
               const FactorialFitParams &params)
{
    std::vector<std::vector<double>> levels;
    std::map<double, std::vector<double>> responses;
    levels.reserve(static_cast<std::size_t>(study.runCount()));
    for (std::uint64_t seq = 0; seq < study.runCount(); ++seq) {
        const store::RunReader run = study.openRun(seq);
        levels.push_back(
            run.doubles(store::ColumnId::FactorLevels).toVector());
        const auto taus = run.doubles(store::ColumnId::QuantileTaus);
        const auto values = run.doubles(store::ColumnId::QuantileValues);
        for (double tau : params.quantiles) {
            const double *it = std::find(taus.begin(), taus.end(), tau);
            if (it == taus.end()) {
                std::vector<std::string> have;
                for (double t : taus)
                    have.push_back(strprintf("%g", t));
                throw ConfigError(strprintf(
                    "run %llu did not snapshot tau %g (snapshotted: "
                    "%s); a refit reads only snapshotted taus",
                    static_cast<unsigned long long>(seq), tau,
                    join(have, ", ").c_str()));
            }
            responses[tau].push_back(values[static_cast<std::size_t>(
                it - taus.begin())]);
        }
    }
    return fitFactorialModels(regress::FactorialDesign(study.meta().factors),
                              levels, responses, params);
}

std::map<double, std::vector<StoredProvenanceRank>>
provenanceRankFromStore(const store::StudyReader &study)
{
    // (tau, kind) -> accumulated mean/share and contributing runs.
    std::map<double, std::map<std::uint64_t, StoredProvenanceRank>>
        acc;
    for (std::uint64_t seq = 0; seq < study.runCount(); ++seq) {
        const store::RunReader run = study.openRun(seq);
        if (!run.has(store::ColumnId::ProvenanceTaus))
            continue;
        const store::RunRecord rec = run.record();
        for (const store::ProvenanceRow &row : rec.provenance) {
            StoredProvenanceRank &rank = acc[row.tau][row.kind];
            rank.kind = row.kind;
            rank.meanUs += row.meanUs;
            rank.share += row.share;
            ++rank.runs;
        }
    }

    const std::vector<std::string> &names = obs::segmentKindNames();
    std::map<double, std::vector<StoredProvenanceRank>> out;
    for (auto &[tau, kinds] : acc) {
        std::vector<StoredProvenanceRank> ranked;
        ranked.reserve(kinds.size());
        for (auto &[kind, rank] : kinds) {
            rank.meanUs /= static_cast<double>(rank.runs);
            rank.share /= static_cast<double>(rank.runs);
            rank.name = kind < names.size()
                            ? names[static_cast<std::size_t>(kind)]
                            : strprintf("segment-%llu",
                                        static_cast<unsigned long long>(
                                            kind));
            ranked.push_back(rank);
        }
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const StoredProvenanceRank &a,
                            const StoredProvenanceRank &b) {
                             return a.share > b.share;
                         });
        out[tau] = std::move(ranked);
    }
    return out;
}

} // namespace analysis
} // namespace treadmill
