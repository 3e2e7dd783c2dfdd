#include "store/writer.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "store/errors.h"
#include "store/format.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/json.h"
#include "util/strings.h"

namespace treadmill {
namespace store {

namespace fs = std::filesystem;

namespace {

std::string
runFileName(std::uint64_t seq)
{
    return strprintf("run-%06llu%s",
                     static_cast<unsigned long long>(seq), kRunSuffix);
}

/** Append raw bytes to the 8-byte-granular image, zero-padding the
 *  tail word so identical records give identical files. */
void
appendBytes(std::vector<std::uint64_t> &image, std::size_t &cursor,
            const void *data, std::size_t size)
{
    const std::size_t words = (cursor + size + 7) / 8;
    if (image.size() < words)
        image.resize(words, 0);
    std::memcpy(reinterpret_cast<char *>(image.data()) + cursor, data,
                size);
    cursor += size;
}

struct PendingColumn {
    ColumnId id;
    Encoding encoding;
    const void *data;
    std::uint64_t count; ///< Elements (bytes for Encoding::Bytes).
};

} // namespace

std::vector<std::uint64_t>
encodeRunRecord(const RunRecord &record, std::uint64_t runSeq)
{
    if (record.quantileTaus.size() != record.quantileUs.size())
        throw ConfigError(
            "RunRecord quantileTaus/quantileUs size mismatch");

    const double scalars[kScalarCount] = {
        record.targetRps, record.achievedRps,
        record.serverUtilization, record.simulatedSeconds};

    // Flatten the provenance rows into parallel columns.
    std::vector<double> provTaus, provMeans, provShares;
    std::vector<std::uint64_t> provKinds;
    provTaus.reserve(record.provenance.size());
    for (const ProvenanceRow &row : record.provenance) {
        provTaus.push_back(row.tau);
        provKinds.push_back(row.kind);
        provMeans.push_back(row.meanUs);
        provShares.push_back(row.share);
    }

    // Columns in ascending ColumnId order (a format invariant).
    std::vector<PendingColumn> columns;
    columns.push_back({ColumnId::Seed, Encoding::U64, &record.seed, 1});
    columns.push_back({ColumnId::FactorLevels, Encoding::F64,
                       record.factorLevels.data(),
                       record.factorLevels.size()});
    columns.push_back({ColumnId::QuantileTaus, Encoding::F64,
                       record.quantileTaus.data(),
                       record.quantileTaus.size()});
    columns.push_back({ColumnId::QuantileValues, Encoding::F64,
                       record.quantileUs.data(),
                       record.quantileUs.size()});
    columns.push_back({ColumnId::Reservoir, Encoding::F64,
                       record.reservoir.data(),
                       record.reservoir.size()});
    columns.push_back({ColumnId::ReservoirSeen, Encoding::U64,
                       &record.reservoirSeen, 1});
    columns.push_back({ColumnId::ReservoirCapacity, Encoding::U64,
                       &record.reservoirCapacity, 1});
    columns.push_back(
        {ColumnId::Scalars, Encoding::F64, scalars, kScalarCount});
    columns.push_back({ColumnId::ConfigDigest, Encoding::U64,
                       &record.configDigest, 1});
    columns.push_back({ColumnId::MetricsJson, Encoding::Bytes,
                       record.metricsJson.data(),
                       record.metricsJson.size()});
    if (!record.provenance.empty()) {
        columns.push_back({ColumnId::ProvenanceTaus, Encoding::F64,
                           provTaus.data(), provTaus.size()});
        columns.push_back({ColumnId::ProvenanceKinds, Encoding::U64,
                           provKinds.data(), provKinds.size()});
        columns.push_back({ColumnId::ProvenanceMeans, Encoding::F64,
                           provMeans.data(), provMeans.size()});
        columns.push_back({ColumnId::ProvenanceShares, Encoding::F64,
                           provShares.data(), provShares.size()});
    }

    FileHeader header;
    header.columnCount = static_cast<std::uint32_t>(columns.size());
    header.runSeq = runSeq;

    const std::size_t tableBytes = sizeof(FileHeader) +
                                   columns.size() * sizeof(ColumnDesc) +
                                   8; // tableCrc + pad
    std::uint64_t offset = tableBytes; // already 8-aligned

    std::vector<ColumnDesc> descs;
    descs.reserve(columns.size());
    for (const PendingColumn &col : columns) {
        ColumnDesc d;
        d.id = static_cast<std::uint32_t>(col.id);
        d.encoding = static_cast<std::uint32_t>(col.encoding);
        d.offset = offset;
        d.count = col.count;
        const std::uint64_t bytes =
            payloadBytes(col.encoding, col.count);
        d.crc = crc32(col.count != 0 ? col.data : "",
                      static_cast<std::size_t>(bytes));
        descs.push_back(d);
        offset += (bytes + 7) / 8 * 8; // keep payloads 8-aligned
    }

    std::vector<std::uint64_t> image;
    image.reserve(static_cast<std::size_t>((offset + 7) / 8));
    std::size_t cursor = 0;
    appendBytes(image, cursor, &header, sizeof header);
    appendBytes(image, cursor, descs.data(),
                descs.size() * sizeof(ColumnDesc));
    const std::uint32_t tableCrc =
        crc32(image.data(), cursor); // header + descriptors
    const std::uint32_t pad = 0;
    appendBytes(image, cursor, &tableCrc, sizeof tableCrc);
    appendBytes(image, cursor, &pad, sizeof pad);

    for (std::size_t i = 0; i < columns.size(); ++i) {
        // Zero-fill any gap introduced by 8-alignment.
        cursor = static_cast<std::size_t>(descs[i].offset);
        const std::uint64_t bytes = payloadBytes(
            static_cast<Encoding>(descs[i].encoding), descs[i].count);
        if (bytes != 0)
            appendBytes(image, cursor, columns[i].data,
                        static_cast<std::size_t>(bytes));
    }
    // The image's logical size is `offset`; resize to the final word
    // boundary (resize in appendBytes already zero-padded the tail).
    image.resize(static_cast<std::size_t>((offset + 7) / 8), 0);
    return image;
}

std::size_t
encodedByteSize(const std::vector<std::uint64_t> &image)
{
    return image.size() * 8;
}

void
atomicWriteFile(const std::string &path, const void *data,
                std::size_t size)
{
    const std::string tmp = path + kTmpSuffix;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw StoreError("cannot open for writing: " + tmp);
        out.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(size));
        out.flush();
        if (!out.good())
            throw StoreError("short write to " + tmp);
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        throw StoreError("cannot rename " + tmp + " to " + path + ": " +
                         ec.message());
}

StudyWriter::StudyWriter(const std::string &directory, StudyMeta meta,
                         const Options &options)
    : dir(directory), studyMeta(std::move(meta))
{
    std::error_code ec;
    fs::create_directories(fs::path(dir) / kRunDirName, ec);
    if (ec)
        throw StoreError("cannot create study directory " + dir + ": " +
                         ec.message());

    const fs::path manifest = fs::path(dir) / kManifestName;
    if (fs::exists(manifest)) {
        if (!options.overwrite)
            throw ConfigError("study directory already holds a "
                              "manifest: " +
                              dir + " (pass overwrite to replace)");
        // Deterministically clear the previous study's artifacts.
        fs::remove(manifest);
        fs::remove(fs::path(dir) / kModelsName);
        for (const auto &entry :
             fs::directory_iterator(fs::path(dir) / kRunDirName))
            fs::remove(entry.path());
    }

    studyMeta.runCount = 0;
    writeManifest(0);
}

void
StudyWriter::writeManifest(std::uint64_t runCount)
{
    json::Object doc;
    doc["schema"] = json::Value(kManifestSchema);
    doc["study"] = json::Value(studyMeta.name);
    json::Array factors;
    for (const std::string &f : studyMeta.factors)
        factors.push_back(json::Value(f));
    doc["factors"] = json::Value(std::move(factors));
    json::Array taus;
    for (double q : studyMeta.quantiles)
        taus.push_back(json::Value(q));
    doc["quantiles"] = json::Value(std::move(taus));
    doc["config_digest"] = json::Value(
        strprintf("0x%016llx", static_cast<unsigned long long>(
                                   studyMeta.configDigest)));
    doc["runs"] =
        json::Value(static_cast<std::int64_t>(runCount));
    const std::string text =
        json::Value(std::move(doc)).dumpPretty() + "\n";
    atomicWriteFile((fs::path(dir) / kManifestName).string(),
                    text.data(), text.size());
}

void
StudyWriter::writeRun(std::uint64_t seq, const RunRecord &record)
{
    if (record.factorLevels.size() != studyMeta.factors.size())
        throw ConfigError(strprintf(
            "run %llu has %zu factor levels, study declares %zu",
            static_cast<unsigned long long>(seq),
            record.factorLevels.size(), studyMeta.factors.size()));

    const std::vector<std::uint64_t> image =
        encodeRunRecord(record, seq);
    const std::string path =
        (fs::path(dir) / kRunDirName / runFileName(seq)).string();
    atomicWriteFile(path, image.data(), encodedByteSize(image));

    std::lock_guard<std::mutex> lock(mutex);
    written.insert(seq);
}

std::uint64_t
StudyWriter::append(const RunRecord &record)
{
    std::uint64_t seq = 0;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!written.empty())
            seq = *written.rbegin() + 1;
    }
    writeRun(seq, record);
    return seq;
}

void
StudyWriter::finish()
{
    std::uint64_t count = 0;
    {
        std::lock_guard<std::mutex> lock(mutex);
        count = written.size();
        if (!written.empty() && *written.rbegin() != count - 1)
            throw StoreError(strprintf(
                "study %s has a sequence gap: %llu runs written but "
                "highest seq is %llu",
                dir.c_str(), static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(*written.rbegin())));
    }
    studyMeta.runCount = count;
    writeManifest(count);
}

} // namespace store
} // namespace treadmill
