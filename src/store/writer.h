/**
 * @file
 * StudyWriter: append runs to a columnar study archive.
 *
 * Durability model: every file (manifest and run records alike) is
 * written to a sibling ".tmp" path and atomically renamed into place,
 * so a crash mid-write leaves either the old file, no file, or an
 * orphaned temp -- never a half-written record under its real name.
 * StudyReader ignores temp files and verify() reports them, giving
 * the partial-write recovery path a visible, typed surface.
 *
 * Concurrency model: writeRun(seq, record) is thread-safe and
 * seq-addressed. Each sequence number maps to its own file whose
 * bytes depend only on the record, so the StudyDriver's workers can
 * persist runs in any completion order and the archive still comes
 * out byte-identical to the serial schedule.
 */

#ifndef TREADMILL_STORE_WRITER_H_
#define TREADMILL_STORE_WRITER_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "store/record.h"

namespace treadmill {
namespace store {

/** Serialize one run record to its on-disk byte image. */
std::vector<std::uint64_t> encodeRunRecord(const RunRecord &record,
                                           std::uint64_t runSeq);

/** Byte size of an encoded record (the image is 8-byte granular). */
std::size_t encodedByteSize(const std::vector<std::uint64_t> &image);

class StudyWriter
{
  public:
    struct Options {
        /** Remove any existing manifest/run/temp files first. Without
         *  it, a non-empty study directory is a ConfigError. */
        bool overwrite = false;
    };

    /**
     * Create the study directory (and its runs/ subdirectory) and
     * write the initial manifest.
     *
     * @throws ConfigError when the directory already holds a study
     *         and overwrite is not set.
     */
    StudyWriter(const std::string &directory, StudyMeta meta,
                const Options &options);
    StudyWriter(const std::string &directory, StudyMeta meta)
        : StudyWriter(directory, std::move(meta), Options{false})
    {
    }

    /** Persist @p record as run @p seq. Thread-safe; any seq order. */
    void writeRun(std::uint64_t seq, const RunRecord &record);

    /** Persist @p record under the next unused sequence number. */
    std::uint64_t append(const RunRecord &record);

    /**
     * Finalize the manifest with the run count written so far.
     *
     * @throws StoreError when the written sequence numbers leave a
     *         gap (the archive would lie about its run count).
     */
    void finish();

    /** Study directory this writer owns. */
    const std::string &directory() const { return dir; }

    /** The (mutable run count aside) metadata being written. */
    const StudyMeta &meta() const { return studyMeta; }

  private:
    void writeManifest(std::uint64_t runCount);

    std::string dir;
    StudyMeta studyMeta;
    std::mutex mutex;
    std::set<std::uint64_t> written; // tm:guarded_by(mutex)
};

/** Atomically write @p bytes to @p path via a ".tmp" sibling. */
void atomicWriteFile(const std::string &path, const void *data,
                     std::size_t size);

} // namespace store
} // namespace treadmill

#endif // TREADMILL_STORE_WRITER_H_
