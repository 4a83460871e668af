/**
 * @file
 * Job journal for resumable sweeps and campaigns (DESIGN.md §14).
 *
 * The journal is a single append-only file, DIR/journal.log, written
 * by the sweep runner when SweepOptions::journalDir is set. Every
 * record is independently framed and checksummed:
 *
 *   <tag> <payload-bytes> <fnv1a64-hex16> <payload>\n
 *
 * with tags H (header: version and sweep name) and D (job done: the
 * full per-job report JSON, fsynced on completion). The payload is
 * compact JSON (no raw newlines — the serializer escapes control
 * characters), so a journal is also greppable line-by-line.
 *
 * Crash consistency is the whole point of the framing: a supervisor
 * killed mid-write leaves a partial trailing record, and a corrupt or
 * truncated record fails its length/checksum/parse check. The loader
 * stops at the FIRST invalid record and discards everything after it
 * — a job whose D record is damaged therefore counts as not done
 * (re-run on --resume, like every job without a valid D record),
 * never as silently complete. Re-running a job is always safe
 * (deterministic universes); skipping one never is.
 */

#ifndef PIRANHA_HARNESS_JOURNAL_H
#define PIRANHA_HARNESS_JOURNAL_H

#include <cstdint>
#include <map>
#include <string>

#include "harness/sweep.h"

namespace piranha {

/** FNV-1a 64-bit hash (journal record checksums). */
std::uint64_t fnv1a64(const void *data, std::size_t len);

/** Append-only, fsynced journal writer for one sweep. */
class JobJournal
{
  public:
    /** Current journal format version (H record "version"). */
    static constexpr unsigned kVersion = 2;

    /** What load() recovered from an existing journal. */
    struct Recovery
    {
        unsigned version = 0;     //!< 0 when the file had no header
        std::string sweepName;    //!< from the H record

        /** label -> final recorded result (last D record wins). */
        std::map<std::string, JobResult> done;

        /** The tail of the file was truncated, corrupt, or garbage;
         *  every record after the damage was discarded. */
        bool truncated = false;
    };

    /** True when DIR holds a journal file. */
    static bool exists(const std::string &dir);

    /**
     * Parse DIR/journal.log. A missing file yields an empty Recovery;
     * an unsupported version throws std::runtime_error (resuming
     * under the wrong format must fail loudly, not re-run silently).
     * A D record that passes its checksum but does not parse, or
     * holds values off the JobResult schema, is damage like a cut
     * record: loading stops there.
     */
    static Recovery load(const std::string &dir);

    /**
     * Open DIR/journal.log for appending (creating DIR as needed).
     * When the file is empty/new, writes the H header; @p append
     * false truncates any previous journal first (a fresh, non-resume
     * run must not splice onto a stale journal).
     */
    JobJournal(const std::string &dir, const std::string &sweep_name,
               bool append);
    ~JobJournal();

    JobJournal(const JobJournal &) = delete;
    JobJournal &operator=(const JobJournal &) = delete;

    /** Final record for a finished job (any terminal status). fsyncs
     *  so a supervisor crash right after cannot lose the result. */
    void recordDone(const JobResult &jr, bool include_stat_tree);

    const std::string &path() const { return _path; }

    /** Journal file path under @p dir. */
    static std::string filePath(const std::string &dir);

  private:
    void writeRecord(char tag, const std::string &payload);

    int _fd = -1;
    std::string _path;
};

} // namespace piranha

#endif // PIRANHA_HARNESS_JOURNAL_H
