/**
 * @file
 * Tests for the write-ahead job journal (src/harness/journal.*) and
 * the JobResult JSON round trip it depends on: framed/checksummed
 * records, damage detection (truncated tails, corrupt bytes, garbage
 * appends — the damaged job counts as not done and re-runs, never
 * silently skipped), version gating, and --resume producing reports
 * bit-identical to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/piranha.h"
#include "harness/journal.h"

namespace piranha {
namespace {

namespace fs = std::filesystem;

/** Unique scratch directory, removed on scope exit. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "piranha_journal_XXXXXX")
                .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (!::mkdtemp(buf.data()))
            throw std::runtime_error("mkdtemp failed");
        path = buf.data();
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    std::string dir() const { return path.string(); }
};

std::string
readJournalFile(const std::string &dir)
{
    std::ifstream is(JobJournal::filePath(dir), std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

void
writeJournalFile(const std::string &dir, const std::string &text)
{
    std::ofstream os(JobJournal::filePath(dir),
                     std::ios::binary | std::ios::trunc);
    os << text;
}

/** One journal record with a valid length and checksum. */
std::string
frameRecord(char tag, const std::string &payload)
{
    char head[64];
    std::snprintf(head, sizeof(head), "%c %zu %016llx ", tag,
                  payload.size(),
                  static_cast<unsigned long long>(
                      fnv1a64(payload.data(), payload.size())));
    return head + payload + "\n";
}

WorkloadFactory
oltpFactory()
{
    return [] { return std::make_unique<OltpWorkload>(); };
}

SweepPoint
simPoint(std::string label, unsigned cpus = 2,
         std::uint64_t work = 48)
{
    SweepPoint pt;
    pt.label = std::move(label);
    pt.config = configPn(cpus);
    pt.workload = WorkloadDecl{"OLTP", oltpFactory(), work};
    return pt;
}

JobResult
runSimJob(const std::string &label)
{
    return SweepRunner(SweepOptions{.threads = 1})
        .runJob(simPoint(label));
}

// ---------------------------------------------------------------------
// JobResult <-> JSON round trip (the journal's payload format).

TEST(JobResultJson, OkJobRoundTripsEveryReportField)
{
    JobResult a = runSimJob("rt");
    ASSERT_EQ(a.status, JobStatus::Ok);
    ASSERT_FALSE(a.stats.empty());
    ASSERT_FALSE(a.statTree.isNull());

    JobResult b = jobResultFromJson(jobResultToJson(a));
    EXPECT_EQ(b.label, a.label);
    EXPECT_EQ(b.status, a.status);
    EXPECT_EQ(b.stats, a.stats);
    EXPECT_EQ(b.statTree.dump(), a.statTree.dump());
    EXPECT_EQ(b.attempts, a.attempts);
    EXPECT_DOUBLE_EQ(b.hostSeconds, a.hostSeconds);
    // And the serialization itself is a fixed point: what the report
    // emits for a journal-recovered job is byte-identical to what it
    // emits for the original.
    EXPECT_EQ(jobResultToJson(b).dump(), jobResultToJson(a).dump());
}

TEST(JobResultJson, FailureMetadataRoundTrips)
{
    JobResult a;
    a.label = "boom";
    a.status = JobStatus::Failed;
    a.error = "worker killed by signal 11 (Segmentation fault)";
    a.attempts = 3;
    a.exitClass = "signal";
    a.crashReport = "worker crash: signal 11\nstate dump...";
    a.payload = JsonValue::object();
    a.payload.set("seed", 7.0);

    JobResult b = jobResultFromJson(jobResultToJson(a));
    EXPECT_EQ(b.status, JobStatus::Failed);
    EXPECT_EQ(b.error, a.error);
    EXPECT_EQ(b.attempts, 3u);
    EXPECT_EQ(b.exitClass, "signal");
    EXPECT_EQ(b.crashReport, a.crashReport);
    EXPECT_EQ(b.payload.dump(), a.payload.dump());
}

TEST(JobResultJson, UnknownStatusNameThrows)
{
    EXPECT_THROW(jobStatusFromName("exploded"), std::runtime_error);
}

// ---------------------------------------------------------------------
// Journal record framing and recovery.

TEST(JobJournal, RecordsStartAndDoneAndLoadsThemBack)
{
    TempDir tmp;
    JobResult jr = runSimJob("j1");
    {
        // j2 is launched too but never finishes: no record names it.
        JobJournal j(tmp.dir(), "mysweep", false);
        j.recordDone(jr, true);
    }
    ASSERT_TRUE(JobJournal::exists(tmp.dir()));

    JobJournal::Recovery rec = JobJournal::load(tmp.dir());
    EXPECT_EQ(rec.version, JobJournal::kVersion);
    EXPECT_EQ(rec.sweepName, "mysweep");
    EXPECT_FALSE(rec.truncated);
    ASSERT_EQ(rec.done.count("j1"), 1u);
    EXPECT_EQ(rec.done.at("j1").stats, jr.stats);
    EXPECT_EQ(rec.done.at("j1").statTree.dump(), jr.statTree.dump());
    EXPECT_EQ(rec.done.count("j2"), 0u);
}

TEST(JobJournal, TruncatedTailTreatsJobAsInFlight)
{
    TempDir tmp;
    JobResult jr = runSimJob("j1");
    {
        JobJournal j(tmp.dir(), "s", false);
        j.recordDone(jr, true);
    }
    // Simulate a crash mid-write of the D record: cut the file inside
    // the record's payload.
    std::string text = readJournalFile(tmp.dir());
    writeJournalFile(tmp.dir(), text.substr(0, text.size() - 40));

    JobJournal::Recovery rec = JobJournal::load(tmp.dir());
    EXPECT_TRUE(rec.truncated);
    EXPECT_EQ(rec.done.count("j1"), 0u); // re-run, never silently skip
}

TEST(JobJournal, CorruptPayloadByteFailsChecksumAndStopsLoad)
{
    TempDir tmp;
    JobResult j1 = runSimJob("j1");
    JobResult j2 = runSimJob("j2");
    {
        JobJournal j(tmp.dir(), "s", false);
        j.recordDone(j1, true);
        j.recordDone(j2, true);
    }
    std::string text = readJournalFile(tmp.dir());
    // Flip one byte inside the FIRST D record's payload (find the
    // record by its tag after the header).
    std::size_t d1 = text.find("\nD ");
    ASSERT_NE(d1, std::string::npos);
    text[d1 + 40] ^= 0x20;
    writeJournalFile(tmp.dir(), text);

    // The checksum catches the damage, and NOTHING after the damaged
    // record survives — a half-trusted journal is worse than a short
    // one, because re-running is always safe and skipping never is.
    JobJournal::Recovery rec = JobJournal::load(tmp.dir());
    EXPECT_TRUE(rec.truncated);
    EXPECT_EQ(rec.done.size(), 0u);
}

TEST(JobJournal, GarbageAppendIsIgnored)
{
    TempDir tmp;
    JobResult jr = runSimJob("j1");
    {
        JobJournal j(tmp.dir(), "s", false);
        j.recordDone(jr, true);
    }
    std::string text = readJournalFile(tmp.dir());
    writeJournalFile(tmp.dir(),
                     text + "Z 12 0123456789abcdef lorem ipsum\n" +
                         "not a record at all");

    JobJournal::Recovery rec = JobJournal::load(tmp.dir());
    EXPECT_TRUE(rec.truncated);
    EXPECT_EQ(rec.done.count("j1"), 1u); // valid prefix still loads
}

TEST(JobJournal, UnsupportedVersionThrows)
{
    TempDir tmp;
    {
        JobJournal j(tmp.dir(), "s", false);
    }
    // Rewrite the header with a future version, fixing up length and
    // checksum so only the version check can object.
    writeJournalFile(tmp.dir(),
                     frameRecord('H', "{\"version\": 99, \"sweep\": \"s\"}"));
    EXPECT_THROW(JobJournal::load(tmp.dir()), std::runtime_error);
}

// A record can pass its checksum and parse as JSON yet hold values no
// JobResult can: each such D record is damage, like a cut one.
struct BadRecord
{
    const char *name;
    const char *payload; //!< of a D record
};

// gtest prints the parameter into each ctest case name; print the
// name, not the struct's bytes (pointers and padding).
void
PrintTo(const BadRecord &r, std::ostream *os)
{
    *os << r.name;
}

class JournalBadRecordTest : public ::testing::TestWithParam<BadRecord>
{
};

TEST_P(JournalBadRecordTest, CountsAsDamageAndLeavesTheJobInFlight)
{
    TempDir tmp;
    {
        JobJournal j(tmp.dir(), "s", false);
    }
    writeJournalFile(tmp.dir(),
                     readJournalFile(tmp.dir()) +
                         frameRecord('D', GetParam().payload));
    JobJournal::Recovery rec = JobJournal::load(tmp.dir());
    EXPECT_TRUE(rec.truncated);
    EXPECT_TRUE(rec.done.empty());
    // The worker pipe parses results with the same function.
    EXPECT_THROW(jobResultFromJson(parseJson(GetParam().payload)),
                 std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(
    OffSchema, JournalBadRecordTest,
    ::testing::Values(
        BadRecord{"unknown_status",
                  R"({"label": "j1", "status": "bogus"})"},
        BadRecord{"negative_attempts",
                  R"({"label": "j1", "status": "ok", "attempts": -1})"},
        BadRecord{"huge_attempts",
                  R"({"label": "j1", "status": "ok", "attempts": 1e300})"},
        BadRecord{"fractional_attempts",
                  R"({"label": "j1", "status": "ok", "attempts": 1.5})"},
        BadRecord{"numeric_label", R"({"label": 7, "status": "ok"})"}),
    [](const ::testing::TestParamInfo<BadRecord> &info) {
        return std::string(info.param.name);
    });

TEST(JobJournal, FreshRunTruncatesStaleJournal)
{
    TempDir tmp;
    {
        JobJournal j(tmp.dir(), "old", false);
        j.recordDone(runSimJob("stale"), true);
    }
    {
        JobJournal j(tmp.dir(), "new", false); // append = false
    }
    JobJournal::Recovery rec = JobJournal::load(tmp.dir());
    EXPECT_EQ(rec.sweepName, "new");
    EXPECT_TRUE(rec.done.empty());
}

// ---------------------------------------------------------------------
// Resume through the sweep runner.

/** Identity key: the fields the bit-identity contract covers. */
std::string
identityKey(const SweepReport &r)
{
    std::string key;
    for (const JobResult &j : r.jobs) {
        key += j.label;
        key += '|';
        key += jobStatusName(j.status);
        for (const auto &[k, v] : j.stats) {
            key += '|';
            key += k;
            key += '=';
            key += JsonValue(v).dump(0);
        }
        key += '|';
        key += j.statTree.dump(0);
        key += '\n';
    }
    return key;
}

TEST(JournalResume, ResumedReportIsBitIdenticalToUninterrupted)
{
    std::vector<SweepPoint> pts;
    for (int i = 0; i < 4; ++i)
        pts.push_back(simPoint("job" + std::to_string(i)));

    SweepOptions clean_opts{.threads = 1};
    SweepReport clean =
        SweepRunner(clean_opts).run("resume_sweep", pts);

    // Interrupted run: journal on, and only the first two jobs
    // "completed" before the crash — emulated by running a 2-point
    // prefix under the same sweep name.
    TempDir tmp;
    {
        SweepOptions opts{.threads = 1};
        opts.journalDir = tmp.dir();
        std::vector<SweepPoint> prefix(pts.begin(), pts.begin() + 2);
        SweepRunner(opts).run("resume_sweep", prefix);
    }

    // Resume over the full point set: 2 recovered, 2 executed.
    SweepOptions opts{.threads = 1};
    opts.journalDir = tmp.dir();
    opts.resume = true;
    SweepReport resumed = SweepRunner(opts).run("resume_sweep", pts);

    EXPECT_TRUE(resumed.jobs[0].fromJournal);
    EXPECT_TRUE(resumed.jobs[1].fromJournal);
    EXPECT_FALSE(resumed.jobs[2].fromJournal);
    EXPECT_FALSE(resumed.jobs[3].fromJournal);
    EXPECT_EQ(identityKey(resumed), identityKey(clean));

    // A second resume recovers everything (the journal accumulated
    // the re-run jobs' D records) and still matches.
    SweepReport again = SweepRunner(opts).run("resume_sweep", pts);
    for (const JobResult &j : again.jobs)
        EXPECT_TRUE(j.fromJournal);
    EXPECT_EQ(identityKey(again), identityKey(clean));
}

TEST(JournalResume, DamagedDoneRecordIsReRunNotSkipped)
{
    std::vector<SweepPoint> pts = {simPoint("a"), simPoint("b")};
    TempDir tmp;
    {
        SweepOptions opts{.threads = 1};
        opts.journalDir = tmp.dir();
        SweepRunner(opts).run("s", pts);
    }
    // Corrupt the LAST job's D record (cut mid-payload, as a SIGKILL
    // mid-journal-write would).
    std::string text = readJournalFile(tmp.dir());
    std::size_t d = text.rfind("\nD ");
    ASSERT_NE(d, std::string::npos);
    writeJournalFile(tmp.dir(), text.substr(0, d + 60));

    SweepOptions opts{.threads = 1};
    opts.journalDir = tmp.dir();
    opts.resume = true;
    SweepReport resumed = SweepRunner(opts).run("s", pts);
    EXPECT_TRUE(resumed.jobs[0].fromJournal);
    EXPECT_FALSE(resumed.jobs[1].fromJournal); // re-executed
    EXPECT_EQ(resumed.jobs[1].status, JobStatus::Ok);

    SweepReport clean =
        SweepRunner(SweepOptions{.threads = 1}).run("s", pts);
    EXPECT_EQ(identityKey(resumed), identityKey(clean));
}

TEST(JournalResume, ResumingAcrossSweepNamesThrows)
{
    TempDir tmp;
    std::vector<SweepPoint> pts = {simPoint("a")};
    {
        SweepOptions opts{.threads = 1};
        opts.journalDir = tmp.dir();
        SweepRunner(opts).run("sweep_one", pts);
    }
    SweepOptions opts{.threads = 1};
    opts.journalDir = tmp.dir();
    opts.resume = true;
    EXPECT_THROW(SweepRunner(opts).run("sweep_two", pts),
                 std::runtime_error);
}

TEST(JournalResume, CampaignResumeMatchesUninterruptedHistogram)
{
    CampaignSpec spec;
    spec.name = "journal_campaign";
    spec.config = configPn(2);
    spec.workload = WorkloadDecl{"OLTP", oltpFactory(), 32};
    spec.injections = 4;
    spec.planTemplate.count = 1;

    SweepOptions clean_opts{.threads = 1};
    CampaignReport clean = CampaignRunner(clean_opts).run(spec);

    TempDir tmp;
    {
        SweepOptions opts{.threads = 1};
        opts.journalDir = tmp.dir();
        CampaignSpec prefix = spec;
        prefix.injections = 2;
        CampaignRunner(opts).run(prefix);
    }
    SweepOptions opts{.threads = 1};
    opts.journalDir = tmp.dir();
    opts.resume = true;
    CampaignReport resumed = CampaignRunner(opts).run(spec);

    // The injection records ride the job payload through the journal,
    // so the resumed campaign is indistinguishable from a clean one.
    ASSERT_EQ(resumed.runs.size(), clean.runs.size());
    EXPECT_EQ(resumed.histogram(), clean.histogram());
    for (std::size_t i = 0; i < clean.runs.size(); ++i) {
        EXPECT_EQ(resumed.runs[i].seed, clean.runs[i].seed);
        EXPECT_EQ(resumed.runs[i].outcome, clean.runs[i].outcome);
        EXPECT_EQ(resumed.runs[i].stats, clean.runs[i].stats);
    }
    EXPECT_EQ(injectionRecordToJson(resumed.runs[0]).dump(),
              injectionRecordToJson(clean.runs[0]).dump());
}

} // namespace
} // namespace piranha
