/**
 * @file
 * Trace subsystem tests (DESIGN.md §10): on-disk format round-trips,
 * chunked per-CPU indexing, truncation/corruption detection, the
 * recording shim's transparency, and the headline record → replay
 * bit-identity gate — same stat tree, same coherence trace, same
 * kernel event count as the live-generator run, across seeds and
 * both OLTP and DSS, single- and multi-chip.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

#include "check/trace.h"
#include "core/piranha.h"
#include "harness/sweep.h"
#include "stats/json_writer.h"

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
            (fs::temp_directory_path() / "piranha_trace_XXXXXX")
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

    std::string file(const std::string &name) const
    {
        return (path / name).string();
    }
};

std::vector<unsigned char>
readAll(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(is),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<unsigned char> &b)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(b.data()),
             static_cast<std::streamsize>(b.size()));
}

// ---------------------------------------------------------------
// Format-level round trips
// ---------------------------------------------------------------

TEST(TraceFormat, RecordEncodeDecodeRoundTrip)
{
    StreamOp op;
    op.kind = StreamOp::Kind::Store;
    op.pc = 0x120003ff0;
    op.count = 1;
    op.addr = 0xdeadbeef00;
    op.size = 4;
    op.value = 0x1122334455667788ull;
    op.atomic = true;

    // Backward branch: pc below the previous pc (negative delta).
    Addr prev_pc = 0x120004400;
    TraceRecord r = encodeOp(op, prev_pc, 1234, 2);
    EXPECT_LT(r.pcDelta, 0);
    EXPECT_EQ(r.workDelta, 2u);
    EXPECT_EQ(r.tickDelta, 1234u);

    StreamOp back = decodeOp(r, prev_pc);
    EXPECT_EQ(back.kind, op.kind);
    EXPECT_EQ(back.pc, op.pc);
    EXPECT_EQ(back.count, op.count);
    EXPECT_EQ(back.addr, op.addr);
    EXPECT_EQ(back.size, op.size);
    EXPECT_EQ(back.value, op.value);
    EXPECT_EQ(back.atomic, op.atomic);
}

TEST(TraceFormat, HeaderStringsClipAndRoundTrip)
{
    TraceFileHeader h;
    traceSetString(h.config, "P8");
    EXPECT_EQ(traceGetString(h.config), "P8");

    // Oversized names clip to the field minus the NUL terminator.
    std::string longname(200, 'x');
    traceSetString(h.workload, longname);
    EXPECT_EQ(traceGetString(h.workload),
              longname.substr(0, sizeof(h.workload) - 1));
}

// ---------------------------------------------------------------
// Writer → reader file round trips
// ---------------------------------------------------------------

TraceWriter::Meta
testMeta(unsigned ncpus)
{
    TraceWriter::Meta m;
    m.nodes = 1;
    m.cpusPerChip = ncpus;
    m.nCpus = ncpus;
    m.seed = 42;
    m.workPerCpu = 7;
    m.workload = "unit";
    m.config = "P8";
    m.label = "unit/label";
    return m;
}

TraceRecord
testRecord(unsigned cpu, unsigned i)
{
    TraceRecord r;
    r.kind = static_cast<std::uint8_t>(StreamOp::Kind::Load);
    r.count = 1;
    r.pcDelta = 4;
    r.addr = 0x1000 * cpu + 8 * i;
    r.size = 8;
    r.tickDelta = 10 + i;
    r.workDelta = (i % 3 == 0) ? 1 : 0;
    return r;
}

/** Write a small two-CPU trace with a tiny buffer so every CPU
 *  flushes several interleaved chunks. */
std::string
writeChunkedTrace(const TempDir &tmp, unsigned ncpus,
                  unsigned per_cpu, std::size_t buffer_records)
{
    std::string path = tmp.file("chunked.ptrace");
    TraceWriter w(path, testMeta(ncpus), buffer_records);
    for (unsigned i = 0; i < per_cpu; ++i)
        for (unsigned cpu = 0; cpu < ncpus; ++cpu)
            w.append(cpu, testRecord(cpu, i));
    w.finalize();
    return path;
}

TEST(TraceFile, ChunkedRoundTripPreservesPerCpuOrder)
{
    TempDir tmp;
    // 11 records per CPU with 4-record buffers: 3 chunks minimum per
    // CPU, interleaved in file order — the footer chunk index must
    // reassemble each CPU's stream contiguously and in order.
    const unsigned ncpus = 2, per_cpu = 11;
    std::string path = writeChunkedTrace(tmp, ncpus, per_cpu, 4);

    TraceReader r(path);
    EXPECT_EQ(r.header().seed, 42u);
    EXPECT_EQ(r.header().workPerCpu, 7u);
    EXPECT_EQ(r.workloadName(), "unit");
    EXPECT_EQ(r.configName(), "P8");
    EXPECT_EQ(r.label(), "unit/label");
    EXPECT_EQ(r.nCpus(), ncpus);
    EXPECT_EQ(r.totalRecords(), ncpus * per_cpu);

    for (unsigned cpu = 0; cpu < ncpus; ++cpu) {
        EXPECT_EQ(r.cpuFooter(cpu).records, per_cpu);
        TraceReader::Cursor cur = r.cursor(cpu);
        TraceRecord rec;
        unsigned i = 0;
        while (cur.next(rec)) {
            TraceRecord want = testRecord(cpu, i);
            EXPECT_EQ(std::memcmp(&rec, &want, sizeof(rec)), 0)
                << "cpu " << cpu << " record " << i;
            ++i;
        }
        EXPECT_EQ(i, per_cpu);
        // Random access through the chunk index agrees with the
        // cursor walk.
        TraceRecord mid = r.record(cpu, per_cpu / 2);
        TraceRecord want = testRecord(cpu, per_cpu / 2);
        EXPECT_EQ(std::memcmp(&mid, &want, sizeof(mid)), 0);
    }

    TraceReader::ValidateReport rep = TraceReader::validateFile(path);
    EXPECT_TRUE(rep.ok()) << (rep.problems.empty()
                                  ? "?"
                                  : rep.problems.front());
    EXPECT_EQ(rep.totalRecords, ncpus * per_cpu);
}

TEST(TraceFile, EmptyStreamsAreValid)
{
    TempDir tmp;
    std::string path = tmp.file("empty.ptrace");
    {
        TraceWriter w(path, testMeta(4));
        w.finalize();
    }
    TraceReader r(path);
    EXPECT_EQ(r.totalRecords(), 0u);
    for (unsigned cpu = 0; cpu < 4; ++cpu) {
        TraceReader::Cursor cur = r.cursor(cpu);
        TraceRecord rec;
        EXPECT_FALSE(cur.next(rec));
    }
    EXPECT_TRUE(TraceReader::validateFile(path).ok());
}

TEST(TraceFile, TruncationIsDetected)
{
    TempDir tmp;
    std::string path = writeChunkedTrace(tmp, 2, 11, 4);
    std::vector<unsigned char> bytes = readAll(path);

    // Cut the file anywhere before the trailer: an interrupted
    // recording must never parse as a complete trace.
    for (std::size_t keep :
         {bytes.size() - sizeof(TraceTrailer), bytes.size() / 2,
          sizeof(TraceFileHeader) + 13ul, 10ul}) {
        std::string cut = tmp.file("cut.ptrace");
        writeAll(cut, std::vector<unsigned char>(
                          bytes.begin(), bytes.begin() + keep));
        EXPECT_THROW(TraceReader r(cut), std::runtime_error)
            << "kept " << keep << " bytes";
        TraceReader::ValidateReport rep =
            TraceReader::validateFile(cut);
        EXPECT_FALSE(rep.ok()) << "kept " << keep;
        EXPECT_TRUE(rep.truncated) << "kept " << keep;
    }
}

TEST(TraceFile, CorruptHeaderIsRejected)
{
    TempDir tmp;
    std::string path = writeChunkedTrace(tmp, 1, 5, 4);
    std::vector<unsigned char> bytes = readAll(path);
    bytes[0] ^= 0xff; // header magic
    std::string bad = tmp.file("badmagic.ptrace");
    writeAll(bad, bytes);

    EXPECT_THROW(TraceReader r(bad), std::runtime_error);
    TraceReader::ValidateReport rep = TraceReader::validateFile(bad);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.truncated); // corruption, not a cut recording
}

TEST(TraceFile, CorruptRecordFailsChecksum)
{
    TempDir tmp;
    std::string path = writeChunkedTrace(tmp, 1, 5, 1024);
    std::vector<unsigned char> bytes = readAll(path);
    // Flip one bit inside the first record's payload (past the chunk
    // header). Structure stays intact; the per-CPU checksum must not.
    std::size_t off =
        sizeof(TraceFileHeader) + sizeof(TraceChunkHeader) + 16;
    bytes[off] ^= 0x01;
    std::string bad = tmp.file("badrec.ptrace");
    writeAll(bad, bytes);

    TraceReader::ValidateReport rep = TraceReader::validateFile(bad);
    EXPECT_TRUE(rep.structureOk);
    EXPECT_FALSE(rep.ok());
    bool checksum_flagged = false;
    for (const std::string &p : rep.problems)
        checksum_flagged |= p.find("checksum") != std::string::npos;
    EXPECT_TRUE(checksum_flagged);
}

// ---------------------------------------------------------------
// Recording shim + replay stream over a scripted source
// ---------------------------------------------------------------

/** Deterministic scripted stream with work increments. */
class ScriptStream : public InstrStream
{
  public:
    explicit ScriptStream(std::vector<StreamOp> ops)
        : _ops(std::move(ops))
    {}

    StreamOp next() override
    {
        if (_i >= _ops.size())
            return StreamOp{}; // Done
        StreamOp op = _ops[_i++];
        if (op.kind == StreamOp::Kind::Store)
            ++_work; // pretend each store completes one transaction
        return op;
    }

    std::uint64_t workDone() const override { return _work; }

  private:
    std::vector<StreamOp> _ops;
    std::size_t _i = 0;
    std::uint64_t _work = 0;
};

StreamOp
scriptOp(StreamOp::Kind k, Addr pc, std::uint32_t count, Addr addr)
{
    StreamOp op;
    op.kind = k;
    op.pc = pc;
    op.count = count;
    op.addr = addr;
    return op;
}

TEST(TraceShim, ScriptedStreamRecordsAndReplaysVerbatim)
{
    std::vector<StreamOp> script = {
        scriptOp(StreamOp::Kind::Compute, 0x1000, 12, 0),
        scriptOp(StreamOp::Kind::Load, 0x1030, 1, 0x8000),
        scriptOp(StreamOp::Kind::Idle, 0x1038, 50, 0),
        scriptOp(StreamOp::Kind::Store, 0x1040, 1, 0x8040),
        scriptOp(StreamOp::Kind::Wh64, 0x0fc0, 1, 0x8080), // back pc
        scriptOp(StreamOp::Kind::Done, 0, 1, 0),
    };

    TempDir tmp;
    std::string path = tmp.file("script.ptrace");
    EventQueue eq;
    {
        TraceWriter w(path, testMeta(1));
        RecordingStream rs(std::make_unique<ScriptStream>(script), w,
                           0, eq);
        // The shim must forward each op unchanged while recording it.
        for (const StreamOp &want : script) {
            StreamOp got = rs.next();
            EXPECT_EQ(got.kind, want.kind);
            EXPECT_EQ(got.pc, want.pc);
            EXPECT_EQ(got.count, want.count);
            EXPECT_EQ(got.addr, want.addr);
        }
        EXPECT_EQ(rs.workDone(), 1u);
        w.finalize();
        EXPECT_EQ(w.recordsWritten(), script.size());
    }

    auto reader = std::make_shared<const TraceReader>(path);
    TraceStream ts(reader, 0);
    for (const StreamOp &want : script) {
        StreamOp got = ts.next();
        EXPECT_EQ(got.kind, want.kind);
        EXPECT_EQ(got.pc, want.pc);
        EXPECT_EQ(got.count, want.count);
        EXPECT_EQ(got.addr, want.addr);
    }
    EXPECT_EQ(ts.workDone(), 1u);
    // Exhausted streams answer Done forever.
    EXPECT_EQ(ts.next().kind, StreamOp::Kind::Done);
    EXPECT_EQ(ts.next().kind, StreamOp::Kind::Done);
}

// ---------------------------------------------------------------
// Record → replay bit-identity through the full system
// ---------------------------------------------------------------

struct Snapshot
{
    RunResult run;
    std::string statDump;
    std::vector<TraceEvent> trace;
};

Snapshot
runOnce(SystemConfig cfg, Workload &wl, std::uint64_t work_per_cpu)
{
    CoherenceTracer tracer;
    cfg.chip.tracer = &tracer;
    PiranhaSystem sys(cfg);
    Snapshot s;
    s.run = sys.run(wl, work_per_cpu);
    s.statDump = statGroupToJson(sys.stats()).dump(0);
    s.trace = tracer.events();
    return s;
}

void
expectSnapshotsIdentical(const Snapshot &a, const Snapshot &b,
                         const std::string &what)
{
    // Full stat map including events_executed: replay runs the very
    // same event sequence, not merely an equivalent one.
    EXPECT_EQ(flattenRunResult(a.run), flattenRunResult(b.run))
        << what;
    EXPECT_EQ(a.run.eventsExecuted, b.run.eventsExecuted) << what;
    EXPECT_EQ(a.statDump, b.statDump) << what;
    ASSERT_EQ(a.trace.size(), b.trace.size()) << what;
    for (std::size_t i = 0; i < a.trace.size(); ++i)
        EXPECT_TRUE(a.trace[i] == b.trace[i])
            << what << ": coherence trace diverges at event " << i;
}

template <typename MakeWl>
void
expectRecordReplayIdentity(SystemConfig cfg, MakeWl make_wl,
                           std::uint64_t work_per_cpu,
                           const std::string &what)
{
    TempDir tmp;
    std::string path = tmp.file("run.ptrace");

    Snapshot live = runOnce(cfg, *make_wl(), work_per_cpu);

    // Recording must be transparent: the recorded run is the live
    // run, bit for bit.
    Snapshot recorded = [&] {
        RecordingWorkload rec(make_wl(), path, cfg.name, what,
                              cfg.nodes, cfg.cpusPerChip);
        Snapshot s = runOnce(cfg, rec, work_per_cpu);
        rec.finalize();
        return s;
    }();
    expectSnapshotsIdentical(live, recorded, what + " (recording)");

    ASSERT_TRUE(TraceReader::validateFile(path).ok()) << what;

    // Replay must rebuild the recorded config and reproduce the run.
    TraceWorkload replay(path);
    EXPECT_EQ(replay.name(), make_wl()->name()) << what;
    SystemConfig rcfg = replay.config();
    EXPECT_EQ(rcfg.name, cfg.name) << what;
    EXPECT_EQ(rcfg.nodes, cfg.nodes) << what;
    EXPECT_EQ(rcfg.cpusPerChip, cfg.cpusPerChip) << what;
    EXPECT_EQ(replay.workPerCpu(), work_per_cpu) << what;

    Snapshot replayed = runOnce(rcfg, replay, replay.workPerCpu());
    expectSnapshotsIdentical(live, replayed, what + " (replay)");
}

TEST(TraceIdentity, OltpP8AcrossSeeds)
{
    for (std::uint64_t seed : {1ull, 2ull, 7ull}) {
        expectRecordReplayIdentity(
            configP8(),
            [seed] {
                return std::make_unique<OltpWorkload>(OltpParams{},
                                                      seed);
            },
            30, strFormat("P8/OLTP seed %llu",
                          (unsigned long long)seed));
    }
}

TEST(TraceIdentity, DssP8AcrossSeeds)
{
    for (std::uint64_t seed : {3ull, 9ull}) {
        expectRecordReplayIdentity(
            configP8(),
            [seed] {
                return std::make_unique<DssWorkload>(DssParams{},
                                                     seed);
            },
            2, strFormat("P8/DSS seed %llu",
                         (unsigned long long)seed));
    }
}

TEST(TraceIdentity, OltpMultiNode)
{
    expectRecordReplayIdentity(
        configPn(2, 2),
        [] {
            return std::make_unique<OltpWorkload>(OltpParams{}, 5);
        },
        20, "Pn(2,2)/OLTP");
}

TEST(TraceReplay, TopologyMismatchIsRejected)
{
    TempDir tmp;
    std::string path = tmp.file("p8.ptrace");
    {
        RecordingWorkload rec(std::make_unique<OltpWorkload>(), path,
                              "P8", "p8", 1, 8);
        PiranhaSystem sys(configP8());
        sys.run(rec, 5);
    }
    TraceWorkload replay(path);
    // A P8 trace cannot drive a 4-CPU system.
    PiranhaSystem sys(configPn(4, 1));
    EXPECT_THROW(sys.run(replay, 5), std::runtime_error);
}

TEST(TraceRecord, SecondRunOverSameRecordingIsRejected)
{
    TempDir tmp;
    std::string path = tmp.file("once.ptrace");
    RecordingWorkload rec(std::make_unique<OltpWorkload>(), path,
                          "P1", "once", 1, 1);
    PiranhaSystem sys(configP1());
    sys.run(rec, 5);
    // Re-running the same instance would append a second op sequence
    // to the same per-CPU streams; the guard must refuse.
    PiranhaSystem sys2(configP1());
    EXPECT_THROW(sys2.run(rec, 5), std::runtime_error);
}

// ---------------------------------------------------------------------
// Trace x engine interop (DESIGN.md §13): a trace recorded under one
// engine must replay bit-identically under the other. Both directions
// use drainStop + per-chip tracers + the canonical trace merge so the
// comparison basis is engine-independent.

/** Like runOnce, but engine-selectable and canonical: per-chip
 *  tracers, run-to-quiescence stop, merged (tick, node)-sorted
 *  trace. */
Snapshot
runCanonical(SystemConfig cfg, Workload &wl, std::uint64_t work_per_cpu,
             bool parallel, unsigned shards = 0)
{
    std::vector<std::unique_ptr<CoherenceTracer>> tracers;
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        tracers.push_back(std::make_unique<CoherenceTracer>());
        cfg.chipTracers.push_back(tracers.back().get());
    }
    cfg.engine =
        parallel ? EngineKind::Parallel : EngineKind::Serial;
    cfg.shards = shards;
    cfg.drainStop = true;
    PiranhaSystem sys(cfg);
    Snapshot s;
    s.run = sys.run(wl, work_per_cpu);
    s.statDump = statGroupToJson(sys.stats()).dump(0);
    std::vector<std::vector<TraceEvent>> parts(cfg.nodes);
    for (unsigned n = 0; n < cfg.nodes; ++n)
        parts[n] = tracers[n]->events();
    s.trace = mergeShardTraces(parts);
    return s;
}

void
expectCanonicalIdentical(const Snapshot &a, const Snapshot &b,
                         const std::string &what)
{
    EXPECT_EQ(flattenRunResultComparable(a.run),
              flattenRunResultComparable(b.run))
        << what;
    EXPECT_EQ(a.run.eventsEquivalent, b.run.eventsEquivalent) << what;
    EXPECT_EQ(a.statDump, b.statDump) << what;
    ASSERT_EQ(a.trace.size(), b.trace.size()) << what;
    for (std::size_t i = 0; i < a.trace.size(); ++i)
        EXPECT_TRUE(a.trace[i] == b.trace[i])
            << what << ": coherence trace diverges at event " << i;
}

TEST(TraceEngineInterop, RecordSerialReplayParallel)
{
    TempDir tmp;
    std::string path = tmp.file("serial.ptrace");
    SystemConfig cfg = configPn(2, 4);

    Snapshot live = [&] {
        RecordingWorkload rec(
            std::make_unique<OltpWorkload>(OltpParams{}, 5), path,
            cfg.name, "interop", cfg.nodes, cfg.cpusPerChip);
        Snapshot s = runCanonical(cfg, rec, 12, /*parallel=*/false);
        rec.finalize();
        return s;
    }();
    ASSERT_TRUE(TraceReader::validateFile(path).ok());

    for (unsigned shards : {2u, 4u}) {
        TraceWorkload replay(path);
        Snapshot par =
            runCanonical(cfg, replay, replay.workPerCpu(),
                         /*parallel=*/true, shards);
        expectCanonicalIdentical(
            live, par,
            strFormat("serial-record -> parallel-replay shards=%u",
                      shards));
    }
}

TEST(TraceEngineInterop, RecordParallelReplaySerial)
{
    TempDir tmp;
    std::string path = tmp.file("parallel.ptrace");
    SystemConfig cfg = configPn(2, 4);

    Snapshot live = [&] {
        RecordingWorkload rec(
            std::make_unique<OltpWorkload>(OltpParams{}, 9), path,
            cfg.name, "interop", cfg.nodes, cfg.cpusPerChip);
        Snapshot s =
            runCanonical(cfg, rec, 12, /*parallel=*/true, 4);
        rec.finalize();
        return s;
    }();
    ASSERT_TRUE(TraceReader::validateFile(path).ok());

    TraceWorkload replay(path);
    Snapshot serial = runCanonical(cfg, replay, replay.workPerCpu(),
                                   /*parallel=*/false);
    expectCanonicalIdentical(live, serial,
                             "parallel-record -> serial-replay");
}

} // namespace
} // namespace piranha
