/**
 * @file
 * Packet event trace tests: the acceptance bar is that the finalized
 * trace is a pure function of the NetworkSpec -- bit-identical at 1,
 * 2 and 8 worker threads and equal to the single-threaded per-user
 * oracle's on both the grid-3x3 and dense-urban-10k presets
 * -- and that the committed goldens under data/ pin grid-3x3
 * byte-for-byte and the urban-mobile trace, the dense-urban-10k
 * report and the single-cell engine's cell-16 report and cell-auto
 * trace by digest. Around it:
 * the per-shard sort and merge of finalize() equals one sort of the
 * whole trace for any sharding and worker count, the text format
 * round-trips through save()/load() (save() writes exactly the
 * toText() bytes, load() rejects every malformed line with its
 * path:line), diff() localizes divergences, and the trace's Ack
 * events feed the end-to-end latency histogram.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/kernels.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/snapshot.hh"
#include "mac/packet_trace.hh"
#include "peruser_reference.hh"
#include "scoped_backend.hh"
#include "sim/campaign.hh"
#include "sim/network_sim.hh"

using namespace wilis;
using namespace wilis::sim;

namespace {

std::string
calibrationPath()
{
    return std::string(WILIS_SOURCE_DIR) +
           "/data/network_calibration.txt";
}

std::string
goldenPath()
{
    return std::string(WILIS_SOURCE_DIR) + "/data/grid3x3_trace.txt";
}

NetworkSpec
tracedGrid()
{
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    spec.trace = true;
    return spec;
}

/** The trace of a run on the SoA engine. */
std::string
runTraceText(const NetworkSpec &spec, std::uint64_t slots,
             int threads)
{
    NetworkResult res = NetworkSim(spec).run(slots, threads);
    EXPECT_NE(res.trace, nullptr);
    return res.trace->toText();
}

/** The trace of the same run on the per-user oracle. */
std::string
oracleTraceText(const NetworkSpec &spec, std::uint64_t slots)
{
    NetworkResult res = runPerUserReference(NetworkSim(spec), slots);
    EXPECT_NE(res.trace, nullptr);
    return res.trace->toText();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** The committed digests, one "<key> <digest>" line each. */
std::string
goldenDigests()
{
    return readFile(std::string(WILIS_SOURCE_DIR) +
                    "/data/golden_digests.txt");
}

/** "<key> <64-bit FNV-1a of text>", a line of golden_digests.txt. */
std::string
digestLine(const std::string &key, const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text)
        h = (h ^ c) * 0x100000001b3ULL;
    return key + " " +
           strprintf("%016llx", static_cast<unsigned long long>(h));
}

/** Kernel backends the golden digests are checked under. */
std::vector<kernels::Backend>
goldenBackends()
{
    return {kernels::Backend::Scalar,
            kernels::availableBackends().back()};
}

/** Write @p text to a fresh temp file named @p name; returns it. */
std::string
writeTemp(const std::string &name, const std::string &text)
{
    const std::string path = testing::TempDir() + "/" + name;
    std::ofstream(path, std::ios::binary) << text;
    return path;
}

/** The documented canonical order, spelled out independently. */
bool
canonicalLess(const mac::PacketTrace::Entry &a,
              const mac::PacketTrace::Entry &b)
{
    return std::tie(a.cell, a.user, a.seq, a.slot, a.event, a.arg0,
                    a.arg1, a.cls) < std::tie(b.cell, b.user, b.seq,
                                              b.slot, b.event, b.arg0,
                                              b.arg1, b.cls);
}

/**
 * @p n seeded random entries over small field ranges, so the same
 * user recurs at many keys and (cell, user, seq) ties are common --
 * slot, event, the arguments and the class must break them.
 */
std::vector<mac::PacketTrace::Entry>
randomEntries(std::uint64_t seed, size_t n)
{
    const CounterRng rng(seed);
    std::vector<mac::PacketTrace::Entry> out(n);
    std::uint64_t k = 0;
    const auto draw = [&](std::uint64_t range) {
        return static_cast<std::int64_t>(rng.at(k++) % range);
    };
    for (mac::PacketTrace::Entry &e : out) {
        e.slot = static_cast<std::uint32_t>(draw(6));
        e.cell = static_cast<std::int32_t>(draw(3));
        e.user = static_cast<std::int32_t>(draw(5));
        e.cls = draw(2) ? mac::TrafficClass::Data
                        : mac::TrafficClass::Control;
        e.seq = static_cast<std::uint32_t>(draw(4));
        e.event = static_cast<mac::PacketEvent>(draw(9));
        e.arg0 = static_cast<std::int32_t>(draw(5) - 2);
        e.arg1 = static_cast<std::int32_t>(draw(4));
    }
    return out;
}

/**
 * A trace shaped like an engine's, in recording (slot) order:
 * @p users users per cell over @p cells cells, each sending @p seqs
 * packets through enq, grant, tx and ack, with a retransmission on
 * every fifth packet and a handover at seq 0 recorded before packet
 * 0's enqueue in the same slot.
 */
std::vector<mac::PacketTrace::Entry>
engineLikeEntries(int cells, int users, int seqs)
{
    using mac::PacketEvent;
    std::vector<mac::PacketTrace::Entry> out;
    for (int c = 0; c < cells; ++c) {
        for (int u = 0; u < users; ++u) {
            const int user = c * users + u;
            const auto put = [&](std::uint64_t slot, std::uint64_t seq,
                                 PacketEvent ev, std::int64_t arg0) {
                out.emplace_back(slot, c, user, mac::TrafficClass::Data,
                                 seq, ev, arg0, 0);
            };
            put(static_cast<std::uint64_t>(u), 0,
                PacketEvent::Handover, 0);
            for (int s = 0; s < seqs; ++s) {
                const std::uint64_t t =
                    static_cast<std::uint64_t>(u + 3 * s);
                const std::uint64_t seq = static_cast<std::uint64_t>(s);
                put(t, seq, PacketEvent::Enqueue, 1);
                put(t + 1, seq, PacketEvent::Grant, 1);
                put(t + 1, seq, PacketEvent::Tx, s % 5 != 0);
                if (s % 5 == 0) {
                    put(t + 2, seq, PacketEvent::Grant, 2);
                    put(t + 2, seq, PacketEvent::Tx, 1);
                }
                put(t + 4, seq, PacketEvent::Ack, 1);
            }
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const mac::PacketTrace::Entry &a,
                        const mac::PacketTrace::Entry &b) {
                         return a.slot < b.slot;
                     });
    return out;
}

/** The finalized entries of @p trace, as a vector. */
std::vector<mac::PacketTrace::Entry>
entriesOf(const mac::PacketTrace &trace)
{
    const std::span<const mac::PacketTrace::Entry> e = trace.entries();
    return {e.begin(), e.end()};
}

} // namespace

// ------------------------------------------------- the golden pin

TEST(PacketTrace, GoldenGrid3x3TraceMatchesByteForByte)
{
    // The committed fixture is the first 200 slots of grid-3x3
    // (data/grid3x3_trace.txt, written by `wilis_cli --network
    // grid-3x3 --slots 200 --threads 1 --trace ...`). Any MAC, scheduler
    // or engine change that moves a single event shows up here as a
    // byte diff -- regenerate the fixture only for intentional
    // behavior changes.
    const std::string text = runTraceText(tracedGrid(), 200, 2);
    EXPECT_EQ(text, readFile(goldenPath()))
        << mac::PacketTrace::diff(
               mac::PacketTrace::load(goldenPath()),
               *NetworkSim(tracedGrid()).run(200, 2).trace);
}

// Digest pins that hold the SoA engine's outputs fixed independently
// of the per-user oracle the equivalence tests below compare with.

TEST(PacketTrace, GoldenUrbanMobileTraceDigest)
{
    const std::string goldens = goldenDigests();
    NetworkSpec spec = networkPreset("urban-mobile");
    spec.calibrationFile = calibrationPath();
    spec.trace = true;
    for (kernels::Backend backend : goldenBackends()) {
        kernels::ScopedBackend scoped(backend);
        const std::string line = digestLine(
            "urban-mobile-trace-400", runTraceText(spec, 400, 2));
        EXPECT_NE(goldens.find(line), std::string::npos)
            << kernels::backendName(backend) << " backend: " << line;
    }
}

// The single-cell engine: cell-16 on the full rung by its report,
// cell-auto (full-PHY warm-up and refresh slots, analytic between) by
// its trace.

TEST(PacketTrace, GoldenCell16ReportDigest)
{
    const std::string goldens = goldenDigests();
    RunRequest req;
    req.spec = networkPreset("cell-16");
    req.slots = 40;
    req.threads = 2;
    for (kernels::Backend backend : goldenBackends()) {
        kernels::ScopedBackend scoped(backend);
        RunReport rep = runCampaignShard(req);
        rep.config.clear();
        const std::string line =
            digestLine("cell-16-report-40", rep.toJsonText());
        EXPECT_NE(goldens.find(line), std::string::npos)
            << kernels::backendName(backend) << " backend: " << line;
    }
}

TEST(PacketTrace, GoldenCellAutoTraceDigest)
{
    const std::string goldens = goldenDigests();
    NetworkSpec spec = networkPreset("cell-auto");
    spec.calibrationFile = calibrationPath();
    spec.trace = true;
    for (kernels::Backend backend : goldenBackends()) {
        kernels::ScopedBackend scoped(backend);
        const std::string line = digestLine(
            "cell-auto-trace-200", runTraceText(spec, 200, 2));
        EXPECT_NE(goldens.find(line), std::string::npos)
            << kernels::backendName(backend) << " backend: " << line;
    }
}

TEST(PacketTrace, GoldenDenseUrban10kReportDigest)
{
    const std::string goldens = goldenDigests();
    RunRequest req;
    req.spec = networkPreset("dense-urban-10k");
    req.spec.calibrationFile = calibrationPath();
    req.slots = 16;
    req.threads = 2;
    for (kernels::Backend backend : goldenBackends()) {
        kernels::ScopedBackend scoped(backend);
        RunReport rep = runCampaignShard(req);
        // The config string names the calibration path.
        rep.config.clear();
        const std::string line =
            digestLine("dense-urban-10k-report-16", rep.toJsonText());
        EXPECT_NE(goldens.find(line), std::string::npos)
            << kernels::backendName(backend) << " backend: " << line;
    }
}

// ------------------------ thread independence, oracle equality (bar)

TEST(PacketTrace, Grid3x3TraceBitIdenticalAt1_2_8Threads)
{
    const NetworkSpec spec = tracedGrid();
    const std::string t1 = runTraceText(spec, 120, 1);
    EXPECT_EQ(t1, runTraceText(spec, 120, 2));
    EXPECT_EQ(t1, runTraceText(spec, 120, 8));
}

TEST(PacketTrace, Grid3x3TraceMatchesPerUserOracle)
{
    EXPECT_EQ(oracleTraceText(tracedGrid(), 120),
              runTraceText(tracedGrid(), 120, 2));
}

TEST(PacketTrace, DenseUrban10kTraceThreadInvariantAndMatchesOracle)
{
    NetworkSpec spec = networkPreset("dense-urban-10k");
    spec.calibrationFile = calibrationPath();
    spec.trace = true;
    const std::string t1 = runTraceText(spec, 16, 1);
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(t1, runTraceText(spec, 16, 8));
    EXPECT_EQ(t1, oracleTraceText(spec, 16));
}

TEST(PacketTrace, NewClassAwarePathsMatchOracleToo)
{
    // The qdisc / control-class / contention wiring is duplicated
    // in the engine and the oracle; the trace is the strongest
    // equivalence witness for it.
    NetworkSpec spec = tracedGrid();
    spec.traffic.qdisc = mac::QdiscKind::StrictPriority;
    spec.traffic.controlRate = 0.05;
    spec.scheduler.contention = mac::ContentionMode::Fixed;
    const std::string t_per = oracleTraceText(spec, 100);
    EXPECT_EQ(t_per, runTraceText(spec, 100, 4));
    EXPECT_NE(t_per.find(" ctrl "), std::string::npos)
        << "control arrivals must appear in the trace";
}

// -------------------------------------------- format round-trips

TEST(PacketTrace, SaveLoadDiffRoundTrip)
{
    NetworkResult res = NetworkSim(tracedGrid()).run(80, 2);
    ASSERT_NE(res.trace, nullptr);
    const std::string path =
        testing::TempDir() + "/wilis_trace_roundtrip.txt";
    res.trace->save(path);
    const mac::PacketTrace loaded = mac::PacketTrace::load(path);
    EXPECT_TRUE(loaded.finalized());
    ASSERT_EQ(loaded.entries().size(), res.trace->entries().size());
    for (size_t i = 0; i < loaded.entries().size(); ++i)
        ASSERT_TRUE(loaded.entries()[i] == res.trace->entries()[i])
            << "entry " << i;
    EXPECT_EQ(mac::PacketTrace::diff(loaded, *res.trace), "");
    std::remove(path.c_str());
}

TEST(PacketTrace, FinalizeEqualsOneSortForAnyShardingAndThreads)
{
    using Entry = mac::PacketTrace::Entry;
    using Lane = std::function<int(const Entry &, int)>;
    // Each case is a recording order and a lane per entry; the
    // finalized trace must equal one sort of the whole input at 1
    // and 4 threads.
    struct Case {
        std::string name;
        std::vector<Entry> entries;
        int shards;
        Lane lane;
    };
    const Lane by_cell = [](const Entry &e, int) { return e.cell; };
    std::vector<Case> cases;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const std::vector<Entry> all = randomEntries(seed, 3000);
        for (int shards : {1, 3, 16}) {
            const std::string tag = "seed " + std::to_string(seed) +
                                    ", " + std::to_string(shards) +
                                    " shards";
            // Round-robin spreads every user over all shards (the
            // key ranges interleave: the merge); by-cell is the
            // engines' disjoint sharding, with empty shards when
            // shards > 3 and all three cells in one shard when 1.
            cases.push_back({tag + ", interleaved", all, shards,
                             [shards](const Entry &, int i) {
                                 return i % shards;
                             }});
            cases.push_back({tag + ", by cell", all, shards,
                             [shards](const Entry &e, int) {
                                 return e.cell % shards;
                             }});
        }
    }

    // Engine-shaped traces span many recording blocks per shard.
    const std::vector<Entry> engine = engineLikeEntries(3, 12, 120);
    cases.push_back({"engine-like, by cell", engine, 3, by_cell});
    // Several cells per shard: adjacent cells (slices still in
    // order) and alternate cells (slices overlap: the merge).
    cases.push_back({"engine-like, cells 0-1 | 2", engine, 2,
                     [](const Entry &e, int) {
                         return e.cell < 2 ? 0 : 1;
                     }});
    cases.push_back({"engine-like, cells 0,2 | 1", engine, 2,
                     [](const Entry &e, int) { return e.cell % 2; }});
    // Per-user shards of one cell, as the single-cell engine
    // records them, with empty shards past the last user.
    std::vector<Entry> one_cell = engineLikeEntries(1, 20, 60);
    cases.push_back({"per-user shards", one_cell, 24,
                     [](const Entry &e, int) { return e.user; }});
    // Empty shards around duplicated entries.
    std::vector<Entry> dup = engineLikeEntries(2, 4, 30);
    dup.insert(dup.end(), dup.begin(), dup.begin() + 200);
    cases.push_back({"duplicates, empty shards", dup, 5,
                     [](const Entry &e, int) { return 2 * e.cell; }});
    // A handover at seq 0 is recorded before packet 0's enqueue in
    // the same slot, but the enqueue sorts first: ties must be
    // ordered, not left in recording order.
    const Entry ho(7, 1, 4, mac::TrafficClass::Data, 0,
                   mac::PacketEvent::Handover, 0, 0);
    const Entry enq(7, 1, 4, mac::TrafficClass::Data, 0,
                    mac::PacketEvent::Enqueue, 1, 0);
    const Entry grant(8, 1, 4, mac::TrafficClass::Data, 0,
                      mac::PacketEvent::Grant, 1, 1);
    cases.push_back({"ho before enq", {ho, enq, grant}, 2, by_cell});
    // A user whose seqs are 0 and UINT32_MAX spans too many keys to
    // count (the comparison-sort path); the same lane with seqs
    // just inside the 4x-entries bound is counted.
    Entry hi = grant;
    hi.seq = UINT32_MAX;
    cases.push_back({"seqs 0 and max", {ho, hi, enq, grant}, 2,
                     by_cell});
    hi.seq = 15;
    cases.push_back({"seq span 16 for 4 entries", {hi, ho, enq, grant},
                     2, by_cell});
    hi.seq = 16;
    cases.push_back({"seq span 17 for 4 entries", {hi, ho, enq, grant},
                     2, by_cell});
    // Users far apart in one cell: too sparse to count by user.
    Entry far = enq;
    far.user = 1 << 30;
    cases.push_back({"users 4 and 2^30", {far, grant, ho, enq}, 2,
                     by_cell});

    for (const Case &c : cases) {
        std::vector<Entry> want = c.entries;
        std::sort(want.begin(), want.end(), canonicalLess);
        for (int threads : {1, 4}) {
            mac::PacketTrace trace(c.shards);
            int i = 0;
            for (const Entry &e : c.entries)
                trace.record(c.lane(e, i++), e);
            trace.finalize(threads);
            EXPECT_TRUE(entriesOf(trace) == want)
                << c.name << ", " << threads << " threads";
        }
    }
}

TEST(PacketTrace, SavedBytesEqualToText)
{
    NetworkResult res = NetworkSim(tracedGrid()).run(80, 4);
    ASSERT_NE(res.trace, nullptr);
    const std::string path =
        testing::TempDir() + "/wilis_trace_bytes.txt";
    res.trace->save(path);
    EXPECT_EQ(readFile(path), res.trace->toText());
    std::remove(path.c_str());

    // Traces that span many formatting blocks, written by one
    // formatter and by three while the saving thread writes.
    const std::vector<mac::PacketTrace::Entry> big =
        engineLikeEntries(3, 20, 200);
    for (int threads : {2, 4}) {
        mac::PacketTrace trace(3);
        for (const mac::PacketTrace::Entry &e : big)
            trace.record(e.cell, e);
        trace.finalize(threads);
        trace.save(path);
        const std::string text = trace.toText();
        EXPECT_GT(std::count(text.begin(), text.end(), '\n'), 40000);
        EXPECT_EQ(readFile(path), text) << threads << " threads";
        std::remove(path.c_str());
    }

    // An empty trace is the two header lines.
    mac::PacketTrace empty;
    empty.finalize(4);
    empty.save(path);
    const std::string text = empty.toText();
    EXPECT_EQ(readFile(path), text);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
    std::remove(path.c_str());
}

TEST(PacketTrace, UrbanMobileSurvivesSaveLoadToText)
{
    NetworkSpec spec = networkPreset("urban-mobile");
    spec.calibrationFile = calibrationPath();
    spec.trace = true;
    NetworkResult res = NetworkSim(spec).run(400, 4);
    ASSERT_NE(res.trace, nullptr);
    const std::string path =
        testing::TempDir() + "/wilis_trace_mobile.txt";
    res.trace->save(path);
    EXPECT_EQ(mac::PacketTrace::load(path).toText(),
              res.trace->toText());
    std::remove(path.c_str());
}

TEST(PacketTrace, SaveFailureIsFatalNamingThePath)
{
    mac::PacketTrace trace;
    trace.record(0, mac::PacketTrace::Entry{});
    trace.finalize();
    EXPECT_EXIT(trace.save("/dev/full"), testing::ExitedWithCode(1),
                "cannot write packet trace '/dev/full': ");
    EXPECT_EXIT(trace.save(testing::TempDir() + "/no/such/dir/t.txt"),
                testing::ExitedWithCode(1),
                "cannot write packet trace '.*/no/such/dir/t.txt': ");

    // The parallel writer reports the first failed block write.
    mac::PacketTrace big(3);
    for (const mac::PacketTrace::Entry &e : engineLikeEntries(3, 8, 200))
        big.record(e.cell, e);
    big.finalize(4);
    EXPECT_EXIT(big.save("/dev/full"), testing::ExitedWithCode(1),
                "cannot write packet trace '/dev/full': ");
}

TEST(PacketTrace, LoadAcceptsEveryColumnsFullRange)
{
    const std::string path = writeTemp(
        "wilis_trace_range.txt",
        "# wilis packet trace v1\n"
        "4294967295 2147483647 0 ctrl 4294967295 "
        "leave -2147483648 2147483647\n"
        "0\t0  0 data 0 enq -1 0\r\n");
    const mac::PacketTrace t = mac::PacketTrace::load(path);
    ASSERT_EQ(t.entries().size(), 2u);
    const mac::PacketTrace::Entry &e = t.entries()[1];
    EXPECT_EQ(e.slot, UINT32_MAX);
    EXPECT_EQ(e.cell, INT32_MAX);
    EXPECT_EQ(e.cls, mac::TrafficClass::Control);
    EXPECT_EQ(e.seq, UINT32_MAX);
    EXPECT_EQ(e.event, mac::PacketEvent::Leave);
    EXPECT_EQ(e.arg0, INT32_MIN);
    EXPECT_EQ(e.arg1, INT32_MAX);
    EXPECT_EQ(t.entries()[0].arg0, -1);
    std::remove(path.c_str());
}

TEST(PacketTrace, LoadRejectsMalformedLinesWithPathAndLine)
{
    const struct {
        const char *line;
        const char *why;
    } cases[] = {
        {"0 0 0 data 0 grant 1 0 junk", "more than 8 fields"},
        {"0 0 0 data 0 grant 1", "expected 8 fields, got 7"},
        {"0 0 0 data 99999999999999999999999 grant 1 0",
         "seq '99999999999999999999999' is out of range"},
        {"18446744073709551616 0 0 data 0 grant 1 0",
         "slot '18446744073709551616' is out of range"},
        {"4294967296 0 0 data 0 grant 1 0",
         "slot '4294967296' is out of range"},
        {"0 0 0 data 4294967296 grant 1 0",
         "seq '4294967296' is out of range"},
        {"0 2147483648 0 data 0 grant 1 0",
         "cell '2147483648' is out of range"},
        {"0 0 0 data 0 grant 9223372036854775808 0",
         "arg0 '9223372036854775808' is out of range"},
        {"0 0 0 data 0 grant 2147483648 0",
         "arg0 '2147483648' is out of range"},
        {"0 0 0 data 0 grant 1 -2147483649",
         "arg1 '-2147483649' is out of range"},
        {"0 -1 0 data 0 grant 1 0", "cell id is negative"},
        {"0 0 -3 data 0 grant 1 0", "user id is negative"},
        {"-1 0 0 data 0 grant 1 0", "slot '-1' is not an integer"},
        {"0 0 0 data 1x grant 1 0", "seq '1x' is not an integer"},
        {"0 0 0 data +1 grant 1 0", "seq '\\+1' is not an integer"},
        {"0 0 0 bulk 0 grant 1 0", "unknown traffic class 'bulk'"},
        {"0 0 0 data 0 retx 1 0", "unknown packet event 'retx'"},
    };
    for (const auto &c : cases) {
        const std::string path = writeTemp(
            "wilis_trace_bad.txt", std::string("# wilis packet trace "
                                               "v1\n# comment\n") +
                                       c.line + "\n");
        EXPECT_EXIT(mac::PacketTrace::load(path),
                    testing::ExitedWithCode(1),
                    std::string("wilis_trace_bad.txt:3: malformed "
                                "packet-trace line .*") +
                        c.why)
            << c.line;
        std::remove(path.c_str());
    }
    const std::string path = writeTemp("wilis_trace_bad.txt",
                                       "# wilis packet trace v2\n");
    EXPECT_EXIT(mac::PacketTrace::load(path),
                testing::ExitedWithCode(1),
                "wilis_trace_bad.txt:1: packet trace has version "
                "header");
    std::remove(path.c_str());
}

TEST(PacketTrace, LoadStateRejectsOutOfRangeColumns)
{
    // A one-entry snapshot in saveState()'s layout: the wire keeps
    // 64-bit columns, the 32-bit entry takes only what fits.
    const auto snapshot = [](std::uint64_t slot, std::uint64_t seq,
                             std::int64_t arg0, std::int64_t arg1) {
        SnapshotWriter w(1, "trace");
        w.marker(0x43415254);
        w.u64(1);
        w.u64(1);
        w.u64(slot);
        w.i64(1);
        w.i64(2);
        w.u8(static_cast<std::uint8_t>(mac::TrafficClass::Data));
        w.u64(seq);
        w.u8(static_cast<std::uint8_t>(mac::PacketEvent::Ack));
        w.i64(arg0);
        w.i64(arg1);
        return w.bytes();
    };
    const auto restore = [](const std::string &bytes) {
        SnapshotReader r = SnapshotReader::fromBytes(bytes, 1, "trace");
        mac::PacketTrace t(1);
        t.loadState(r, 2, 3);
        r.done();
        t.finalize();
        return t;
    };
    const mac::PacketTrace t =
        restore(snapshot(UINT32_MAX, UINT32_MAX, INT32_MIN, INT32_MAX));
    ASSERT_EQ(t.entries().size(), 1u);
    const mac::PacketTrace::Entry want(UINT32_MAX, 1, 2,
                                       mac::TrafficClass::Data, UINT32_MAX,
                                       mac::PacketEvent::Ack, INT32_MIN,
                                       INT32_MAX);
    EXPECT_TRUE(t.entries()[0] == want);

    const std::uint64_t past = std::uint64_t{UINT32_MAX} + 1;
    EXPECT_EXIT(restore(snapshot(past, 0, 0, 0)), testing::ExitedWithCode(1),
                "trace entry slot 4294967296 out of range");
    EXPECT_EXIT(restore(snapshot(0, past, 0, 0)), testing::ExitedWithCode(1),
                "trace entry seq 4294967296 out of range");
    EXPECT_EXIT(restore(snapshot(0, 0, std::int64_t{INT32_MAX} + 1, 0)),
                testing::ExitedWithCode(1),
                "trace entry arg0 2147483648 out of range");
    EXPECT_EXIT(restore(snapshot(0, 0, 0, std::int64_t{INT32_MIN} - 1)),
                testing::ExitedWithCode(1),
                "trace entry arg1 -2147483649 out of range");
}

TEST(PacketTrace, DiffLocalizesTheFirstDivergence)
{
    mac::PacketTrace a(1);
    mac::PacketTrace b(1);
    const mac::PacketTrace::Entry e0{3, 0, 1, mac::TrafficClass::Data,
                                     0, mac::PacketEvent::Enqueue, 1,
                                     0};
    mac::PacketTrace::Entry e1 = e0;
    e1.slot = 4;
    e1.event = mac::PacketEvent::Grant;
    a.record(0, e0);
    a.record(0, e1);
    b.record(0, e0);
    mac::PacketTrace::Entry e1b = e1;
    e1b.arg0 = 2;
    b.record(0, e1b);
    a.finalize();
    b.finalize();
    const std::string d = mac::PacketTrace::diff(a, b);
    EXPECT_NE(d.find("entry 1"), std::string::npos) << d;

    mac::PacketTrace c(1);
    c.record(0, e0);
    c.finalize();
    EXPECT_NE(mac::PacketTrace::diff(a, c).find("entry count"),
              std::string::npos);
}

// ------------------------------------------ derived statistics

TEST(PacketTrace, AckEventsFeedEndToEndLatencyHistogram)
{
    NetworkResult res = NetworkSim(tracedGrid()).run(150, 2);
    ASSERT_NE(res.trace, nullptr);
    std::uint64_t acks = 0;
    for (const mac::PacketTrace::Entry &e : res.trace->entries()) {
        if (e.event == mac::PacketEvent::Ack) {
            ++acks;
            EXPECT_GE(e.arg1, 0) << "latency cannot be negative";
        }
    }
    EXPECT_EQ(acks, res.aggregate.delivered)
        << "one ack per in-order delivery";
    EXPECT_EQ(res.aggregate.e2eLatencyHist.total(), acks);
    // End-to-end latency includes the queue wait, so it dominates
    // the ARQ-only delivery latency.
    EXPECT_GE(res.aggregate.e2eLatencyHist.quantile(0.5),
              res.aggregate.latencyHist.quantile(0.5));
}

TEST(PacketTrace, SingleCellEngineTracesAndDerivesLatency)
{
    NetworkSpec spec;
    spec.numUsers = 6;
    spec.link.payloadBits = 400;
    spec.link.channelCfg = li::Config::fromString("snr_db=12");
    spec.trace = true;
    const std::string t1 = runTraceText(spec, 60, 1);
    EXPECT_EQ(t1, runTraceText(spec, 60, 8))
        << "single-cell trace must be thread-invariant too";
    NetworkResult res = NetworkSim(spec).run(60, 2);
    ASSERT_NE(res.trace, nullptr);
    EXPECT_GT(res.aggregate.e2eLatencyHist.total(), 0u);
    for (const mac::PacketTrace::Entry &e : res.trace->entries())
        EXPECT_EQ(e.cell, 0);
}

TEST(PacketTrace, TraceOffLeavesResultNullAndHistogramEmpty)
{
    NetworkSpec spec = tracedGrid();
    spec.trace = false;
    NetworkResult res = NetworkSim(spec).run(40, 2);
    EXPECT_EQ(res.trace, nullptr);
    EXPECT_EQ(res.aggregate.e2eLatencyHist.total(), 0u);
}
