/**
 * @file
 * Packet event trace tests: the acceptance bar is that the finalized
 * trace is a pure function of the NetworkSpec -- bit-identical at 1,
 * 2 and 8 worker threads and between the SoA engine and the per-user
 * reference engine on both the grid-3x3 and dense-urban-10k presets
 * -- and that the committed goldens under data/ pin grid-3x3
 * byte-for-byte and the urban-mobile trace and dense-urban-10k
 * report by digest. Around it:
 * the text format round-trips through save()/load(), diff() localizes
 * divergences, and the trace's Ack events feed the end-to-end latency
 * histogram.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/kernels.hh"
#include "common/logging.hh"
#include "mac/packet_trace.hh"
#include "peruser_reference.hh"
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

/** The trace of a run on the SoA engine, or the per-user one. */
std::string
runTraceText(const NetworkSpec &spec, std::uint64_t slots,
             int threads, bool per_user = false)
{
    NetworkSim sim(spec);
    NetworkResult res = per_user
                            ? runPerUserReference(sim, slots, threads)
                            : sim.run(slots, threads);
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

/**
 * Kernel backends the golden digests are checked under: forced
 * scalar, then the host default, so the process ends where it began.
 */
std::vector<std::string>
goldenBackends()
{
    return {"scalar",
            kernels::backendName(kernels::availableBackends().back())};
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
// of the per-user reference the equivalence tests below compare with.

TEST(PacketTrace, GoldenUrbanMobileTraceDigest)
{
    const std::string goldens = goldenDigests();
    NetworkSpec spec = networkPreset("urban-mobile");
    spec.calibrationFile = calibrationPath();
    spec.trace = true;
    for (const std::string &backend : goldenBackends()) {
        spec.link.kernel.backend = backend;
        const std::string line = digestLine(
            "urban-mobile-trace-400", runTraceText(spec, 400, 2));
        EXPECT_NE(goldens.find(line), std::string::npos)
            << backend << " backend: " << line;
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
    for (const std::string &backend : goldenBackends()) {
        req.spec.link.kernel.backend = backend;
        RunReport rep = runCampaignShard(req);
        // The config string names the backend and calibration path.
        rep.config.clear();
        const std::string line =
            digestLine("dense-urban-10k-report-16", rep.toJsonText());
        EXPECT_NE(goldens.find(line), std::string::npos)
            << backend << " backend: " << line;
    }
}

// ------------------------------ thread / engine independence (bar)

TEST(PacketTrace, Grid3x3TraceBitIdenticalAt1_2_8Threads)
{
    const NetworkSpec spec = tracedGrid();
    const std::string t1 = runTraceText(spec, 120, 1);
    EXPECT_EQ(t1, runTraceText(spec, 120, 2));
    EXPECT_EQ(t1, runTraceText(spec, 120, 8));
}

TEST(PacketTrace, Grid3x3TraceIdenticalAcrossEngines)
{
    EXPECT_EQ(runTraceText(tracedGrid(), 120, 2, true),
              runTraceText(tracedGrid(), 120, 2));
}

TEST(PacketTrace, DenseUrban10kTraceThreadAndEngineInvariant)
{
    NetworkSpec spec = networkPreset("dense-urban-10k");
    spec.calibrationFile = calibrationPath();
    spec.trace = true;
    const std::string t1 = runTraceText(spec, 16, 1);
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(t1, runTraceText(spec, 16, 8));
    EXPECT_EQ(t1, runTraceText(spec, 16, 2, true));
}

TEST(PacketTrace, NewClassAwarePathsAreEngineInvariantToo)
{
    // The qdisc / control-class / contention wiring is duplicated
    // across both engines; the trace is the strongest equivalence
    // witness for it.
    NetworkSpec spec = tracedGrid();
    spec.traffic.qdisc = mac::QdiscKind::StrictPriority;
    spec.traffic.controlRate = 0.05;
    spec.scheduler.contention = mac::ContentionMode::Fixed;
    const std::string t_per = runTraceText(spec, 100, 1, true);
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

TEST(PacketTrace, EventNamesRoundTripAndRejectUnknown)
{
    for (auto ev :
         {mac::PacketEvent::Enqueue, mac::PacketEvent::QueueDrop,
          mac::PacketEvent::Grant, mac::PacketEvent::Tx,
          mac::PacketEvent::Ack, mac::PacketEvent::Expire})
        EXPECT_EQ(mac::packetEventFromName(mac::packetEventName(ev)),
                  ev);
    EXPECT_DEATH(mac::packetEventFromName("retx"),
                 "unknown packet event");
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
