/**
 * @file
 * Snapshot-layer tests: the binary transport validates its header
 * (magic / container / payload version / spec fingerprint) and every
 * bounds-checked read, and the engine-level checkpoint/resume is a
 * pure observer -- a run that saves checkpoints, and a run resumed
 * from one, both produce byte-identical run reports and packet
 * traces vs an uninterrupted run, across 1/2/8 threads, the SoA
 * engine and the per-user reference engine, and a cross-engine
 * save/resume pair.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/snapshot.hh"
#include "mac/packet_trace.hh"
#include "peruser_reference.hh"
#include "sim/campaign.hh"
#include "sim/scenario.hh"

using namespace wilis;
using namespace wilis::sim;

namespace {

std::string
calibrationPath()
{
    return std::string(WILIS_SOURCE_DIR) +
           "/data/network_calibration.txt";
}

/** A small mobile deployment: handover + churn on a 2x2 grid. */
NetworkSpec
mobileSpec()
{
    NetworkSpec spec = networkPreset("urban-mobile");
    spec.calibrationFile = calibrationPath();
    spec.numUsers = 24;
    spec.topology.rows = 2;
    spec.topology.cols = 2;
    return spec;
}

/** One run's report (as runCampaignShard() writes it) + trace. */
struct RunArtifacts {
    std::string report;
    std::string trace;
};

/**
 * Run @p spec traced on the SoA engine, or on the per-user reference
 * engine when @p per_user is set.
 */
RunArtifacts
runOnce(const NetworkSpec &spec, std::uint64_t slots, int threads,
        bool per_user = false)
{
    NetworkSpec traced = spec;
    traced.trace = true;
    NetworkSim sim(traced);
    const NetworkResult res = per_user
                                  ? runPerUserReference(sim, slots, threads)
                                  : sim.run(slots, threads);
    // The config echo is left out: checkpointed, resumed and
    // uninterrupted runs intentionally differ in their checkpoint
    // keys, and the comparisons isolate the *results*.
    RunReport rep;
    rep.kind = "network";
    rep.slots = slots;
    rep.unitsTotal = 1;
    UnitReport unit;
    unit.seed = spec.seed;
    unit.cells = res.cells;
    unit.users = static_cast<int>(res.users.size());
    unit.stats = res.aggregate;
    rep.units = {unit};
    return {rep.toJsonText(), res.trace->toText()};
}

} // namespace

// ----------------------------------------------------- transport

TEST(Snapshot, RoundTripsPrimitives)
{
    SnapshotWriter w(7, "spec-fp");
    w.marker(0x11223344);
    w.u8(200);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    w.f64(-1234.5678e-9);
    w.str("hello snapshot");
    w.marker(0x55667788);

    SnapshotReader r =
        SnapshotReader::fromBytes(w.bytes(), 7, "spec-fp");
    r.marker(0x11223344);
    EXPECT_EQ(r.u8(), 200);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), -1234.5678e-9);
    EXPECT_EQ(r.str(), "hello snapshot");
    r.marker(0x55667788);
    r.done();
}

TEST(Snapshot, SaveLoadRoundTripsThroughDisk)
{
    const std::string path =
        ::testing::TempDir() + "wilis_snapshot_file.snap";
    SnapshotWriter w(3, "fp");
    w.u64(99);
    w.save(path);

    SnapshotReader r(path, 3, "fp");
    EXPECT_EQ(r.u64(), 99u);
    r.done();
    std::remove(path.c_str());
}

TEST(SnapshotDeath, RejectsVersionAndFingerprintSkew)
{
    SnapshotWriter w(1, "fp-a");
    w.u64(1);
    EXPECT_DEATH(SnapshotReader::fromBytes(w.bytes(), 2, "fp-a"),
                 "version");
    EXPECT_DEATH(SnapshotReader::fromBytes(w.bytes(), 1, "fp-b"),
                 "different spec");
}

TEST(SnapshotDeath, RejectsTruncationAndTrailingBytes)
{
    SnapshotWriter w(1, "fp");
    w.u64(1);
    w.u64(2);
    const std::string bytes = w.bytes();

    SnapshotReader trunc = SnapshotReader::fromBytes(
        bytes.substr(0, bytes.size() - 4), 1, "fp");
    trunc.u64();
    EXPECT_DEATH(trunc.u64(), "truncated");

    SnapshotReader leftover =
        SnapshotReader::fromBytes(bytes, 1, "fp");
    leftover.u64();
    EXPECT_DEATH(leftover.done(), "");
}

TEST(SnapshotDeath, RejectsMissingFileAndMarkerSkew)
{
    EXPECT_DEATH(
        SnapshotReader("/nonexistent/wilis.snap", 1, "fp"), "");

    SnapshotWriter w(1, "fp");
    w.marker(0xAAAAAAAA);
    SnapshotReader r = SnapshotReader::fromBytes(w.bytes(), 1, "fp");
    EXPECT_DEATH(r.marker(0xBBBBBBBB), "marker");
}

// ------------------------------------------- checkpoint / resume

TEST(CheckpointResume, BitIdenticalAcrossThreadsAndEngines)
{
    constexpr std::uint64_t kSlots = 200;
    constexpr std::uint64_t kEvery = 100;

    for (const bool per_user : {false, true}) {
        const std::string engine = per_user ? "peruser" : "soa";
        SCOPED_TRACE(engine);
        const NetworkSpec base = mobileSpec();
        const RunArtifacts reference = runOnce(base, kSlots, 2, per_user);
        const std::string ckpt =
            ::testing::TempDir() + "wilis_ckpt_" + engine + ".snap";

        // A run that *saves* checkpoints is a pure observer: same
        // report, same trace.
        NetworkSpec saving = base;
        saving.checkpoint.file = ckpt;
        saving.checkpoint.everySlots = kEvery;
        const RunArtifacts observed = runOnce(saving, kSlots, 2, per_user);
        EXPECT_EQ(observed.report, reference.report);
        EXPECT_EQ(observed.trace, reference.trace);

        // Resuming from the slot-100 snapshot must replay slots
        // 100..200 into byte-identical artifacts, at any thread
        // count.
        NetworkSpec resuming = base;
        resuming.checkpoint.file = ckpt;
        resuming.checkpoint.resume = true;
        for (int threads : {1, 2, 8}) {
            SCOPED_TRACE(threads);
            const RunArtifacts resumed =
                runOnce(resuming, kSlots, threads, per_user);
            EXPECT_EQ(resumed.report, reference.report);
            EXPECT_EQ(resumed.trace, reference.trace);
        }
        std::remove(ckpt.c_str());
    }
}

TEST(CheckpointResume, SnapshotResumesUnderTheOtherEngine)
{
    constexpr std::uint64_t kSlots = 160;
    const RunArtifacts reference = runOnce(mobileSpec(), kSlots, 2);
    const std::string ckpt =
        ::testing::TempDir() + "wilis_ckpt_cross.snap";

    // Save under SoA; the canonical serialization order (global
    // user id / cell index) is engine-neutral, so the per-user
    // engine must resume it bit-identically.
    NetworkSpec saving = mobileSpec();
    saving.checkpoint.file = ckpt;
    saving.checkpoint.everySlots = 80;
    runOnce(saving, kSlots, 2);

    NetworkSpec resuming = mobileSpec();
    resuming.checkpoint.file = ckpt;
    resuming.checkpoint.resume = true;
    const RunArtifacts resumed = runOnce(resuming, kSlots, 2, true);
    EXPECT_EQ(resumed.report, reference.report);
    EXPECT_EQ(resumed.trace, reference.trace);
    std::remove(ckpt.c_str());
}

TEST(CheckpointResumeDeath, ResumeWithoutSnapshotIsFatal)
{
    NetworkSpec spec = mobileSpec();
    spec.checkpoint.file =
        ::testing::TempDir() + "wilis_ckpt_absent.snap";
    spec.checkpoint.resume = true;
    RunRequest req;
    req.spec = spec;
    req.slots = 40;
    req.threads = 1;
    EXPECT_DEATH(runCampaignShard(req), "");
}
