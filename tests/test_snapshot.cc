/**
 * @file
 * Snapshot-layer tests: the binary transport validates its header
 * (magic / container / payload version / spec fingerprint) and every
 * bounds-checked read, and the engine-level checkpoint/resume is a
 * pure observer -- a run that saves checkpoints, and a run resumed
 * from one, both produce byte-identical run reports and packet
 * traces vs an uninterrupted run and vs the single-threaded per-user
 * oracle, with saves and resumes at 1/2/8 threads and across kernel
 * backends (campaign shards run under different backends merge into
 * the unsharded report too). A snapshot that is past the horizon,
 * truncated or corrupted resumes or exits through fatal(), never
 * through an abort or a crash.
 */

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/kernels.hh"
#include "common/random.hh"
#include "common/snapshot.hh"
#include "mac/packet_trace.hh"
#include "peruser_reference.hh"
#include "scoped_backend.hh"
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

/** @p base saving a snapshot to @p file every @p every slots. */
NetworkSpec
savingSpec(const NetworkSpec &base, const std::string &file,
           std::uint64_t every)
{
    NetworkSpec spec = base;
    spec.checkpoint.file = file;
    spec.checkpoint.everySlots = every;
    return spec;
}

/** @p base resuming from the snapshot @p file. */
NetworkSpec
resumingSpec(const NetworkSpec &base, const std::string &file)
{
    NetworkSpec spec = base;
    spec.checkpoint.file = file;
    spec.checkpoint.resume = true;
    return spec;
}

/** One run's report (as runCampaignShard() writes it) + trace. */
struct RunArtifacts {
    std::string report;
    std::string trace;
};

/** The artifacts of @p res, a run of @p spec over @p slots slots. */
RunArtifacts
artifactsOf(const NetworkSpec &spec, std::uint64_t slots,
            const NetworkResult &res)
{
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

/** Run @p spec traced on the SoA engine. */
RunArtifacts
runOnce(const NetworkSpec &spec, std::uint64_t slots, int threads)
{
    NetworkSpec traced = spec;
    traced.trace = true;
    return artifactsOf(spec, slots,
                       NetworkSim(traced).run(slots, threads));
}

/** Run @p spec traced on the per-user oracle. */
RunArtifacts
runOracle(const NetworkSpec &spec, std::uint64_t slots)
{
    NetworkSpec traced = spec;
    traced.trace = true;
    return artifactsOf(spec, slots,
                       runPerUserReference(NetworkSim(traced), slots));
}

void
expectSameArtifacts(const RunArtifacts &got, const RunArtifacts &want)
{
    EXPECT_EQ(got.report, want.report);
    EXPECT_EQ(got.trace, want.trace);
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    ASSERT_TRUE(out.good()) << path;
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

TEST(CheckpointResume, SaveAndResumeMatchUninterruptedRunAndOracle)
{
    constexpr std::uint64_t kSlots = 200;
    constexpr std::uint64_t kEvery = 100;
    const NetworkSpec base = mobileSpec();
    const RunArtifacts oracle = runOracle(base, kSlots);
    const RunArtifacts reference = runOnce(base, kSlots, 2);
    expectSameArtifacts(reference, oracle);
    const std::string ckpt =
        ::testing::TempDir() + "wilis_ckpt_threads.snap";

    // A run that *saves* checkpoints is a pure observer (same
    // report, same trace), and its snapshot bytes do not depend on
    // the thread count.
    std::string snapshot;
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        expectSameArtifacts(
            runOnce(savingSpec(base, ckpt, kEvery), kSlots, threads),
            oracle);
        const std::string bytes = readBytes(ckpt);
        if (snapshot.empty())
            snapshot = bytes;
        EXPECT_EQ(bytes, snapshot);
    }

    // Resuming from the slot-100 snapshot must replay slots 100..200
    // into byte-identical artifacts, at any thread count.
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        const RunArtifacts resumed =
            runOnce(resumingSpec(base, ckpt), kSlots, threads);
        expectSameArtifacts(resumed, reference);
        expectSameArtifacts(resumed, oracle);
    }
    std::remove(ckpt.c_str());
}

TEST(CheckpointResume, SnapshotSavedAt8ThreadsResumesAt1)
{
    constexpr std::uint64_t kSlots = 160;
    const NetworkSpec base = mobileSpec();
    const std::string ckpt =
        ::testing::TempDir() + "wilis_ckpt_8to1.snap";
    runOnce(savingSpec(base, ckpt, 80), kSlots, 8);

    const RunArtifacts resumed =
        runOnce(resumingSpec(base, ckpt), kSlots, 1);
    expectSameArtifacts(resumed, runOnce(base, kSlots, 2));
    expectSameArtifacts(resumed, runOracle(base, kSlots));
    std::remove(ckpt.c_str());
}

// ------------------------------------------ across kernel backends

// Backends are bit-exact and a spec names none, so neither a snapshot
// nor a shard report depends on the kernel table that wrote it.

TEST(CheckpointResume, CrossBackendResumeAndShardMergeAreByteIdentical)
{
    const kernels::Backend widest = kernels::availableBackends().back();

    // A checkpoint saved under the scalar table resumes under the
    // widest one into the uninterrupted run's report and trace.
    constexpr std::uint64_t kSlots = 160;
    const NetworkSpec base = mobileSpec();
    const std::string ckpt =
        ::testing::TempDir() + "wilis_ckpt_backend.snap";
    {
        kernels::ScopedBackend scalar(kernels::Backend::Scalar);
        runOnce(savingSpec(base, ckpt, 80), kSlots, 2);
    }
    kernels::ScopedBackend wide(widest);
    expectSameArtifacts(runOnce(resumingSpec(base, ckpt), kSlots, 2),
                        runOnce(base, kSlots, 2));
    std::remove(ckpt.c_str());

    // Two campaign shards run under different tables merge into the
    // unsharded report.
    RunRequest req;
    req.spec = networkPreset("grid-3x3");
    req.spec.calibrationFile = calibrationPath();
    req.spec.reps = 4;
    req.slots = 40;
    req.threads = 2;
    const std::string unsharded =
        mergeReports({runCampaignShard(req)}).toJsonText();
    req.shardCount = 2;
    std::vector<RunReport> parts;
    for (kernels::Backend b : {kernels::Backend::Scalar, widest}) {
        kernels::ScopedBackend scoped(b);
        parts.push_back(runCampaignShard(req));
        ++req.shardIndex;
    }
    EXPECT_EQ(mergeReports(parts).toJsonText(), unsharded);
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

TEST(CheckpointResumeDeath, ResumePastTheHorizonIsFatal)
{
    const std::string ckpt =
        ::testing::TempDir() + "wilis_ckpt_horizon.snap";
    runOnce(savingSpec(mobileSpec(), ckpt, 100), 200, 1);
    EXPECT_EXIT(runOnce(resumingSpec(mobileSpec(), ckpt), 50, 1),
                testing::ExitedWithCode(1),
                "fatal: checkpoint '.*wilis_ckpt_horizon.snap' is at "
                "slot 100, past the 50-slot horizon");
    std::remove(ckpt.c_str());
}

/**
 * Seeded single-byte corruption of a traced mobile snapshot: each
 * damaged file must either resume to completion (exit 0) or be
 * rejected through fatal() (exit 1) -- never abort, crash or hit
 * undefined behavior on a restored value.
 */
TEST(CheckpointResumeDeath, CorruptSnapshotsResumeOrExitFatal)
{
    constexpr std::uint64_t kSlots = 120;
    constexpr int kFlips = 200;
    const std::string ckpt =
        ::testing::TempDir() + "wilis_ckpt_corrupt.snap";
    runOnce(savingSpec(mobileSpec(), ckpt, 60), kSlots, 1);
    const std::string good = readBytes(ckpt);
    ASSERT_FALSE(good.empty());

    const CounterRng rng(0x5EEDF11Bull);
    for (int k = 0; k < kFlips; ++k) {
        const std::uint64_t draw = rng.at(static_cast<std::uint64_t>(k));
        std::string bad = good;
        const size_t pos = static_cast<size_t>(draw % bad.size());
        bad[pos] = static_cast<char>(
            bad[pos] ^ static_cast<char>(1 + (draw >> 32) % 255));
        writeBytes(ckpt, bad);
        SCOPED_TRACE(testing::Message() << "byte " << pos);
        EXPECT_EXIT(
            {
                runOnce(resumingSpec(mobileSpec(), ckpt), kSlots, 1);
                std::fputs("resumed\n", stderr);
                std::exit(0);
            },
            [](int status) {
                return WIFEXITED(status) &&
                       (WEXITSTATUS(status) == 0 ||
                        WEXITSTATUS(status) == 1);
            },
            "resumed|fatal:");
    }
    std::remove(ckpt.c_str());
}
