/**
 * @file
 * Kernel-dispatch test suite: every SIMD backend available on the
 * host must be BIT-EXACT with the scalar reference on randomized
 * inputs for each kernel in the table (demapper LLRs, forward ACS,
 * metric normalization, the FFT (against its std::complex oracle),
 * channel complex scale and noise injection,
 * the SoA analytic-engine kernels; test_decoders holds the
 * whole-block BCJR kernel to its per-step reference), and forcing
 * the scalar backend must reproduce the full-pipeline results of the
 * widest backend on a rate x channel grid -- the property that makes
 * test_bitexact_grid's pins backend-independent.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/cpu_features.hh"
#include "common/kernels.hh"
#include "common/random.hh"
#include "decode/trellis_kernels.hh"
#include "fft_reference.hh"
#include "phy/demapper.hh"
#include "phy/fft.hh"
#include "phy/modulation.hh"
#include "sim/link_fidelity.hh"
#include "sim/multicell_detail.hh"
#include "sim/scenario.hh"
#include "sim/testbench.hh"

using namespace wilis;
using kernels::Backend;
using kernels::Ops;

namespace {

const Ops &
tableOf(Backend b)
{
    EXPECT_TRUE(kernels::setBackend(b));
    return kernels::ops();
}

/** Backends to verify against scalar (may be just {scalar}). */
std::vector<Backend>
vectorBackends()
{
    std::vector<Backend> v;
    for (Backend b : kernels::availableBackends()) {
        if (b != Backend::Scalar)
            v.push_back(b);
    }
    return v;
}

std::vector<std::int32_t>
randomMetrics(SplitMix64 &rng, size_t n, std::int32_t spread)
{
    std::vector<std::int32_t> v(n);
    for (auto &x : v) {
        x = static_cast<std::int32_t>(rng.nextBelow(
                static_cast<std::uint64_t>(2 * spread))) -
            spread;
        // Sprinkle floor states like a real PMU sweep has.
        if (rng.nextBelow(8) == 0)
            x = decode::kMetricFloor;
    }
    return v;
}

} // namespace

class SimdKernelTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        // Leave the process-wide table as the widest backend so test
        // order cannot leak a forced scalar table into other suites.
        kernels::setBackend(kernels::availableBackends().back());
    }
};

TEST_F(SimdKernelTest, RegistryReportsHostBackends)
{
    auto avail = kernels::availableBackends();
    ASSERT_FALSE(avail.empty());
    EXPECT_EQ(avail.front(), Backend::Scalar);
    for (Backend b : avail)
        EXPECT_TRUE(kernels::backendSupported(b));
    if (cpu::hasAvx2()) {
        EXPECT_EQ(avail.back(), Backend::Avx2);
    }
}

TEST_F(SimdKernelTest, AcsForwardMatchesScalar)
{
    const auto &tv = decode::TrellisTables::view();
    SplitMix64 rng(0xAC51);
    for (Backend b : vectorBackends()) {
        const Ops &vec = tableOf(b);
        const Ops &ref = tableOf(Backend::Scalar);
        for (int round = 0; round < 200; ++round) {
            auto pm = randomMetrics(rng, decode::kStates, 1 << 20);
            std::int32_t bm[4];
            for (auto &x : bm)
                x = static_cast<std::int32_t>(rng.nextBelow(4096)) -
                    2048;

            std::int32_t out_ref[decode::kStates];
            std::int32_t out_vec[decode::kStates];
            std::int32_t d_ref[decode::kStates];
            std::int32_t d_vec[decode::kStates];
            std::uint64_t ch_ref = 0, ch_vec = 0;
            bool want_delta = (round % 2) == 0;
            ref.acsForward(tv, pm.data(), bm, out_ref, &ch_ref,
                           want_delta ? d_ref : nullptr);
            vec.acsForward(tv, pm.data(), bm, out_vec, &ch_vec,
                           want_delta ? d_vec : nullptr);

            ASSERT_EQ(ch_ref, ch_vec)
                << kernels::backendName(b) << " round " << round;
            ASSERT_EQ(0, std::memcmp(out_ref, out_vec,
                                     sizeof(out_ref)))
                << kernels::backendName(b) << " round " << round;
            if (want_delta) {
                ASSERT_EQ(0,
                          std::memcmp(d_ref, d_vec, sizeof(d_ref)))
                    << kernels::backendName(b) << " round " << round;
            }
        }
    }
}

TEST_F(SimdKernelTest, NormalizeAndBestStateMatchScalar)
{
    SplitMix64 rng(0x4049);
    for (Backend b : vectorBackends()) {
        const Ops &vec = tableOf(b);
        const Ops &ref = tableOf(Backend::Scalar);
        for (int round = 0; round < 200; ++round) {
            auto pm = randomMetrics(rng, decode::kStates, 1 << 24);
            auto pm_vec = pm;
            ref.normalizeMetrics(pm.data(), decode::kStates,
                                 decode::kMetricFloor / 2,
                                 decode::kMetricFloor);
            vec.normalizeMetrics(pm_vec.data(), decode::kStates,
                                 decode::kMetricFloor / 2,
                                 decode::kMetricFloor);
            ASSERT_EQ(pm, pm_vec)
                << kernels::backendName(b) << " round " << round;
            ASSERT_EQ(ref.bestState(pm.data(), decode::kStates),
                      vec.bestState(pm.data(), decode::kStates));
        }
        // Tie-breaking: first index of the maximum wins.
        std::vector<std::int32_t> ties(decode::kStates, 7);
        EXPECT_EQ(0, vec.bestState(ties.data(), decode::kStates));
        ties[5] = 9;
        ties[40] = 9;
        EXPECT_EQ(5, vec.bestState(ties.data(), decode::kStates));
    }
}

TEST_F(SimdKernelTest, DemapBatchMatchesScalarAndPerSymbolDemap)
{
    SplitMix64 rng(0xDE3A9);
    for (int mod = 0; mod < 4; ++mod) {
        auto m = static_cast<phy::Modulation>(mod);
        phy::Demapper::Config dcfg;
        dcfg.softWidth = 6;
        phy::Demapper dm(m, dcfg);
        const int bits = phy::bitsPerSubcarrier(m);

        // Mixed magnitudes: in-range, saturating, and tiny.
        const size_t n = 131; // deliberately not lane-aligned
        SampleVec ys(n);
        std::vector<double> ws(n);
        for (size_t i = 0; i < n; ++i) {
            double mag = (i % 3 == 0) ? 8.0 : 1.0;
            ys[i] = Sample((rng.nextDouble() * 2.0 - 1.0) * mag,
                           (rng.nextDouble() * 2.0 - 1.0) * mag);
            ws[i] = 0.25 + rng.nextDouble();
        }

        const double *weight_sets[] = {nullptr, ws.data()};
        for (const double *weights : weight_sets) {
            // Reference: the per-symbol scalar demap the receiver
            // used before batching.
            SoftVec ref(n * static_cast<size_t>(bits));
            kernels::setBackend(Backend::Scalar);
            for (size_t i = 0; i < n; ++i) {
                dm.demap(ys[i],
                         &ref[i * static_cast<size_t>(bits)],
                         weights ? weights[i] : 1.0);
            }
            for (Backend b : kernels::availableBackends()) {
                kernels::setBackend(b);
                SoftVec got(n * static_cast<size_t>(bits), -999);
                dm.demapBatch(ys.data(), weights, n, got.data());
                ASSERT_EQ(ref, got)
                    << "mod " << mod << " backend "
                    << kernels::backendName(b)
                    << (weights ? " weighted" : " unweighted");
            }
        }
    }
}

namespace {

/**
 * A random finite double drawn from the classes the FFT kernel must
 * carry bit for bit: signed zeros, subnormals, magnitudes near 1e300
 * (256-point sums stay finite) and ordinary values.
 */
double
fftInput(SplitMix64 &rng)
{
    const double sign = rng.nextBelow(2) ? -1.0 : 1.0;
    switch (rng.nextBelow(8)) {
      case 0:
        return sign * 0.0;
      case 1: {
        // Exponent field 0: a subnormal with a random mantissa.
        const std::uint64_t bits = (rng.next() >> 12) | 1u;
        double d;
        std::memcpy(&d, &bits, sizeof d);
        return sign * d;
      }
      case 2:
        return sign * std::ldexp(1.0 + rng.nextDouble(),
                                 980 + static_cast<int>(
                                           rng.nextBelow(17)));
      case 3:
        return sign * std::ldexp(1.0 + rng.nextDouble(), -1000);
      default:
        return sign * rng.nextDouble();
    }
}

} // namespace

TEST_F(SimdKernelTest, FftMatchesReferenceOnEveryBackend)
{
    SplitMix64 rng(0xFF7);
    int transforms = 0;
    for (int n : {2, 8, 64, 256}) {
        const phy::Fft fft(n);
        for (int trial = 0; trial < 200; ++trial) {
            // Every fourth vector is all signed zeros, where the sign
            // of each sum is decided by the operation order alone.
            const bool zeros = trial % 4 == 0;
            SampleVec in(static_cast<size_t>(n));
            for (auto &x : in) {
                x = zeros ? Sample(rng.nextBelow(2) ? -0.0 : 0.0,
                                   rng.nextBelow(2) ? -0.0 : 0.0)
                          : Sample(fftInput(rng), fftInput(rng));
            }
            for (bool inverse : {false, true}) {
                SampleVec want = in;
                phy::fftReference(want, inverse);
                for (Backend b : kernels::availableBackends()) {
                    ASSERT_TRUE(kernels::setBackend(b));
                    SampleVec got = in;
                    if (inverse)
                        fft.inverse(got);
                    else
                        fft.forward(got);
                    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                          want.size() * sizeof(Sample)),
                              0)
                        << kernels::backendName(b) << " n " << n
                        << " trial " << trial << " inverse "
                        << inverse;
                }
                ++transforms;
            }
        }
    }
    EXPECT_EQ(transforms, 4 * 200 * 2);
}

TEST_F(SimdKernelTest, ChannelKernelsMatchScalar)
{
    SplitMix64 rng(0xC4A2);
    const size_t n = 203; // odd tail on purpose
    SampleVec base(n);
    std::vector<double> gauss(2 * n);
    for (auto &s : base)
        s = Sample(rng.nextDouble() * 2.0 - 1.0,
                   rng.nextDouble() * 2.0 - 1.0);
    for (auto &g : gauss)
        g = rng.nextDouble() * 4.0 - 2.0;
    const Sample h(0.7310529, -0.3912047);
    const double sigma = 0.1638;

    const Ops &ref = tableOf(Backend::Scalar);
    SampleVec scaled_ref = base;
    ref.scaleComplex(scaled_ref.data(), n, h);
    SampleVec noisy_ref = base;
    ref.axpyNoise(noisy_ref.data(), n, sigma, gauss.data());

    // The scalar kernel must itself match the expression it
    // replaced: samples[i] *= h via std::complex.
    SampleVec direct = base;
    for (auto &s : direct)
        s *= h;
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(direct[i], scaled_ref[i]) << "sample " << i;

    for (Backend b : vectorBackends()) {
        const Ops &vec = tableOf(b);
        SampleVec scaled = base;
        vec.scaleComplex(scaled.data(), n, h);
        SampleVec noisy = base;
        vec.axpyNoise(noisy.data(), n, sigma, gauss.data());
        ASSERT_EQ(0, std::memcmp(scaled.data(), scaled_ref.data(),
                                 n * sizeof(Sample)))
            << kernels::backendName(b);
        ASSERT_EQ(0, std::memcmp(noisy.data(), noisy_ref.data(),
                                 n * sizeof(Sample)))
            << kernels::backendName(b);
    }
}

// ------------------------- SoA analytic-engine kernels (PR 6) ----

TEST_F(SimdKernelTest, SinrAccumBatchMatchesScalarReference)
{
    SplitMix64 rng(0x51A8);
    const int cells = 13;
    const size_t n = 101; // odd tail on purpose
    std::vector<std::vector<double>> gains(
        n, std::vector<double>(static_cast<size_t>(cells)));
    std::vector<const double *> rows(n);
    std::vector<std::int32_t> serving(n);
    std::vector<std::uint64_t> fade_keys(n);
    std::vector<std::uint8_t> active(static_cast<size_t>(cells));
    std::vector<double> sig(n);
    for (auto &a : active)
        a = rng.nextBelow(4) != 0 ? 1 : 0; // mostly-on, some idle
    for (size_t i = 0; i < n; ++i) {
        for (auto &g : gains[i])
            g = rng.nextDouble() * 1e-3;
        rows[i] = gains[i].data();
        serving[i] =
            static_cast<std::int32_t>(rng.nextBelow(cells));
        fade_keys[i] = rng.next();
        // Sprinkle zero-signal entries: they must come out as
        // exactly the named sentinel, not -inf.
        sig[i] = (i % 17 == 0) ? 0.0 : rng.nextDouble() * 50.0;
    }

    for (std::uint64_t t :
         {std::uint64_t(0), std::uint64_t(7),
          std::uint64_t(91234)}) {
        // Reference: the per-user oracle's scalar expression,
        // written out longhand.
        std::vector<double> want(n);
        for (size_t i = 0; i < n; ++i) {
            const CounterRng stream(fade_keys[i]);
            double interference = 0.0;
            for (int c2 = 0; c2 < cells; ++c2) {
                if (c2 == serving[i] ||
                    !active[static_cast<size_t>(c2)])
                    continue;
                interference +=
                    gains[i][static_cast<size_t>(c2)] *
                    sim::detail::interferenceFade(
                        stream,
                        t * static_cast<std::uint64_t>(cells) +
                            static_cast<std::uint64_t>(c2));
            }
            const double lin = sig[i] / (1.0 + interference);
            want[i] = lin > 0.0 ? 10.0 * std::log10(lin)
                                : sim::kZeroSinrDb;
        }
        for (Backend b : kernels::availableBackends()) {
            const Ops &ops = tableOf(b);
            std::vector<double> got(n, -1.0);
            ops.sinrAccumBatch(rows.data(), serving.data(),
                               fade_keys.data(), active.data(),
                               cells, t, sig.data(), n,
                               sim::kZeroSinrDb, got.data());
            ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                     n * sizeof(double)))
                << kernels::backendName(b) << " t " << t;
            for (size_t i = 0; i < n; i += 17)
                ASSERT_EQ(sim::kZeroSinrDb, got[i])
                    << "zero-signal entry " << i << " backend "
                    << kernels::backendName(b);
        }
    }
}

TEST_F(SimdKernelTest, PerDrawBatchMatchesScalarAcrossBackends)
{
    // A synthetic flattened table: the cross-backend contract does
    // not care where the numbers came from, only that every lane
    // interpolates and draws bit-identically.
    SplitMix64 rng(0x9E4D);
    const int bins = 9;
    kernels::PerTableView tv;
    std::vector<double> per(
        static_cast<size_t>(phy::kNumRates * bins));
    std::vector<double> log_ok(per.size()), log_bad(per.size());
    for (size_t i = 0; i < per.size(); ++i) {
        per[i] = rng.nextDouble();
        log_ok[i] = -12.0 * rng.nextDouble() - 0.5;
        log_bad[i] = -4.0 * rng.nextDouble() - 0.1;
    }
    tv.per = per.data();
    tv.logPberOk = log_ok.data();
    tv.logPberBad = log_bad.data();
    tv.numBins = bins;
    tv.snrLoDb = -4.0;
    tv.snrStepDb = 2.5;

    const size_t n = 73; // odd tail on purpose
    std::vector<std::int32_t> rates(n);
    std::vector<double> snr(n);
    std::vector<std::uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) {
        rates[i] =
            static_cast<std::int32_t>(rng.nextBelow(phy::kNumRates));
        // In-range, below-range and above-range SNRs so both edge
        // clamps and the interior interpolation are exercised.
        snr[i] = -10.0 + rng.nextDouble() * 40.0;
        keys[i] = rng.next();
    }
    for (std::uint64_t t :
         {std::uint64_t(0), std::uint64_t(5151)}) {
        const Ops &ref = tableOf(Backend::Scalar);
        std::vector<std::uint8_t> ok_ref(n, 9);
        std::vector<double> pber_ref(n, -1.0);
        ref.perDrawBatch(tv, rates.data(), snr.data(), keys.data(),
                         t, n, ok_ref.data(), pber_ref.data());
        for (Backend b : vectorBackends()) {
            const Ops &vec = tableOf(b);
            std::vector<std::uint8_t> ok(n, 7);
            std::vector<double> pber(n, -2.0);
            vec.perDrawBatch(tv, rates.data(), snr.data(),
                             keys.data(), t, n, ok.data(),
                             pber.data());
            ASSERT_EQ(ok_ref, ok)
                << kernels::backendName(b) << " t " << t;
            ASSERT_EQ(0, std::memcmp(pber_ref.data(), pber.data(),
                                     n * sizeof(double)))
                << kernels::backendName(b) << " t " << t;
        }
    }
}

TEST_F(SimdKernelTest, PfDecayMatchesScalarReference)
{
    SplitMix64 rng(0xF0EC);
    const size_t n = 37; // odd tail on purpose
    const double a = 1.0 / 48.0;
    const double served_bits = 8192.0;
    std::vector<double> base(n);
    for (auto &x : base)
        x = rng.nextDouble() * 1e5 + 1.0;
    for (std::int32_t granted :
         {std::int32_t(-1), std::int32_t(0), std::int32_t(17),
          static_cast<std::int32_t>(n - 1)}) {
        // Reference: the loop CellScheduler::update() used before
        // batching.
        std::vector<double> want = base;
        for (size_t i = 0; i < n; ++i) {
            const double inst =
                static_cast<std::int32_t>(i) == granted
                    ? served_bits
                    : 0.0;
            want[i] = (1.0 - a) * want[i] + a * inst;
        }
        for (Backend b : kernels::availableBackends()) {
            const Ops &ops = tableOf(b);
            std::vector<double> got = base;
            ops.pfDecay(got.data(), n, a, granted, served_bits);
            ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                     n * sizeof(double)))
                << kernels::backendName(b) << " granted "
                << granted;
        }
    }
}

/**
 * Forcing the scalar backend reproduces the full-pipeline frame
 * results of the widest backend over a rate x channel grid -- the
 * scenario-level statement of the bit-exactness policy, and what
 * keeps the pins in test_bitexact_grid backend-independent. Exercises
 * all three decoders so Viterbi, SOVA and BCJR kernels are all
 * covered end to end.
 */
TEST_F(SimdKernelTest, ScalarBackendReproducesGridResults)
{
    struct Cell {
        int rate;
        const char *channel;
        const char *decoder;
    };
    const Cell cells[] = {
        {0, "awgn", "viterbi"}, {3, "awgn", "sova"},
        {5, "awgn", "bcjr"},    {1, "rayleigh", "viterbi"},
        {4, "rayleigh", "bcjr"}, {6, "ar1", "sova"},
    };
    for (const Cell &cell : cells) {
        sim::ScenarioSpec spec;
        spec.rate = cell.rate;
        spec.channel = cell.channel;
        spec.channelCfg = li::Config::fromString(
            std::string(cell.channel) == "awgn"
                ? "snr_db=9,seed=77"
                : "snr_db=9,doppler_hz=25,seed=77");
        spec.rx.decoder = cell.decoder;
        spec.payloadBits = 300;

        struct Run {
            BitVec bits;
            std::vector<SoftDecision> soft;
            std::uint64_t errors = 0;
        };
        auto run_with = [&](Backend backend) {
            sim::Testbench tb(spec);
            // Select the table directly: CI runs this suite under a
            // forced WILIS_KERNEL_BACKEND, and the comparison must
            // still be scalar vs widest, not current vs current.
            EXPECT_TRUE(kernels::setBackend(backend));
            Run r;
            for (std::uint64_t p = 0; p < 3; ++p) {
                sim::FrameResult fr =
                    tb.runFrame(spec.payloadBits, p);
                r.bits.insert(r.bits.end(), fr.rx.payload.begin(),
                              fr.rx.payload.end());
                r.soft.insert(r.soft.end(), fr.rx.soft.begin(),
                              fr.rx.soft.end());
                r.errors += fr.bitErrors;
            }
            return r;
        };

        Run scalar = run_with(Backend::Scalar);
        Run widest = run_with(kernels::availableBackends().back());
        ASSERT_EQ(scalar.bits, widest.bits)
            << cell.rate << "/" << cell.channel << "/"
            << cell.decoder;
        ASSERT_EQ(scalar.errors, widest.errors);
        ASSERT_EQ(scalar.soft.size(), widest.soft.size());
        for (size_t i = 0; i < scalar.soft.size(); ++i) {
            ASSERT_EQ(scalar.soft[i].bit, widest.soft[i].bit);
            ASSERT_EQ(scalar.soft[i].llr, widest.soft[i].llr)
                << "hint " << i;
        }
    }
}
