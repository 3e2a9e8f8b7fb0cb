/**
 * @file
 * PLCP framing and synchronization tests: SIGNAL field round trips
 * and error detection, preamble structure, Schmidl-Cox detection at
 * unknown offsets, CFO estimation/correction, and the full
 * detect -> header -> payload receive chain over a noisy channel.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.hh"
#include "common/random.hh"
#include "phy/plcp.hh"
#include "phy/preamble.hh"
#include "phy/sync.hh"

using namespace wilis;
using namespace wilis::phy;

namespace {

BitVec
randomBytesAsBits(size_t bytes, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    BitVec v(bytes * 8);
    for (auto &b : v)
        b = rng.nextBit();
    return v;
}

} // namespace

TEST(Signal, RateBitsRoundTripAllRates)
{
    for (int r = 0; r < kNumRates; ++r)
        EXPECT_EQ(Signal::rateFromBits(Signal::rateBits(r)), r);
    EXPECT_EQ(Signal::rateFromBits(0b0000), -1);
}

TEST(Signal, BitsRoundTrip)
{
    for (int r = 0; r < kNumRates; ++r) {
        for (int len : {1, 100, 1500, 4095}) {
            SignalField f;
            f.rate = r;
            f.lengthBytes = len;
            SignalField g;
            ASSERT_TRUE(Signal::decodeBits(Signal::encodeBits(f), g));
            EXPECT_EQ(g, f);
        }
    }
}

TEST(Signal, ParityErrorDetected)
{
    SignalField f;
    f.rate = 4;
    f.lengthBytes = 1000;
    BitVec bits = Signal::encodeBits(f);
    bits[8] ^= 1; // corrupt one length bit
    SignalField g;
    EXPECT_FALSE(Signal::decodeBits(bits, g));
}

TEST(Signal, TailBitsAreZero)
{
    SignalField f;
    f.rate = 0;
    f.lengthBytes = 4095;
    BitVec bits = Signal::encodeBits(f);
    for (int i = 18; i < 24; ++i)
        EXPECT_EQ(bits[static_cast<size_t>(i)], 0);
}

TEST(Signal, ModulateDemodulateNoiseless)
{
    SampleVec flat_h(64, Sample(1.0, 0.0));
    for (int r = 0; r < kNumRates; ++r) {
        SignalField f;
        f.rate = r;
        f.lengthBytes = 77 + r;
        SampleVec sym = Signal::modulate(f);
        ASSERT_EQ(sym.size(), 80u);
        SignalField g;
        ASSERT_TRUE(Signal::demodulate(sym, flat_h, g));
        EXPECT_EQ(g, f);
    }
}

TEST(Preamble, StructureAndPeriodicity)
{
    SampleVec sts = Preamble::shortTraining();
    ASSERT_EQ(sts.size(), 160u);
    // Periodic with period 16.
    for (size_t i = 0; i + 16 < sts.size(); ++i)
        ASSERT_LT(std::abs(sts[i] - sts[i + 16]), 1e-12) << i;

    SampleVec lts = Preamble::longTraining();
    ASSERT_EQ(lts.size(), 160u);
    // Guard is the symbol tail; the two symbols repeat.
    for (int k = 0; k < 64; ++k)
        ASSERT_LT(std::abs(lts[static_cast<size_t>(32 + k)] -
                           lts[static_cast<size_t>(96 + k)]),
                  1e-12);
    for (int k = 0; k < 32; ++k)
        ASSERT_LT(std::abs(lts[static_cast<size_t>(k)] -
                           lts[static_cast<size_t>(96 + 32 + k)]),
                  1e-12);

    EXPECT_EQ(Preamble::full().size(),
              static_cast<size_t>(Preamble::kTotalLen));
}

TEST(Preamble, LongTrainingHasGoodAutocorrelation)
{
    // The LTS must correlate sharply with itself and weakly with
    // shifted versions (that's what makes fine timing work).
    SampleVec lts = Preamble::longTrainingSymbol();
    auto corr = [&](int shift) {
        Sample acc(0, 0);
        for (int k = 0; k < 64; ++k)
            acc += lts[static_cast<size_t>((k + shift) % 64)] *
                   std::conj(lts[static_cast<size_t>(k)]);
        return std::abs(acc);
    };
    double peak = corr(0);
    for (int shift = 4; shift < 60; ++shift)
        EXPECT_LT(corr(shift), 0.5 * peak) << "shift " << shift;
}

TEST(Sync, LocatesFrameAtKnownOffset)
{
    PlcpTransmitter tx;
    BitVec payload = randomBytesAsBits(100, 5);
    SampleVec frame = tx.buildFrame(2, payload);

    for (size_t offset : {0u, 37u, 250u}) {
        // Leading low-power noise, then the frame.
        SplitMix64 rng(offset);
        SampleVec rx(offset);
        for (auto &s : rx)
            s = 0.03 * Sample(rng.nextDouble() - 0.5,
                              rng.nextDouble() - 0.5);
        rx.insert(rx.end(), frame.begin(), frame.end());

        Synchronizer sync;
        SyncResult res = sync.locate(rx);
        ASSERT_TRUE(res.detected) << "offset " << offset;
        EXPECT_EQ(res.frameStart, offset);
        EXPECT_LT(std::abs(res.cfoHz), 500.0);
    }
}

TEST(Sync, EstimatesInjectedCfo)
{
    PlcpTransmitter tx;
    BitVec payload = randomBytesAsBits(64, 9);
    SampleVec frame = tx.buildFrame(0, payload);

    for (double cfo : {-80000.0, -12000.0, 30000.0, 120000.0}) {
        SampleVec rx = frame;
        Synchronizer::applyCfo(rx, cfo);
        Synchronizer sync;
        SyncResult res = sync.locate(rx);
        ASSERT_TRUE(res.detected) << "cfo " << cfo;
        EXPECT_NEAR(res.cfoHz, cfo, std::abs(cfo) * 0.02 + 300.0)
            << "cfo " << cfo;
    }
}

TEST(Plcp, FrameRoundTripNoiseless)
{
    PlcpTransmitter tx;
    PlcpReceiver rx;
    for (int rate : {0, 3, 7}) {
        BitVec payload = randomBytesAsBits(200, 33 + rate);
        SampleVec frame = tx.buildFrame(rate, payload);
        EXPECT_EQ(frame.size(), tx.frameSamples(rate, payload.size()));
        PlcpRxResult res = rx.receiveFrame(frame);
        ASSERT_TRUE(res.headerOk) << "rate " << rate;
        EXPECT_EQ(res.header.rate, rate);
        EXPECT_EQ(res.header.lengthBytes, 200);
        EXPECT_EQ(res.payload, payload);
    }
}

TEST(Plcp, FullChainWithOffsetCfoAndNoise)
{
    // The complete unknown-arrival receive chain: detect the frame,
    // correct CFO, estimate the channel from the preamble, decode
    // the header, decode the payload.
    PlcpTransmitter tx;
    BitVec payload = randomBytesAsBits(150, 77);
    SampleVec frame = tx.buildFrame(2, payload);

    SampleVec rx_stream(123, Sample(0, 0));
    rx_stream.insert(rx_stream.end(), frame.begin(), frame.end());
    Synchronizer::applyCfo(rx_stream, 40000.0);
    channel::AwgnChannel chan({.snrDb = 20.0, .seed = 3});
    chan.apply(rx_stream, 0);

    Synchronizer sync;
    SyncResult found = sync.locate(rx_stream);
    ASSERT_TRUE(found.detected);
    ASSERT_NEAR(static_cast<double>(found.frameStart), 123.0, 1.0);

    Synchronizer::applyCfo(rx_stream, -found.cfoHz);
    SampleVec aligned(rx_stream.begin() +
                          static_cast<long>(found.frameStart),
                      rx_stream.end());
    PlcpReceiver prx;
    PlcpRxResult res = prx.receiveFrame(aligned);
    ASSERT_TRUE(res.headerOk);
    EXPECT_EQ(res.header.rate, 2);
    EXPECT_EQ(res.header.lengthBytes, 150);
    EXPECT_EQ(res.payload, payload);
}

TEST(Plcp, PreambleChannelEstimationHandlesFlatGain)
{
    // Scale + rotate the whole frame: preamble-based estimation must
    // absorb it without external CSI.
    PlcpTransmitter tx;
    BitVec payload = randomBytesAsBits(80, 11);
    SampleVec frame = tx.buildFrame(4, payload);
    Sample g = std::polar(0.6, 1.1);
    for (auto &s : frame)
        s *= g;

    PlcpReceiver rx;
    PlcpRxResult res = rx.receiveFrame(frame);
    ASSERT_TRUE(res.headerOk);
    EXPECT_EQ(res.payload, payload);
}

TEST(Plcp, TruncatedFrameIsRejectedNotFatal)
{
    // A frame cut short -- inside SIGNAL, or one sample short of the
    // LENGTH its SIGNAL announces (a corrupt LENGTH can pass the 1-bit
    // parity) -- is a bad header, not an abort.
    PlcpTransmitter tx;
    BitVec payload = randomBytesAsBits(100, 5);
    const SampleVec frame = tx.buildFrame(3, payload);
    PlcpReceiver rx;

    SampleVec in_signal(frame.begin(),
                        frame.begin() + Preamble::kTotalLen + 40);
    PlcpRxResult cut = rx.receiveFrame(in_signal);
    EXPECT_FALSE(cut.headerOk);
    EXPECT_TRUE(cut.payload.empty());
    EXPECT_TRUE(cut.soft.empty());

    SampleVec one_short(frame.begin(), frame.end() - 1);
    PlcpRxResult short_res = rx.receiveFrame(one_short);
    EXPECT_FALSE(short_res.headerOk);
    EXPECT_TRUE(short_res.payload.empty());
    EXPECT_TRUE(short_res.soft.empty());

    PlcpRxResult whole = rx.receiveFrame(frame);
    ASSERT_TRUE(whole.headerOk);
    EXPECT_EQ(whole.payload, payload);
}
