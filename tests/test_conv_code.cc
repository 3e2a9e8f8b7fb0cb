/**
 * @file
 * Convolutional code unit tests: generator correctness, trellis
 * table consistency, and termination behaviour.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "phy/conv_code.hh"

using namespace wilis;
using namespace wilis::phy;

namespace {

/** Rate-1/2 encode @p data into a fresh vector. */
BitVec
encoded(const BitVec &data, bool terminate)
{
    BitVec out(2 * (data.size() +
                    (terminate ? size_t{ConvCode::kTailBits} : 0)));
    convCode().encode(data, terminate, out);
    return out;
}

} // namespace

TEST(ConvCode, AllZeroInputGivesAllZeroOutput)
{
    BitVec data(100, 0);
    BitVec coded = encoded(data, true);
    EXPECT_EQ(coded.size(), 2 * (data.size() + 6));
    for (Bit b : coded)
        EXPECT_EQ(b, 0);
}

TEST(ConvCodeDeathTest, OutputSpanMustHoldRateHalfLength)
{
    // 33 bits code to 66, or 78 with the 6 tail bits.
    BitVec data(33, 1);
    BitVec out(78);
    convCode().encode(data, true, out);
    convCode().encode(data, false, BitSpan(out).first(66));
    EXPECT_DEATH(convCode().encode(data, false, out),
                 "encoder output span size");
}

TEST(ConvCode, ImpulseResponseMatchesGenerators)
{
    // A single 1 followed by zeros reads out the generator taps:
    // output pair k is (g0 bit, g1 bit) for delay k.
    BitVec data(7, 0);
    data[0] = 1;
    BitVec coded = encoded(data, false);
    // g0 = 133 octal = 1011011b, taps at delays 0,2,3,5,6.
    const Bit g0_taps[7] = {1, 0, 1, 1, 0, 1, 1};
    // g1 = 171 octal = 1111001b, taps at delays 0,1,2,3,6.
    const Bit g1_taps[7] = {1, 1, 1, 1, 0, 0, 1};
    for (int k = 0; k < 7; ++k) {
        EXPECT_EQ(coded[static_cast<size_t>(2 * k)], g0_taps[k])
            << "g0 delay " << k;
        EXPECT_EQ(coded[static_cast<size_t>(2 * k + 1)], g1_taps[k])
            << "g1 delay " << k;
    }
}

TEST(ConvCode, TerminationReturnsToStateZero)
{
    SplitMix64 rng(7);
    const ConvCode &code = convCode();
    for (int trial = 0; trial < 20; ++trial) {
        BitVec data(50);
        for (auto &b : data)
            b = rng.nextBit();
        int state = 0;
        for (Bit b : data)
            state = code.nextState(state, b);
        for (int i = 0; i < ConvCode::kTailBits; ++i)
            state = code.nextState(state, 0);
        EXPECT_EQ(state, 0);
    }
}

TEST(ConvCode, TrellisPredecessorConsistency)
{
    const ConvCode &code = convCode();
    for (int s = 0; s < ConvCode::kStates; ++s) {
        for (int x = 0; x < 2; ++x) {
            int ns = code.nextState(s, x);
            // The input that produced ns is recoverable from its MSB.
            EXPECT_EQ(ConvCode::inputOf(ns), x);
            // s must be one of the two predecessors of ns.
            EXPECT_TRUE(ConvCode::predecessor(ns, 0) == s ||
                        ConvCode::predecessor(ns, 1) == s)
                << "state " << s << " input " << x;
        }
    }
}

TEST(ConvCode, EveryStateHasTwoDistinctPredecessors)
{
    for (int s = 0; s < ConvCode::kStates; ++s) {
        int p0 = ConvCode::predecessor(s, 0);
        int p1 = ConvCode::predecessor(s, 1);
        EXPECT_NE(p0, p1);
        EXPECT_GE(p0, 0);
        EXPECT_LT(p0, ConvCode::kStates);
        EXPECT_GE(p1, 0);
        EXPECT_LT(p1, ConvCode::kStates);
    }
}

TEST(ConvCode, FreeDistanceIsTen)
{
    // The K=7 (133,171) code has free distance 10: the minimum
    // Hamming weight over all nonzero terminated codewords.
    int best = 1000;
    // Breadth-first over short input patterns (12 info bits covers
    // the minimum-weight paths of this code).
    for (unsigned pattern = 1; pattern < (1u << 12); ++pattern) {
        BitVec data(12);
        for (int i = 0; i < 12; ++i)
            data[static_cast<size_t>(i)] =
                static_cast<Bit>((pattern >> i) & 1);
        BitVec coded = encoded(data, true);
        int w = 0;
        for (Bit b : coded)
            w += b;
        best = std::min(best, w);
    }
    EXPECT_EQ(best, 10);
}
