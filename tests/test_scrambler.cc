/**
 * @file
 * Scrambler unit tests: the 802.11 PRBS properties, self-inverse
 * behaviour, and the standard pilot polarity sequence.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "phy/scrambler.hh"

using namespace wilis;
using namespace wilis::phy;

TEST(Scrambler, KnownPrbsPrefix)
{
    // First 16 output bits of the all-ones-seeded 802.11 scrambler
    // (clause 17.3.5.4): 0000 1110 1111 0010.
    const Bit expected[16] = {0, 0, 0, 0, 1, 1, 1, 0,
                              1, 1, 1, 1, 0, 0, 1, 0};
    Scrambler s(0x7F);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(s.nextPrbsBit(), expected[i]) << "bit " << i;
}

TEST(Scrambler, Period127)
{
    Scrambler s(0x7F);
    BitVec first(127);
    for (auto &b : first)
        b = s.nextPrbsBit();
    for (int rep = 0; rep < 3; ++rep) {
        for (int i = 0; i < 127; ++i)
            ASSERT_EQ(s.nextPrbsBit(), first[static_cast<size_t>(i)])
                << "rep " << rep << " bit " << i;
    }
}

TEST(Scrambler, MaximalLengthBalance)
{
    // An m-sequence of length 127 contains 64 ones and 63 zeros.
    Scrambler s(0x7F);
    int ones = 0;
    for (int i = 0; i < 127; ++i)
        ones += s.nextPrbsBit();
    EXPECT_EQ(ones, 64);
}

TEST(Scrambler, SelfInverse)
{
    SplitMix64 rng(42);
    BitVec data(1000);
    for (auto &b : data)
        b = rng.nextBit();

    for (std::uint8_t seed : {0x7F, 0x5D, 0x01, 0x2A}) {
        Scrambler a(seed);
        Scrambler b(seed);
        BitVec scrambled(data.size());
        a.process(data, scrambled);
        BitVec recovered(data.size());
        b.process(scrambled, recovered);
        EXPECT_EQ(recovered, data) << "seed " << int(seed);
        EXPECT_NE(scrambled, data) << "seed " << int(seed);
    }
}

TEST(Scrambler, DifferentSeedsDiffer)
{
    const BitVec zeros(64, 0);
    BitVec out_a(64);
    BitVec out_b(64);
    Scrambler(0x7F).process(zeros, out_a);
    Scrambler(0x5D).process(zeros, out_b);
    EXPECT_NE(out_a, out_b);
}

TEST(Scrambler, PilotPolarityProperties)
{
    int p[127];
    Scrambler::pilotPolarity(p);
    int plus = 0;
    int minus = 0;
    for (int v : p) {
        ASSERT_TRUE(v == 1 || v == -1);
        (v == 1 ? plus : minus)++;
    }
    // 0 -> +1 (63 zeros), 1 -> -1 (64 ones).
    EXPECT_EQ(plus, 63);
    EXPECT_EQ(minus, 64);
    // Standard sequence starts +1 +1 +1 +1 -1 -1 -1 +1.
    EXPECT_EQ(p[0], 1);
    EXPECT_EQ(p[1], 1);
    EXPECT_EQ(p[2], 1);
    EXPECT_EQ(p[3], 1);
    EXPECT_EQ(p[4], -1);
    EXPECT_EQ(p[5], -1);
    EXPECT_EQ(p[6], -1);
    EXPECT_EQ(p[7], 1);
}

TEST(Scrambler, MatchesTheShiftRegisterForEverySeed)
{
    // The clause 17.3.5.5 register, one cell per delay element:
    // seed bit k-1 loads x_k, and each step shifts x_k -> x_k+1
    // with the feedback x7 ^ x4 entering x1 as the PRBS bit.
    SplitMix64 rng(7);
    BitVec data(300);
    for (auto &b : data)
        b = rng.nextBit();
    for (int seed = 1; seed < 128; ++seed) {
        int x[8] = {};
        for (int k = 1; k <= 7; ++k)
            x[k] = (seed >> (k - 1)) & 1;
        Scrambler bits(static_cast<std::uint8_t>(seed));
        BitVec out(data.size());
        Scrambler(static_cast<std::uint8_t>(seed)).process(data, out);
        for (size_t i = 0; i < data.size(); ++i) {
            const int fb = x[7] ^ x[4];
            for (int k = 7; k > 1; --k)
                x[k] = x[k - 1];
            x[1] = fb;
            ASSERT_EQ(bits.nextPrbsBit(), fb)
                << "seed " << seed << " bit " << i;
            ASSERT_EQ(out[i], data[i] ^ fb)
                << "seed " << seed << " bit " << i;
        }
    }
}

TEST(ScramblerDeath, ZeroSeedPanics)
{
    EXPECT_DEATH(Scrambler(0x80), "nonzero");
}
