/**
 * @file
 * Puncturer unit tests: 802.11a puncture patterns, length
 * bookkeeping, and erasure placement on depuncture.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "phy/puncture.hh"

using namespace wilis;
using namespace wilis::phy;

namespace {

/** Puncture @p coded into a fresh vector. */
BitVec
punctured(const Puncturer &p, const BitVec &coded)
{
    BitVec out(p.puncturedLength(coded.size()));
    p.puncture(coded, out);
    return out;
}

/** Depuncture @p soft into a fresh vector. */
SoftVec
depunctured(const Puncturer &p, const SoftVec &soft)
{
    SoftVec out(p.unpuncturedLength(soft.size()));
    p.depuncture(soft, out);
    return out;
}

} // namespace

TEST(Puncture, RateHalfIsIdentity)
{
    Puncturer p(CodeRate::R12);
    SplitMix64 rng(3);
    BitVec coded(96);
    for (auto &b : coded)
        b = rng.nextBit();
    EXPECT_EQ(punctured(p, coded), coded);
    EXPECT_EQ(p.puncturedLength(96), 96u);
    EXPECT_EQ(p.unpuncturedLength(96), 96u);
}

TEST(Puncture, RateTwoThirdsPattern)
{
    // Keep A1 B1 A2, drop B2 over each 4-bit period.
    Puncturer p(CodeRate::R23);
    BitVec coded = {0, 1, 0, 1, /* A1 B1 A2 B2 */
                    1, 0, 1, 0};
    BitVec out = punctured(p, coded);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out[0], coded[0]); // A1
    EXPECT_EQ(out[1], coded[1]); // B1
    EXPECT_EQ(out[2], coded[2]); // A2
    EXPECT_EQ(out[3], coded[4]); // next period A1
    EXPECT_EQ(out[4], coded[5]);
    EXPECT_EQ(out[5], coded[6]);
}

TEST(Puncture, RateThreeQuartersPattern)
{
    // Keep A1 B1 A2 B3, drop B2 A3 over each 6-bit period.
    Puncturer p(CodeRate::R34);
    BitVec coded = {1, 0, 1, 1, 0, 1, /* A1 B1 A2 B2 A3 B3 */
                    0, 1, 0, 0, 1, 0};
    BitVec out = punctured(p, coded);
    ASSERT_EQ(out.size(), 8u);
    EXPECT_EQ(out[0], coded[0]); // A1
    EXPECT_EQ(out[1], coded[1]); // B1
    EXPECT_EQ(out[2], coded[2]); // A2
    EXPECT_EQ(out[3], coded[5]); // B3
    EXPECT_EQ(out[4], coded[6]);
    EXPECT_EQ(out[5], coded[7]);
    EXPECT_EQ(out[6], coded[8]);
    EXPECT_EQ(out[7], coded[11]);
}

TEST(Puncture, LengthAccounting)
{
    Puncturer p23(CodeRate::R23);
    EXPECT_EQ(p23.puncturedLength(384), 288u);
    EXPECT_EQ(p23.unpuncturedLength(288), 384u);

    Puncturer p34(CodeRate::R34);
    EXPECT_EQ(p34.puncturedLength(432), 288u);
    EXPECT_EQ(p34.unpuncturedLength(288), 432u);
}

TEST(Puncture, DepunctureInsertsErasuresAtDroppedPositions)
{
    Puncturer p(CodeRate::R34);
    SoftVec rx = {10, -20, 30, -40, 50, 60, -70, 80};
    SoftVec full = depunctured(p, rx);
    ASSERT_EQ(full.size(), 12u);
    // Period 1: A1 B1 A2 [B2=0] [A3=0] B3
    EXPECT_EQ(full[0], 10);
    EXPECT_EQ(full[1], -20);
    EXPECT_EQ(full[2], 30);
    EXPECT_EQ(full[3], 0);
    EXPECT_EQ(full[4], 0);
    EXPECT_EQ(full[5], -40);
    // Period 2.
    EXPECT_EQ(full[6], 50);
    EXPECT_EQ(full[7], 60);
    EXPECT_EQ(full[8], -70);
    EXPECT_EQ(full[9], 0);
    EXPECT_EQ(full[10], 0);
    EXPECT_EQ(full[11], 80);
}

class PunctureRoundTrip : public ::testing::TestWithParam<CodeRate>
{};

INSTANTIATE_TEST_SUITE_P(AllRates, PunctureRoundTrip,
                         ::testing::Values(CodeRate::R12, CodeRate::R23,
                                           CodeRate::R34));

TEST_P(PunctureRoundTrip, SurvivingPositionsRoundTrip)
{
    Puncturer p(GetParam());
    SplitMix64 rng(11);
    BitVec coded(144);
    for (auto &b : coded)
        b = rng.nextBit();

    BitVec punct = punctured(p, coded);
    SoftVec soft(punct.size());
    for (size_t i = 0; i < punct.size(); ++i)
        soft[i] = punct[i] ? 5 : -5;
    SoftVec full = depunctured(p, soft);
    ASSERT_EQ(full.size(), coded.size());
    for (size_t i = 0; i < full.size(); ++i) {
        if (full[i] != 0) {
            EXPECT_EQ(full[i] > 0 ? 1 : 0, coded[i]) << "pos " << i;
        }
    }
}
