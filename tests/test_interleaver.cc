/**
 * @file
 * Interleaver unit tests: permutation validity, inverse property,
 * standard-defined spreading behaviour, and stream processing.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/random.hh"
#include "phy/interleaver.hh"

using namespace wilis;
using namespace wilis::phy;

class InterleaverAllMods
    : public ::testing::TestWithParam<Modulation>
{};

INSTANTIATE_TEST_SUITE_P(AllModulations, InterleaverAllMods,
                         ::testing::Values(Modulation::BPSK,
                                           Modulation::QPSK,
                                           Modulation::QAM16,
                                           Modulation::QAM64));

TEST_P(InterleaverAllMods, IsAPermutation)
{
    Interleaver il(GetParam());
    std::set<int> seen;
    for (int k = 0; k < il.blockSize(); ++k) {
        int j = il.txPosition(k);
        EXPECT_GE(j, 0);
        EXPECT_LT(j, il.blockSize());
        EXPECT_TRUE(seen.insert(j).second) << "duplicate target " << j;
    }
}

TEST_P(InterleaverAllMods, DeinterleaveInvertsInterleave)
{
    Interleaver il(GetParam());
    SplitMix64 rng(99);
    BitVec block(static_cast<size_t>(il.blockSize()));
    for (auto &b : block)
        b = rng.nextBit();

    BitVec inter(block.size());
    il.interleaveStream(block, inter);
    // Convert to soft domain for the deinterleave path.
    SoftVec soft(inter.size());
    for (size_t i = 0; i < inter.size(); ++i)
        soft[i] = inter[i] ? 1 : -1;
    SoftVec deint(soft.size());
    il.deinterleave(soft, deint);
    for (size_t i = 0; i < block.size(); ++i)
        EXPECT_EQ(deint[i] > 0 ? 1 : 0, block[i]) << "bit " << i;
}

TEST_P(InterleaverAllMods, AdjacentBitsLandOnDistinctSubcarriers)
{
    // Property guaranteed by the first permutation: adjacent coded
    // bits map onto nonadjacent subcarriers.
    Interleaver il(GetParam());
    int n_bpsc = bitsPerSubcarrier(GetParam());
    for (int k = 0; k + 1 < il.blockSize(); ++k) {
        int sc0 = il.txPosition(k) / n_bpsc;
        int sc1 = il.txPosition(k + 1) / n_bpsc;
        EXPECT_NE(sc0, sc1) << "bits " << k << "," << k + 1;
    }
}

TEST(Interleaver, KnownBpskFirstEntries)
{
    // For BPSK (N_CBPS=48, s=1): j = i = 3*(k mod 16) + floor(k/16).
    Interleaver il(Modulation::BPSK);
    EXPECT_EQ(il.txPosition(0), 0);
    EXPECT_EQ(il.txPosition(1), 3);
    EXPECT_EQ(il.txPosition(2), 6);
    EXPECT_EQ(il.txPosition(15), 45);
    EXPECT_EQ(il.txPosition(16), 1);
    EXPECT_EQ(il.txPosition(47), 47);
}

TEST(Interleaver, StreamMatchesPerBlock)
{
    Interleaver il(Modulation::QAM16);
    SplitMix64 rng(5);
    const int blocks = 4;
    BitVec stream(static_cast<size_t>(blocks * il.blockSize()));
    for (auto &b : stream)
        b = rng.nextBit();

    BitVec whole(stream.size());
    il.interleaveStream(stream, whole);
    for (int blk = 0; blk < blocks; ++blk) {
        const int base = blk * il.blockSize();
        for (int k = 0; k < il.blockSize(); ++k)
            ASSERT_EQ(whole[static_cast<size_t>(base + il.txPosition(k))],
                      stream[static_cast<size_t>(base + k)])
                << "block " << blk << " bit " << k;
    }
}

TEST(InterleaverDeath, WrongBlockSizePanics)
{
    Interleaver il(Modulation::QPSK);
    BitVec bad(17);
    BitVec bad_out(17);
    EXPECT_DEATH(il.interleaveStream(bad, bad_out), "multiple of N_CBPS");
    SoftVec soft(17);
    SoftVec soft_out(17);
    EXPECT_DEATH(il.deinterleave(soft, soft_out), "block size");
}
