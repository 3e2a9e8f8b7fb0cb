/**
 * @file
 * Mapper and soft-demapper tests: constellation normalization, Gray
 * adjacency, and noiseless demap consistency (the sign of every soft
 * metric must recover the transmitted bit).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "phy/demapper.hh"
#include "phy/mapper.hh"

using namespace wilis;
using namespace wilis::phy;

namespace {

int
hammingDistance(int a, int b)
{
    int x = a ^ b;
    int d = 0;
    while (x) {
        d += x & 1;
        x >>= 1;
    }
    return d;
}

} // namespace

class MapperAllMods : public ::testing::TestWithParam<Modulation>
{};

INSTANTIATE_TEST_SUITE_P(AllModulations, MapperAllMods,
                         ::testing::Values(Modulation::BPSK,
                                           Modulation::QPSK,
                                           Modulation::QAM16,
                                           Modulation::QAM64));

TEST_P(MapperAllMods, UnitAverageEnergy)
{
    Mapper m(GetParam());
    auto pts = m.constellation();
    double e = 0.0;
    for (const auto &p : pts)
        e += std::norm(p);
    EXPECT_NEAR(e / static_cast<double>(pts.size()), 1.0, 1e-12);
}

TEST_P(MapperAllMods, AllPointsDistinct)
{
    Mapper m(GetParam());
    auto pts = m.constellation();
    for (size_t i = 0; i < pts.size(); ++i) {
        for (size_t j = i + 1; j < pts.size(); ++j)
            EXPECT_GT(std::abs(pts[i] - pts[j]), 1e-9)
                << "points " << i << "," << j;
    }
}

TEST_P(MapperAllMods, GrayAdjacency)
{
    // Nearest-neighbour constellation points must differ in exactly
    // one bit (minimizes bit errors for symbol-neighbour mistakes).
    Mapper m(GetParam());
    auto pts = m.constellation();
    double min_dist = 1e9;
    for (size_t i = 0; i < pts.size(); ++i)
        for (size_t j = i + 1; j < pts.size(); ++j)
            min_dist = std::min(min_dist, std::abs(pts[i] - pts[j]));

    for (size_t i = 0; i < pts.size(); ++i) {
        for (size_t j = i + 1; j < pts.size(); ++j) {
            if (std::abs(pts[i] - pts[j]) < min_dist * 1.001) {
                EXPECT_EQ(hammingDistance(static_cast<int>(i),
                                          static_cast<int>(j)),
                          1)
                    << "neighbours " << i << "," << j;
            }
        }
    }
}

TEST_P(MapperAllMods, NoiselessDemapRecoversBits)
{
    Modulation mod = GetParam();
    Mapper m(mod);
    Demapper::Config dcfg;
    dcfg.softWidth = 8;
    Demapper dm(mod, dcfg);

    int n = bitsPerSubcarrier(mod);
    for (int v = 0; v < (1 << n); ++v) {
        Bit bits[6];
        for (int b = 0; b < n; ++b)
            bits[b] = static_cast<Bit>((v >> (n - 1 - b)) & 1);
        Sample y = m.map(bits);
        SoftBit soft[6];
        ASSERT_EQ(dm.demap(y, soft), n);
        for (int b = 0; b < n; ++b) {
            EXPECT_EQ(soft[b] > 0 ? 1 : 0, bits[b])
                << kModulationNames.name(mod) << " pattern " << v << " bit "
                << b << " soft " << soft[b];
            EXPECT_NE(soft[b], 0) << "noiseless metric must be nonzero";
        }
    }
}

TEST_P(MapperAllMods, QuantizerSaturates)
{
    Modulation mod = GetParam();
    Demapper::Config dcfg;
    dcfg.softWidth = 4;
    dcfg.fullScale = 1.0;
    Demapper dm(mod, dcfg);
    SoftBit soft[6];
    const int n = dm.demap(Sample(100.0, 100.0), soft);
    for (int i = 0; i < n; ++i) {
        EXPECT_LE(soft[i], 7);
        EXPECT_GE(soft[i], -8);
    }
    // The sign bit metric must peg at the positive rail.
    EXPECT_EQ(soft[0], 7);
}

TEST(Demapper, SnrScalingScalesMetrics)
{
    Demapper::Config plain;
    plain.softWidth = 16;
    plain.fullScale = 64.0;
    Demapper::Config scaled = plain;
    scaled.applySnrScaling = true;
    scaled.esN0 = 4.0; // 6 dB

    Demapper d_plain(Modulation::QPSK, plain);
    Demapper d_scaled(Modulation::QPSK, scaled);

    Sample y(0.4, -0.3);
    double m_plain[6];
    double m_scaled[6];
    const int n = d_plain.demapReal(y, m_plain);
    ASSERT_EQ(d_scaled.demapReal(y, m_scaled), n);
    double factor = 4.0 * modulationLlrScale(Modulation::QPSK);
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(m_scaled[i], m_plain[i] * factor, 1e-12);
}

TEST(Demapper, Qam16InnerBitMetricPiecewise)
{
    // For the 16-QAM axis the second bit's metric is 2k - |v|:
    // positive inside the +-2k band (inner points), negative outside.
    Demapper::Config dcfg;
    dcfg.softWidth = 12;
    Demapper dm(Modulation::QAM16, dcfg);
    const double k = 1.0 / std::sqrt(10.0);

    double m[6];
    dm.demapReal(Sample(1.0 * k, 0.0), m); // inner point
    EXPECT_GT(m[1], 0.0);
    dm.demapReal(Sample(3.0 * k, 0.0), m); // outer point
    EXPECT_LT(m[1], 0.0);
}
