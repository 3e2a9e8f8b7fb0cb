#include "phy/mapper.hh"

#include <array>
#include <cmath>

#include "common/logging.hh"

namespace wilis {
namespace phy {

namespace {

/** Normalization factor K_mod of @p mod. */
double
kmodOf(Modulation mod)
{
    switch (mod) {
      case Modulation::BPSK:
        return 1.0;
      case Modulation::QPSK:
        return 1.0 / std::sqrt(2.0);
      case Modulation::QAM16:
        return 1.0 / std::sqrt(10.0);
      case Modulation::QAM64:
        return 1.0 / std::sqrt(42.0);
    }
    wilis_panic("bad modulation");
}

/** Map per-axis bits (MSB-first Gray) to an unnormalized level. */
double
axisLevel(const Bit *bits, int bits_per_axis)
{
    // First bit: sign (1 = positive). Remaining bits Gray-select the
    // magnitude from the inside of the constellation outward.
    double sign = bits[0] ? 1.0 : -1.0;
    double mag;
    switch (bits_per_axis) {
      case 1:
        mag = 1.0;
        break;
      case 2:
        mag = bits[1] ? 1.0 : 3.0;
        break;
      case 3:
        if (bits[1])
            mag = bits[2] ? 3.0 : 1.0;
        else
            mag = bits[2] ? 5.0 : 7.0;
        break;
      default:
        wilis_panic("unsupported bits per axis %d", bits_per_axis);
    }
    return sign * mag;
}

/** The point of one bit pattern (MSB first): K_mod x (I, Q) levels. */
Sample
point(Modulation mod, const Bit *bits)
{
    const double k_mod = kmodOf(mod);
    switch (mod) {
      case Modulation::BPSK:
        return Sample(axisLevel(bits, 1), 0.0);
      case Modulation::QPSK:
        return k_mod * Sample(axisLevel(bits, 1),
                              axisLevel(bits + 1, 1));
      case Modulation::QAM16:
        return k_mod * Sample(axisLevel(bits, 2),
                              axisLevel(bits + 2, 2));
      case Modulation::QAM64:
        return k_mod * Sample(axisLevel(bits, 3),
                              axisLevel(bits + 3, 3));
    }
    wilis_panic("bad modulation");
}

using Table = std::array<Sample, 64>;

/** Every modulation's constellation by bit pattern, built once. */
const Table &
tableOf(Modulation mod)
{
    static const std::array<Table, 4> tables = [] {
        std::array<Table, 4> t{};
        for (Modulation m : {Modulation::BPSK, Modulation::QPSK,
                             Modulation::QAM16, Modulation::QAM64}) {
            const int n_bpsc = bitsPerSubcarrier(m);
            for (int v = 0; v < (1 << n_bpsc); ++v) {
                Bit bits[6];
                for (int b = 0; b < n_bpsc; ++b)
                    bits[b] =
                        static_cast<Bit>((v >> (n_bpsc - 1 - b)) & 1);
                t[static_cast<size_t>(m)][static_cast<size_t>(v)] =
                    point(m, bits);
            }
        }
        return t;
    }();
    return tables[static_cast<size_t>(mod)];
}

} // namespace

Mapper::Mapper(Modulation mod_)
    : mod(mod_), n_bpsc(bitsPerSubcarrier(mod_)),
      points(tableOf(mod_).data())
{}

SampleVec
Mapper::mapStream(const BitVec &bits) const
{
    wilis_assert(bits.size() % static_cast<size_t>(n_bpsc) == 0,
                 "bit stream length %zu not a multiple of %d",
                 bits.size(), n_bpsc);
    SampleVec out;
    out.reserve(bits.size() / static_cast<size_t>(n_bpsc));
    for (size_t i = 0; i < bits.size();
         i += static_cast<size_t>(n_bpsc))
        out.push_back(map(&bits[i]));
    return out;
}

std::vector<Sample>
Mapper::constellation() const
{
    return std::vector<Sample>(points, points + (1 << n_bpsc));
}

} // namespace phy
} // namespace wilis
