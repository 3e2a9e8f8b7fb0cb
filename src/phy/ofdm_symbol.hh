/**
 * @file
 * 802.11a OFDM symbol structure: 64 subcarriers, of which 48 carry
 * data, 4 carry pilots (at logical indices +-7 and +-21), and the
 * rest (DC and the band edges) are null. PilotTracker supplies the
 * standard pilot polarity sequence p_n (generated by the all-ones
 * scrambler).
 */

#ifndef WILIS_PHY_OFDM_SYMBOL_HH
#define WILIS_PHY_OFDM_SYMBOL_HH

#include <array>

#include "common/types.hh"
#include "phy/modulation.hh"

namespace wilis {
namespace phy {

/** Static OFDM symbol geometry for 802.11a. */
struct OfdmGeometry {
    /** FFT size. */
    static constexpr int kFftSize = 64;
    /** Cyclic prefix length in samples. */
    static constexpr int kCpLen = 16;
    /** Samples per full OFDM symbol. */
    static constexpr int kSymbolLen = kFftSize + kCpLen;
    /** Data subcarriers per symbol. */
    static constexpr int kDataCarriers = 48;
    /** Pilot subcarriers per symbol. */
    static constexpr int kPilotCarriers = 4;
    /** Sample rate in MHz (20 MHz channelization). */
    static constexpr double kSampleRateMhz = 20.0;
    /** OFDM symbol duration in microseconds. */
    static constexpr double kSymbolUs = kSymbolLen / kSampleRateMhz;

    /**
     * FFT bins of the data subcarriers in carrier order: logical
     * indices -26..26 without DC (0) and the pilots (+-7, +-21),
     * negative indices wrapped to the top of the FFT.
     */
    static constexpr std::array<int, kDataCarriers> kDataBins = [] {
        std::array<int, kDataCarriers> bins{};
        int d = 0;
        for (int k = -26; k <= 26; ++k) {
            if (k == 0 || k == 7 || k == -7 || k == 21 || k == -21)
                continue;
            bins[static_cast<size_t>(d++)] = k >= 0 ? k : kFftSize + k;
        }
        return bins;
    }();

    /** FFT bin of the i-th data subcarrier (0..47). */
    static int dataBin(int i);

    /** FFT bin of the i-th pilot subcarrier (0..3). */
    static int pilotBin(int i);

    /** OFDM symbols @p payload_bits data bits need at @p rate. */
    static int numSymbols(const RateParams &rate, size_t payload_bits);

    /** Info bits after padding (excluding the 6 tail bits). */
    static size_t paddedInfoBits(const RateParams &rate,
                                 size_t payload_bits);

    /** Time-domain samples for @p payload_bits (with CP). */
    static size_t numSamples(const RateParams &rate, size_t payload_bits);
};

/**
 * Tracks the per-symbol pilot polarity sequence and fills/extracts
 * pilot tones.
 */
class PilotTracker
{
  public:
    /** Reset to symbol 0 (start of packet). */
    void reset() { symbol_index = 0; }

    /**
     * Insert pilots for the next OFDM symbol into the 64-bin
     * frequency-domain buffer @p bins.
     */
    void insertPilots(SampleSpan bins);

  private:
    int symbol_index = 0;
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_OFDM_SYMBOL_HH
