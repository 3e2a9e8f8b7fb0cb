/**
 * @file
 * 802.11a/g rate set: modulation schemes, code rates, and the derived
 * per-OFDM-symbol bit counts (N_BPSC, N_CBPS, N_DBPS). These are the
 * eight rates evaluated in Figure 2 of the paper.
 */

#ifndef WILIS_PHY_MODULATION_HH
#define WILIS_PHY_MODULATION_HH

#include <string>

#include "common/names.hh"

namespace wilis {
namespace phy {

/** Subcarrier modulation schemes of 802.11a/g. */
enum class Modulation {
    /** 1 bit per subcarrier. */
    BPSK,
    /** 2 bits per subcarrier. */
    QPSK,
    /** 4 bits per subcarrier. */
    QAM16,
    /** 6 bits per subcarrier. */
    QAM64,
};

/** Convolutional code rates of 802.11a/g (mother code 1/2). */
enum class CodeRate {
    /** Rate 1/2 (unpunctured). */
    R12,
    /** Rate 2/3. */
    R23,
    /** Rate 3/4. */
    R34,
};

/** Number of coded bits carried per subcarrier (N_BPSC). */
int bitsPerSubcarrier(Modulation m);

/** Human-readable modulation names. */
inline constexpr auto kModulationNames = nameTable<Modulation>(
    "modulation", {{Modulation::BPSK, "BPSK"},
                   {Modulation::QPSK, "QPSK"},
                   {Modulation::QAM16, "QAM-16"},
                   {Modulation::QAM64, "QAM-64"}});

/** Human-readable code-rate names. */
inline constexpr auto kCodeRateNames = nameTable<CodeRate>(
    "code rate",
    {{CodeRate::R12, "1/2"}, {CodeRate::R23, "2/3"}, {CodeRate::R34, "3/4"}});

/**
 * Demapper LLR scaling constant S_modulation of eqs. 3/5: the factor
 * relating the simplified distance metric to a true LLR at unit SNR.
 * Equal to 4 / sqrt(constellation normalization).
 */
double modulationLlrScale(Modulation m);

/** One entry of the 802.11a/g rate table. */
struct RateParams {
    /** Subcarrier modulation. */
    Modulation modulation;
    /** Convolutional code rate. */
    CodeRate codeRate;
    /** Line rate in Mb/s (6..54). */
    double lineRateMbps;
    /** Coded bits per subcarrier. */
    int nBpsc;
    /** Coded bits per OFDM symbol (48 data subcarriers). */
    int nCbps;
    /** Data bits per OFDM symbol. */
    int nDbps;

    /** e.g. "QPSK 3/4 (18 Mbps)". */
    std::string name() const;
};

/** Index into the 8-entry rate table (0 = BPSK 1/2 ... 7 = QAM64 3/4). */
using RateIndex = int;

/** Number of 802.11a/g rates. */
constexpr int kNumRates = 8;

/** The 802.11a/g rate table in increasing-speed order. */
const RateParams &rateTable(RateIndex idx);

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_MODULATION_HH
