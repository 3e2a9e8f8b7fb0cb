/**
 * @file
 * Offline frame-level calibration for the hybrid-fidelity network
 * simulator: a (rate, channel kind, SNR bin) table of frame error
 * rates and SoftPHY packet-BER statistics measured against the
 * bit-exact PHY by a scenario-grid sweep.
 *
 * The analytic fast path of sim::NetworkSim (sim::FidelityPolicy mode
 * "analytic"/"auto") conditions each frame slot on the link's fading
 * gain, forms the *effective* SNR of that slot, and draws the frame
 * outcome from this table instead of running tx -> channel -> rx ->
 * decode. Because the table is measured from the same pipeline it
 * replaces -- same rates, same receiver configuration, same
 * SoftPHY estimator feeding SoftRate -- system-level statistics
 * (per-user PER, goodput, rate usage) track the full-PHY reference
 * within sampling tolerance at a small fraction of the cost (the
 * WiLIS mixed-fidelity argument; see also "Performance Modeling of
 * Next-Generation Wireless Networks" in PAPERS.md).
 *
 * Determinism: the build accumulates per-packet observations keyed
 * by packet index and reduces them in packet order, so the table --
 * like every other artifact in this codebase -- is bit-identical
 * for any worker thread count.
 */

#ifndef WILIS_SOFTPHY_CALIBRATION_TABLE_HH
#define WILIS_SOFTPHY_CALIBRATION_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/kernels.hh"
#include "phy/modulation.hh"
#include "phy/ofdm_rx.hh"

namespace wilis {
namespace softphy {

/**
 * Accumulated frame observations of one (rate, SNR bin) cell.
 * Packet-BER statistics are kept as log sums (geometric means):
 * SoftRate compares the per-packet BER against decade thresholds, so
 * the geometric mean is the representative feedback value, where an
 * arithmetic mean would be dominated by the worst frame in the bin.
 */
struct TableCell {
    /** Frames measured. */
    std::uint64_t frames = 0;
    /** Frames decoded without payload errors. */
    std::uint64_t ok = 0;
    /** Sum of SoftPHY packet-BER estimates (arithmetic basis). */
    double sumPber = 0.0;
    /** Sum of ln(packet BER) over clean frames. */
    double sumLogPberOk = 0.0;
    /** Sum of ln(packet BER) over errored frames. */
    double sumLogPberBad = 0.0;

    /** Measured frame error rate (1 if the cell is empty). */
    double per() const;
    /** Geometric-mean packet BER of clean frames (with fallbacks). */
    double pberOkGeo() const;
    /** Geometric-mean packet BER of errored frames (fallbacks). */
    double pberBadGeo() const;

    /** Fold another cell's observations into this one. */
    void merge(const TableCell &other);
};

/**
 * Owning flattened form of a CalibrationTable for the batched
 * PER-interpolation kernel: the per-cell frame error rate and log
 * geometric-mean packet BERs precomputed through the very accessors
 * the scalar lookup calls inline (TableCell::per(),
 * std::log(pberOkGeo()/pberBadGeo())), so a batched draw over
 * view() is bit-identical to the scalar one. Arrays are indexed
 * [rate * numBins + bin]; view() borrows from this object, which
 * must outlive it.
 */
struct FlatCalibration {
    /** TableCell::per() per cell. */
    std::vector<double> per;
    /** ln(TableCell::pberOkGeo()) per cell. */
    std::vector<double> logPberOk;
    /** ln(TableCell::pberBadGeo()) per cell. */
    std::vector<double> logPberBad;
    /** SNR bins per rate row. */
    int numBins = 0;
    /** Lower edge of SNR bin 0 in dB. */
    double snrLoDb = 0.0;
    /** SNR bin width in dB. */
    double snrStepDb = 1.0;

    /** Non-owning kernel view of this flattened table. */
    kernels::PerTableView
    view() const
    {
        return {per.data(),  logPberOk.data(), logPberBad.data(),
                numBins,     snrLoDb,          snrStepDb};
    }
};

/**
 * The (rate, channel kind, SNR bin) calibration table.
 *
 * Lookups interpolate linearly between bin centers (PER in linear
 * space, packet BER in log space) and clamp to the edge bins, so a
 * deep fade below the calibrated range reads PER ~ 1 and a strong
 * peak above it reads the top bin's residual PER.
 */
class CalibrationTable
{
  public:
    /** Parameters of one offline calibration sweep. */
    struct BuildSpec {
        /** Receiver configuration (decoder slot, demapper width). */
        phy::OfdmReceiver::Config rx;
        /**
         * Channel registry kind the table models. The analytic
         * network path conditions on the per-slot fading gain, so
         * its tables are built against "awgn" (flat channel at the
         * bin-center SNR == fading conditioned on |h|).
         */
        std::string channel = "awgn";
        /** Payload length of calibration frames, in bits. */
        size_t payloadBits = 1000;
        /** Lower edge of SNR bin 0, in dB. */
        double snrLoDb = -4.0;
        /** SNR bin width in dB. */
        double snrStepDb = 2.0;
        /** Number of SNR bins. */
        int numBins = 18;
        /** Frames measured per (rate, bin) cell. */
        std::uint64_t packetsPerCell = 64;
        /** Worker threads (0 = hardware concurrency). */
        int threads = 0;
        /** Master seed of the calibration random streams. */
        std::uint64_t seed = 0xCA1B;
    };

    /** An empty (unusable) table; see build()/load()/parse(). */
    CalibrationTable() = default;

    /**
     * Measure a table from the bit-exact PHY: for every (rate, SNR
     * bin) cell, run packetsPerCell frames of the configured channel
     * at the bin-center SNR -- every cell in one sim::sweepPackets()
     * call, so one worker team per table -- and record the
     * frame outcome plus the SoftPHY packet-BER estimate
     * (softphy::analyticRateEstimator -- the same estimator the
     * full-fidelity network path feeds to SoftRate).
     */
    static CalibrationTable build(const BuildSpec &spec);

    /** True if the table holds measured cells. */
    bool valid() const { return !cells.empty(); }

    /** Channel kind the table was measured against. */
    const std::string &channelKind() const { return channel_; }
    /** Decoder the table was measured with. */
    const std::string &decoder() const { return decoder_; }
    /** Demapper soft width the table was measured with. */
    int softWidth() const { return soft_width_; }
    /** Calibration payload length in bits. */
    size_t payloadBits() const { return payload_bits_; }
    /** Frames measured per cell. */
    std::uint64_t packetsPerCell() const { return packets_; }
    /** Build seed (provenance). */
    std::uint64_t seed() const { return seed_; }
    /** Lower edge of SNR bin 0 in dB. */
    double snrLoDb() const { return snr_lo_; }
    /** SNR bin width in dB. */
    double snrStepDb() const { return snr_step_; }
    /** Number of SNR bins. */
    int numBins() const { return num_bins_; }
    /** Center SNR of @p bin in dB. */
    double binCenterDb(int bin) const;
    /** Bin index covering @p snr_db (clamped to the edge bins). */
    int binOf(double snr_db) const;

    /** Measured cell for (@p rate, @p bin). */
    const TableCell &cell(phy::RateIndex rate, int bin) const;

    /**
     * Frame error probability at @p snr_db for @p rate,
     * interpolated between bin centers and clamped to the edges.
     */
    double per(phy::RateIndex rate, double snr_db) const;

    /**
     * Calibrated SoftRate feedback: the packet-BER estimate a frame
     * at @p snr_db would have produced, conditioned on its decode
     * outcome @p ok (log-interpolated geometric means).
     */
    double pberFeedback(phy::RateIndex rate, double snr_db,
                        bool ok) const;

    /**
     * Precompute the flattened per-cell arrays the batched PER
     * kernel reads (see FlatCalibration). Call once per run, not
     * per slot.
     */
    FlatCalibration flatten() const;

    /** Serialize to the versioned text format (round-trips). */
    std::string serialize() const;

    /**
     * Parse a serialized table; fatal on malformed input, naming
     * @p what (the source, e.g. a file path) and the offending line.
     */
    static CalibrationTable parse(const std::string &text,
                                  const std::string &what);

    /** Write serialize() to @p path; fatal on I/O failure. */
    void save(const std::string &path) const;

    /**
     * Load and parse @p path; fatal (exit code 1, not an abort) on
     * I/O or format errors.
     */
    static CalibrationTable load(const std::string &path);

  private:
    TableCell &cellAt(int rate, int bin);
    /** Continuous bin coordinate of @p snr_db with edge clamping. */
    void lerpCoords(double snr_db, int *b0, int *b1,
                    double *frac) const;

    std::string channel_ = "awgn";
    std::string decoder_ = "";
    int soft_width_ = 0;
    size_t payload_bits_ = 0;
    std::uint64_t packets_ = 0;
    std::uint64_t seed_ = 0;
    double snr_lo_ = 0.0;
    double snr_step_ = 1.0;
    int num_bins_ = 0;
    std::vector<TableCell> cells; // [rate * num_bins_ + bin]
};

} // namespace softphy
} // namespace wilis

#endif // WILIS_SOFTPHY_CALIBRATION_TABLE_HH
