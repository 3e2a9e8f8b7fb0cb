/**
 * @file
 * Soft-output demapper after Tosato & Bisaglia (ICC'02), the design
 * the paper bases its demapper on (section 4.1). Per received symbol
 * it emits one simplified log-likelihood metric per coded bit using
 * only additions and absolute values (no multiplies or divides), then
 * quantizes to a configurable fixed-point width.
 *
 * The hardware optimization the paper studies is to *ignore* the
 * Es/N0 and S_modulation scaling (eq. 3): the decoder's bit decisions
 * depend only on relative ordering so decode performance is
 * unaffected, but the LLR magnitudes -- and hence SoftPHY BER
 * estimates -- change scale. Config::applySnrScaling restores the
 * full eq. 3 computation for comparison.
 */

#ifndef WILIS_PHY_DEMAPPER_HH
#define WILIS_PHY_DEMAPPER_HH

#include "common/types.hh"
#include "phy/modulation.hh"

namespace wilis {
namespace phy {

/** Soft demapper with fixed-point output quantization. */
class Demapper
{
  public:
    /** Demapper configuration. */
    struct Config {
        /**
         * Signed output width in bits. The paper reports decoders
         * work with 3-8 bit inputs once SNR scaling is dropped
         * (versus 23-28 bits with it).
         */
        int softWidth = 6;
        /**
         * Real metric magnitude mapped to the positive saturation
         * point of the quantizer.
         */
        double fullScale = 2.0;
        /**
         * Apply the full eq. 3 scaling (Es/N0 * S_mod * Rdist). The
         * hardware default is false: raw distance metrics only.
         */
        bool applySnrScaling = false;
        /** Es/N0 (linear) used when applySnrScaling is set. */
        double esN0 = 1.0;
    };

    /** Construct with default quantization parameters. */
    explicit Demapper(Modulation mod_);

    /** Construct with explicit quantization parameters. */
    Demapper(Modulation mod_, const Config &cfg_);

    /** Modulation handled. */
    Modulation modulation() const { return mod; }

    /** Active configuration. */
    const Config &config() const { return cfg; }

    /**
     * Demap one (equalized) received symbol: writes
     * bitsPerSubcarrier() quantized soft values to @p out and returns
     * the count. Positive values favour bit = 1.
     *
     * @param weight Per-subcarrier confidence weight (typically |H|
     *        of the zero-forced bin): metrics are scaled before
     *        quantization so the decoder trusts notched subcarriers
     *        less. 1.0 = the paper's unweighted hardware path.
     */
    int demap(Sample y, SoftBit *out, double weight = 1.0) const;

    /**
     * Batched demap of @p n equalized symbols (typically one OFDM
     * symbol's data carriers) through the runtime-dispatched SIMD
     * kernel layer: writes n * bitsPerSubcarrier() quantized soft
     * values to @p out, symbol-major, bit-exactly equal to n calls
     * of the per-symbol demap(). @p weights holds one confidence
     * weight per symbol, or nullptr for the unweighted hardware
     * path.
     */
    void demapBatch(const Sample *ys, const double *weights, size_t n,
                    SoftBit *out) const;

    /**
     * Demap one symbol into real-valued (unquantized) metrics:
     * writes at most 6 metrics to @p out and returns the count.
     */
    int demapReal(Sample y, double *out) const;

  private:
    /** Simplified per-axis metrics (1, 2, or 3 per axis). */
    void axisMetrics(double v, double *m, int bits_per_axis) const;

    Modulation mod;
    Config cfg;
    double scale; // combined eq. 3 scale (1.0 in hardware mode)
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_DEMAPPER_HH
