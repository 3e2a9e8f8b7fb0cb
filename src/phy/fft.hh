/**
 * @file
 * Unitary radix-2 FFT/IFFT used by the OFDM modulator and
 * demodulator. Both directions scale by 1/sqrt(N) so that symbol
 * energy is preserved and the AWGN variance set in the time domain
 * equals the per-subcarrier noise variance seen by the demapper.
 * The transform itself is the kernels::Ops::fft kernel; its twiddle
 * and bit-reversal tables are built once per size per process.
 */

#ifndef WILIS_PHY_FFT_HH
#define WILIS_PHY_FFT_HH

#include "common/kernels.hh"
#include "common/types.hh"

namespace wilis {
namespace phy {

/** Unitary FFT of a fixed power-of-two size. */
class Fft
{
  public:
    /** @param size_ Transform size; must be a power of two. */
    explicit Fft(int size_);

    /** Transform size. */
    int size() const { return tables->n; }

    /** In-place forward transform (time -> frequency), unitary. */
    void forward(SampleSpan x) const;

    /** In-place inverse transform (frequency -> time), unitary. */
    void inverse(SampleSpan x) const;

  private:
    void transform(SampleSpan x, bool invert) const;

    /** The process-wide tables of this size. */
    const kernels::FftView *tables;
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_FFT_HH
