/**
 * @file
 * The std::complex radix-2 FFT oracle: the loop phy::Fft ran before
 * the transform moved onto the kernel layer, with its twiddles and
 * bit reversal built on every call. kernels::Ops::fft must reproduce
 * its bits exactly on every backend. Test-only code (the test_oracles
 * static library the test executables link).
 */

#ifndef WILIS_TESTS_FFT_REFERENCE_HH
#define WILIS_TESTS_FFT_REFERENCE_HH

#include "common/types.hh"

namespace wilis {
namespace phy {

/**
 * In-place unitary radix-2 transform of @p x (a power-of-two size):
 * forward (time -> frequency), or inverse when @p invert.
 */
void fftReference(SampleSpan x, bool invert);

} // namespace phy
} // namespace wilis

#endif // WILIS_TESTS_FFT_REFERENCE_HH
