/**
 * @file
 * Runtime CPU feature detection for the SIMD kernel layer. Queries
 * the host once (CPUID on x86) and caches the answer; non-x86 hosts
 * report no extensions and the kernel dispatcher falls back to the
 * scalar backend.
 */

#ifndef WILIS_COMMON_CPU_FEATURES_HH
#define WILIS_COMMON_CPU_FEATURES_HH

#include <string>

namespace wilis {
namespace cpu {

/** True if the host executes AVX2 instructions. */
bool hasAvx2();

/** Short human-readable feature summary, e.g. "sse4.2 avx2". */
std::string featureString();

} // namespace cpu
} // namespace wilis

#endif // WILIS_COMMON_CPU_FEATURES_HH
