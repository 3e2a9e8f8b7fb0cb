/**
 * @file
 * The per-step max-log BCJR oracle: the sliding-window algorithm of
 * decode::BcjrDecoder written as plain scalar loops over
 * decode::TrellisTables, one trellis step at a time, with no kernel
 * call. The whole-block kernel behind BcjrDecoder must reproduce its
 * bits and LLRs exactly on every backend. Test-only code (the
 * test_oracles static library the test executables link).
 */

#ifndef WILIS_TESTS_BCJR_REFERENCE_HH
#define WILIS_TESTS_BCJR_REFERENCE_HH

#include <span>

#include "common/types.hh"

namespace wilis {
namespace decode {

/**
 * Max-log sliding-window BCJR over the terminated trellis of
 * @p soft (2 values per step) with window @p block_len, one
 * decision per step into @p out.
 */
void bcjrMaxLogReference(SoftView soft, int block_len,
                         std::span<SoftDecision> out);

} // namespace decode
} // namespace wilis

#endif // WILIS_TESTS_BCJR_REFERENCE_HH
