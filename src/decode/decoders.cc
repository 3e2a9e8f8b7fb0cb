/**
 * @file
 * Decoder registry entries.
 */

#include "decode/soft_decoder.hh"

#include "decode/bcjr.hh"
#include "decode/sova.hh"
#include "decode/viterbi.hh"

namespace wilis {
namespace decode {

DecoderRegistry
builtinRegistry(const SoftDecoder *)
{
    DecoderRegistry reg("decoder");
    reg.add<ViterbiDecoder>("viterbi");
    reg.add<SovaDecoder>("sova");
    reg.add<BcjrDecoder>("bcjr");
    reg.add<BcjrDecoder>("bcjr-logmap", {.logMap = true});
    return reg;
}

namespace {
// Built at startup, so that forked workers inherit it ready.
const DecoderRegistry &startup = DecoderRegistry::global();
} // namespace

} // namespace decode
} // namespace wilis
