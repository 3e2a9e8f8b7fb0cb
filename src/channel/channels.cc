/**
 * @file
 * Channel registry entries.
 */

#include "channel/channel.hh"

#include "channel/awgn.hh"
#include "channel/fading.hh"
#include "channel/interference.hh"
#include "channel/multipath.hh"

namespace wilis {
namespace channel {

ChannelRegistry
builtinRegistry(const Channel *)
{
    ChannelRegistry reg("channel");
    reg.add<AwgnChannel>("awgn");
    reg.add<RayleighChannel>("rayleigh");
    reg.add<Ar1FadingChannel>("ar1");
    reg.add<MultipathChannel>("multipath");
    reg.add<InterferenceChannel>("interference");
    return reg;
}

namespace {
// Built at startup, so that forked workers inherit it ready.
const ChannelRegistry &startup = ChannelRegistry::global();
} // namespace

} // namespace channel
} // namespace wilis
