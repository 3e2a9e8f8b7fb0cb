#include "sim/testbench.hh"

#include "common/logging.hh"

namespace wilis {
namespace sim {

Testbench::Testbench(const ScenarioSpec &spec) : spec_(spec)
{
    tx_ = std::make_unique<phy::OfdmTransmitter>(
        spec_.rate, spec_.rx.scramblerSeed);
    rx_ = std::make_unique<phy::OfdmReceiver>(spec_.rate, spec_.rx);
    chan = channel::makeChannel(spec_.channel, spec_.channelCfg);
}

void
Testbench::makePayloadInto(BitSpan out,
                           std::uint64_t packet_index) const
{
    fillDeterministicBits(out, spec_.payloadSeed, packet_index);
}

FrameResult
Testbench::runFrame(size_t payload_bits, std::uint64_t packet_index)
{
    arena_.reset();
    BitSpan payload = arena_.alloc<Bit>(payload_bits);
    makePayloadInto(payload, packet_index);
    return runFrameInternal(payload, packet_index);
}

FrameResult
Testbench::runFrameWithPayload(BitView payload,
                               std::uint64_t packet_index)
{
    arena_.reset();
    return runFrameInternal(payload, packet_index);
}

FrameResult
Testbench::runFrameInternal(BitView payload,
                            std::uint64_t packet_index)
{
    FrameContext ctx(arena_);
    FrameResult res;
    res.txPayload = payload;

    SampleSpan samples = tx_->modulate(payload, ctx);
    chan->apply(samples, packet_index);
    res.rx = rx_->demodulate(samples, payload.size(), chan.get(),
                             packet_index, ctx);
    res.bitErrors = res.rx.bitErrors(payload);
    res.ok = res.bitErrors == 0;
    return res;
}

} // namespace sim
} // namespace wilis
