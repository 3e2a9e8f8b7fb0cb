#include "phy/plcp.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "decode/soft_decoder.hh"
#include "phy/conv_code.hh"
#include "phy/cyclic_prefix.hh"
#include "phy/demapper.hh"
#include "phy/fft.hh"
#include "phy/interleaver.hh"
#include "phy/mapper.hh"
#include "phy/ofdm_symbol.hh"
#include "phy/ofdm_tx.hh"
#include "phy/preamble.hh"

namespace wilis {
namespace phy {

namespace {

/** SIGNAL's 24 bits, rate-1/2 coded onto one BPSK symbol. */
constexpr size_t kSignalCodedBits = OfdmGeometry::kDataCarriers;

// Clause 17.3.4.1 RATE encodings, indexed by our rate table order
// (R1 in the MSB).
const unsigned rate_codes[kNumRates] = {
    0b1101, // 6 Mbps
    0b1111, // 9
    0b0101, // 12
    0b0111, // 18
    0b1001, // 24
    0b1011, // 36
    0b0001, // 48
    0b0011, // 54
};

} // namespace

void
StaticCsi::binGains(std::uint64_t, int, SampleSpan bins) const
{
    wilis_assert(bins.size() == h.size(), "%zu CSI bins for %zu",
                 bins.size(), h.size());
    std::copy(h.begin(), h.end(), bins.begin());
}

unsigned
Signal::rateBits(RateIndex rate)
{
    wilis_assert(rate >= 0 && rate < kNumRates, "rate %d", rate);
    return rate_codes[static_cast<size_t>(rate)];
}

int
Signal::rateFromBits(unsigned bits)
{
    for (int r = 0; r < kNumRates; ++r) {
        if (rate_codes[static_cast<size_t>(r)] == (bits & 0xF))
            return r;
    }
    return -1;
}

BitVec
Signal::encodeBits(const SignalField &f)
{
    wilis_assert(f.lengthBytes >= 1 && f.lengthBytes <= 4095,
                 "SIGNAL length %d out of range", f.lengthBytes);
    BitVec bits(24, 0);
    unsigned rb = rateBits(f.rate);
    for (int i = 0; i < 4; ++i)
        bits[static_cast<size_t>(i)] =
            static_cast<Bit>((rb >> (3 - i)) & 1); // R1 first
    bits[4] = 0; // reserved
    for (int i = 0; i < 12; ++i)
        bits[static_cast<size_t>(5 + i)] = static_cast<Bit>(
            (static_cast<unsigned>(f.lengthBytes) >> i) & 1);
    Bit parity = 0;
    for (int i = 0; i < 17; ++i)
        parity ^= bits[static_cast<size_t>(i)];
    bits[17] = parity;
    // bits 18..23: zero tail (terminates the trellis).
    return bits;
}

bool
Signal::decodeBits(const BitVec &bits, SignalField &out)
{
    wilis_assert(bits.size() >= 24, "SIGNAL needs 24 bits");
    Bit parity = 0;
    for (int i = 0; i < 17; ++i)
        parity ^= bits[static_cast<size_t>(i)];
    if (parity != bits[17])
        return false;
    unsigned rb = 0;
    for (int i = 0; i < 4; ++i)
        rb = (rb << 1) | bits[static_cast<size_t>(i)];
    int rate = rateFromBits(rb);
    if (rate < 0)
        return false;
    unsigned len = 0;
    for (int i = 0; i < 12; ++i)
        len |= static_cast<unsigned>(bits[static_cast<size_t>(5 + i)])
               << i;
    if (len == 0)
        return false;
    out.rate = rate;
    out.lengthBytes = static_cast<int>(len);
    return true;
}

SampleVec
Signal::modulate(const SignalField &f)
{
    // 24 bits -> rate-1/2 coded 48 bits (tail included in the 24)
    // -> BPSK interleaving -> one OFDM symbol.
    const BitVec bits = encodeBits(f);
    std::array<Bit, kSignalCodedBits> coded;
    std::array<Bit, kSignalCodedBits> inter;
    convCode().encode(bits, /*terminate=*/false, coded);
    Interleaver(Modulation::BPSK).interleaveStream(coded, inter);
    Mapper mapper(Modulation::BPSK);

    std::array<Sample, OfdmGeometry::kFftSize> bins{};
    for (int d = 0; d < OfdmGeometry::kDataCarriers; ++d) {
        bins[static_cast<size_t>(OfdmGeometry::dataBin(d))] =
            mapper.map(&inter[static_cast<size_t>(d)]);
    }
    PilotTracker pilots;
    pilots.insertPilots(bins);

    Fft fft(OfdmGeometry::kFftSize);
    fft.inverse(bins);
    SampleVec symbol(OfdmGeometry::kSymbolLen);
    addCyclicPrefix(bins, symbol);
    return symbol;
}

bool
Signal::demodulate(const SampleVec &symbol, const SampleVec &h_bins,
                   SignalField &out)
{
    wilis_assert(symbol.size() == OfdmGeometry::kSymbolLen,
                 "SIGNAL symbol size %zu", symbol.size());
    std::array<Sample, OfdmGeometry::kFftSize> body;
    removeCyclicPrefix(symbol, body);
    Fft fft(OfdmGeometry::kFftSize);
    fft.forward(body);

    std::array<Sample, OfdmGeometry::kDataCarriers> eq;
    for (int d = 0; d < OfdmGeometry::kDataCarriers; ++d) {
        const auto bin = static_cast<size_t>(OfdmGeometry::dataBin(d));
        eq[static_cast<size_t>(d)] = body[bin] / h_bins[bin];
    }
    std::array<SoftBit, kSignalCodedBits> soft;
    std::array<SoftBit, kSignalCodedBits> deint;
    Demapper(Modulation::BPSK)
        .demapBatch(eq.data(), nullptr, eq.size(), soft.data());
    Interleaver(Modulation::BPSK).deinterleave(soft, deint);

    std::array<SoftDecision, kSignalCodedBits / 2> decisions;
    decode::makeDecoder("viterbi")->decodeInto(deint, decisions);
    BitVec bits(24);
    for (int i = 0; i < 24; ++i)
        bits[static_cast<size_t>(i)] =
            decisions[static_cast<size_t>(i)].bit;
    return decodeBits(bits, out);
}

PlcpTransmitter::PlcpTransmitter(std::uint8_t scrambler_seed)
    : seed(scrambler_seed)
{}

size_t
PlcpTransmitter::frameSamples(RateIndex rate,
                              size_t payload_bits) const
{
    return static_cast<size_t>(Preamble::kTotalLen) +
           OfdmGeometry::kSymbolLen +
           OfdmGeometry::numSamples(rateTable(rate), payload_bits);
}

SampleVec
PlcpTransmitter::buildFrame(RateIndex rate, const BitVec &payload)
{
    wilis_assert(payload.size() % 8 == 0,
                 "payload must be whole bytes (%zu bits)",
                 payload.size());
    wilis_assert(payload.size() / 8 >= 1 &&
                     payload.size() / 8 <= 4095,
                 "payload of %zu bytes out of PLCP range",
                 payload.size() / 8);

    SampleVec frame = Preamble::full();

    SignalField f;
    f.rate = rate;
    f.lengthBytes = static_cast<int>(payload.size() / 8);
    SampleVec sig = Signal::modulate(f);
    frame.insert(frame.end(), sig.begin(), sig.end());

    OfdmTransmitter tx(rate, seed);
    FrameArena arena;
    FrameContext ctx(arena);
    SampleSpan data = tx.modulate(BitView(payload), ctx);
    frame.insert(frame.end(), data.begin(), data.end());
    return frame;
}

PlcpReceiver::PlcpReceiver(const OfdmReceiver::Config &rx_cfg)
    : cfg(rx_cfg)
{}

SampleVec
PlcpReceiver::estimateChannel(const SampleVec &frame) const
{
    // Average the two long training symbols and divide by the known
    // sequence: H[k] = (Y1[k] + Y2[k]) / (2 L[k]).
    Fft fft(OfdmGeometry::kFftSize);
    SampleVec y1(frame.begin() + Preamble::kShortLen + 32,
                 frame.begin() + Preamble::kShortLen + 32 + 64);
    SampleVec y2(frame.begin() + Preamble::kShortLen + 96,
                 frame.begin() + Preamble::kShortLen + 96 + 64);
    fft.forward(y1);
    fft.forward(y2);
    SampleVec lref = Preamble::longTrainingFreq();

    SampleVec h(OfdmGeometry::kFftSize, Sample(1.0, 0.0));
    for (int k = 0; k < OfdmGeometry::kFftSize; ++k) {
        Sample l = lref[static_cast<size_t>(k)];
        if (std::abs(l) > 1e-9) {
            h[static_cast<size_t>(k)] =
                (y1[static_cast<size_t>(k)] +
                 y2[static_cast<size_t>(k)]) /
                (2.0 * l);
        }
    }
    return h;
}

PlcpRxResult
PlcpReceiver::receiveFrame(const SampleVec &frame)
{
    PlcpRxResult res;
    const size_t header_end = static_cast<size_t>(
        Preamble::kTotalLen + OfdmGeometry::kSymbolLen);
    if (frame.size() < header_end)
        return res; // too short for preamble + SIGNAL

    SampleVec h = estimateChannel(frame);

    SampleVec sig(frame.begin() + Preamble::kTotalLen,
                  frame.begin() + static_cast<long>(header_end));
    if (!Signal::demodulate(sig, h, res.header))
        return res; // headerOk stays false

    const size_t payload_bits =
        static_cast<size_t>(res.header.lengthBytes) * 8;
    const size_t need = OfdmGeometry::numSamples(
        rateTable(res.header.rate), payload_bits);
    if (frame.size() < header_end + need)
        return res; // shorter than the LENGTH its SIGNAL announces
    res.headerOk = true;

    auto &rx = data_rx[static_cast<size_t>(res.header.rate)];
    if (!rx) {
        rx = std::make_unique<OfdmReceiver>(res.header.rate, cfg);
    }
    StaticCsi csi(h);
    FrameArena arena;
    FrameContext ctx(arena);
    const SampleView data = SampleView(frame).subspan(header_end, need);
    const RxFrame rx_frame =
        rx->demodulate(data, payload_bits, &csi, 0, ctx);
    res.payload.assign(rx_frame.payload.begin(), rx_frame.payload.end());
    res.soft.assign(rx_frame.soft.begin(), rx_frame.soft.end());
    return res;
}

} // namespace phy
} // namespace wilis
