#include "sim/li_transceiver.hh"

#include <deque>

#include "common/kernels.hh"
#include "common/logging.hh"
#include "decode/soft_decoder.hh"
#include "phy/conv_code.hh"
#include "phy/cyclic_prefix.hh"
#include "phy/fft.hh"
#include "phy/interleaver.hh"
#include "phy/mapper.hh"
#include "phy/ofdm_symbol.hh"
#include "phy/puncture.hh"
#include "phy/scrambler.hh"
#include "sim/scenario.hh"

namespace wilis {
namespace sim {

namespace {

using li::Fifo;

/** Two soft values for one trellis step. */
struct SoftPairTok {
    SoftBit a = 0;
    SoftBit b = 0;
};

/** Emits the (padded) payload bit stream, one bit per cycle. */
class BitSourceMod : public li::Module
{
  public:
    BitSourceMod(Fifo<Bit> *out_, int lanes_)
        : li::Module("bit_source"), out(out_), lanes(lanes_)
    {}

    void
    load(const BitVec &bits)
    {
        pending.assign(bits.begin(), bits.end());
    }

    bool
    tick() override
    {
        bool busy = false;
        for (int i = 0; i < lanes; ++i) {
            if (pending.empty() || !out->canEnq())
                break;
            out->enq(pending.front());
            pending.pop_front();
            busy = true;
        }
        return busy;
    }

  private:
    Fifo<Bit> *out;
    int lanes;
    std::deque<Bit> pending;
};

/** Frame-synchronous scrambler, one bit per cycle. */
class ScramblerMod : public li::Module
{
  public:
    ScramblerMod(Fifo<Bit> *in_, Fifo<Bit> *out_, std::uint8_t seed_,
                 int lanes_)
        : li::Module("scrambler"), in(in_), out(out_), seed(seed_),
          scrambler(seed_), lanes(lanes_)
    {}

    void reset() { scrambler.reset(seed); }

    bool
    tick() override
    {
        bool busy = false;
        for (int i = 0; i < lanes; ++i) {
            if (!in->canDeq() || !out->canEnq())
                break;
            out->enq(scrambler.process(in->deq()));
            busy = true;
        }
        return busy;
    }

  private:
    Fifo<Bit> *in;
    Fifo<Bit> *out;
    std::uint8_t seed;
    phy::Scrambler scrambler;
    int lanes;
};

/**
 * Rate-1/2 convolutional encoder: one input bit per cycle, one coded
 * pair per cycle; appends the terminating tail itself.
 */
class EncoderMod : public li::Module
{
  public:
    EncoderMod(Fifo<Bit> *in_, Fifo<std::uint8_t> *out_, int lanes_)
        : li::Module("encoder"), in(in_), out(out_), lanes(lanes_)
    {}

    void
    reset(size_t info_bits_)
    {
        info_bits = info_bits_;
        consumed = 0;
        tail_fed = 0;
        state = 0;
    }

    bool
    tick() override
    {
        bool busy = false;
        for (int i = 0; i < lanes; ++i) {
            if (!out->canEnq())
                break;
            Bit x;
            if (consumed < info_bits) {
                if (!in->canDeq())
                    break;
                x = in->deq() & 1;
                ++consumed;
            } else if (tail_fed < phy::ConvCode::kTailBits) {
                x = 0;
                ++tail_fed;
            } else {
                break;
            }
            unsigned o = phy::convCode().outputBits(state, x);
            state = phy::convCode().nextState(state, x);
            out->enq(static_cast<std::uint8_t>(o));
            busy = true;
        }
        return busy;
    }

  private:
    Fifo<Bit> *in;
    Fifo<std::uint8_t> *out;
    int lanes = 1;
    size_t info_bits = 0;
    size_t consumed = 0;
    int tail_fed = 0;
    int state = 0;
};

/** Puncturer: consumes one coded pair, emits the surviving bits. */
class PuncturerMod : public li::Module
{
  public:
    PuncturerMod(Fifo<std::uint8_t> *in_, Fifo<Bit> *out_,
                 phy::CodeRate rate, int lanes_)
        : li::Module("puncturer"), in(in_), out(out_), punct(rate),
          lanes(lanes_)
    {
        // Keep-pattern over the interleaved A/B stream, one period.
        keep.resize(identityPeriod(rate));
        for (size_t i = 0; i < keep.size(); ++i)
            keep[i] = isKept(rate, i);
    }

    void reset() { pos = 0; }

    bool
    tick() override
    {
        bool busy = false;
        for (int i = 0; i < lanes; ++i) {
            if (!in->canDeq())
                break;
            // Need room for up to two bits from this pair.
            int needed = keep[pos % keep.size()] +
                         keep[(pos + 1) % keep.size()];
            if (out->capacity() - out->size() <
                static_cast<size_t>(needed)) {
                out->noteFullStall();
                break;
            }
            std::uint8_t pair = in->deq();
            if (keep[pos % keep.size()])
                out->enq(static_cast<Bit>(pair & 1));
            if (keep[(pos + 1) % keep.size()])
                out->enq(static_cast<Bit>((pair >> 1) & 1));
            pos += 2;
            busy = true;
        }
        return busy;
    }

  private:
    static size_t
    identityPeriod(phy::CodeRate rate)
    {
        switch (rate) {
          case phy::CodeRate::R12:
            return 2;
          case phy::CodeRate::R23:
            return 4;
          case phy::CodeRate::R34:
            return 6;
        }
        wilis_panic("bad rate");
    }

    static bool
    isKept(phy::CodeRate rate, size_t i)
    {
        static const bool r12[2] = {true, true};
        static const bool r23[4] = {true, true, true, false};
        static const bool r34[6] = {true, true, true,
                                    false, false, true};
        switch (rate) {
          case phy::CodeRate::R12:
            return r12[i % 2];
          case phy::CodeRate::R23:
            return r23[i % 4];
          case phy::CodeRate::R34:
            return r34[i % 6];
        }
        wilis_panic("bad rate");
    }

    Fifo<std::uint8_t> *in;
    Fifo<Bit> *out;
    phy::Puncturer punct;
    int lanes;
    std::vector<bool> keep;
    size_t pos = 0;
};

/** Collects N_CBPS bits and emits one interleaved block token. */
class InterleaverMod : public li::Module
{
  public:
    InterleaverMod(Fifo<Bit> *in_, Fifo<BitVec> *out_,
                   phy::Modulation mod, int lanes_)
        : li::Module("interleaver"), in(in_), out(out_), il(mod),
          lanes(lanes_)
    {}

    void reset() { buf.clear(); }

    bool
    tick() override
    {
        if (buf.size() == static_cast<size_t>(il.blockSize())) {
            if (!out->canEnq()) {
                out->noteFullStall();
                return false;
            }
            out->enq(il.interleave(buf));
            buf.clear();
            return true;
        }
        bool busy = false;
        for (int i = 0; i < lanes; ++i) {
            if (!in->canDeq() ||
                buf.size() == static_cast<size_t>(il.blockSize()))
                break;
            buf.push_back(in->deq());
            busy = true;
        }
        return busy;
    }

  private:
    Fifo<Bit> *in;
    Fifo<BitVec> *out;
    phy::Interleaver il;
    int lanes;
    BitVec buf;
};

/**
 * Maps one interleaved block onto the 48 data subcarriers, inserts
 * pilots, and emits the 64-bin frequency-domain symbol. Models the
 * 48-cycle streaming cost of the mapper.
 */
class MapperPilotMod : public li::Module
{
  public:
    MapperPilotMod(Fifo<BitVec> *in_, Fifo<SampleVec> *out_,
                   phy::Modulation mod)
        : li::Module("mapper"), in(in_), out(out_), mapper(mod),
          n_bpsc(phy::bitsPerSubcarrier(mod))
    {}

    void
    reset()
    {
        pilots.reset();
        busy = 0;
        staged.clear();
    }

    bool
    tick() override
    {
        if (busy > 0) {
            if (--busy == 0)
                emitSymbol();
            return true;
        }
        if (!staged.empty())
            return false; // waiting for output space
        if (!in->canDeq())
            return false;
        BitVec block = in->deq();
        staged = std::move(block);
        busy = phy::OfdmGeometry::kDataCarriers;
        return true;
    }

  private:
    void
    emitSymbol()
    {
        SampleVec bins(phy::OfdmGeometry::kFftSize, Sample(0, 0));
        for (int d = 0; d < phy::OfdmGeometry::kDataCarriers; ++d) {
            bins[static_cast<size_t>(phy::OfdmGeometry::dataBin(d))] =
                mapper.map(&staged[static_cast<size_t>(d * n_bpsc)]);
        }
        pilots.insertPilots(bins);
        if (out->canEnq()) {
            out->enq(std::move(bins));
            staged.clear();
        } else {
            // Retry next cycle: keep the staged block, redo emit.
            out->noteFullStall();
            busy = 1;
        }
    }

    Fifo<BitVec> *in;
    Fifo<SampleVec> *out;
    phy::Mapper mapper;
    phy::PilotTracker pilots;
    int n_bpsc;
    int busy = 0;
    BitVec staged;
};

/** Streaming (I)FFT: 64-cycle initiation interval and latency. */
class FftMod : public li::Module
{
  public:
    FftMod(std::string name, Fifo<SampleVec> *in_,
           Fifo<SampleVec> *out_, bool inverse_)
        : li::Module(std::move(name)), in(in_), out(out_),
          fft(phy::OfdmGeometry::kFftSize), inverse(inverse_)
    {}

    void
    reset()
    {
        busy = 0;
        staged.clear();
    }

    bool
    tick() override
    {
        if (busy > 0) {
            if (--busy == 0)
                emit();
            return true;
        }
        if (!staged.empty())
            return false;
        if (!in->canDeq())
            return false;
        staged = in->deq();
        busy = phy::OfdmGeometry::kFftSize;
        return true;
    }

  private:
    void
    emit()
    {
        if (!out->canEnq()) {
            out->noteFullStall();
            busy = 1;
            return;
        }
        if (inverse)
            fft.inverse(staged);
        else
            fft.forward(staged);
        out->enq(std::move(staged));
        staged.clear();
    }

    Fifo<SampleVec> *in;
    Fifo<SampleVec> *out;
    phy::Fft fft;
    bool inverse;
    int busy = 0;
    SampleVec staged;
};

/** Prepends the cyclic prefix and streams samples one per cycle. */
class CpStreamMod : public li::Module
{
  public:
    CpStreamMod(Fifo<SampleVec> *in_, Fifo<Sample> *out_)
        : li::Module("cp_insert"), in(in_), out(out_)
    {}

    void reset() { pending.clear(); }

    bool
    tick() override
    {
        if (!pending.empty()) {
            if (!out->canEnq()) {
                out->noteFullStall();
                return false;
            }
            out->enq(pending.front());
            pending.pop_front();
            return true;
        }
        if (!in->canDeq())
            return false;
        SampleVec body = in->deq();
        SampleVec sym = phy::addCyclicPrefix(body);
        pending.assign(sym.begin(), sym.end());
        return true;
    }

  private:
    Fifo<SampleVec> *in;
    Fifo<Sample> *out;
    std::deque<Sample> pending;
};

/** The software channel partition: impairs one sample per cycle. */
class ChannelMod : public li::Module
{
  public:
    ChannelMod(Fifo<Sample> *in_, Fifo<Sample> *out_,
               channel::Channel *chan_)
        : li::Module("sw_channel"), in(in_), out(out_), chan(chan_)
    {}

    void
    reset(std::uint64_t packet_index_)
    {
        packet_index = packet_index_;
        sample_index = 0;
    }

    bool
    tick() override
    {
        if (!in->canDeq() || !out->canEnq())
            return false;
        out->enq(chan->impairSample(in->deq(), packet_index,
                                    sample_index++));
        return true;
    }

  private:
    Fifo<Sample> *in;
    Fifo<Sample> *out;
    channel::Channel *chan;
    std::uint64_t packet_index = 0;
    std::uint64_t sample_index = 0;
};

/** Collects 80 samples, strips the CP, emits the 64-sample body. */
class SymbolCollectMod : public li::Module
{
  public:
    SymbolCollectMod(Fifo<Sample> *in_, Fifo<SampleVec> *out_)
        : li::Module("cp_remove"), in(in_), out(out_)
    {}

    void reset() { buf.clear(); }

    bool
    tick() override
    {
        if (buf.size() ==
            static_cast<size_t>(phy::OfdmGeometry::kSymbolLen)) {
            if (!out->canEnq()) {
                out->noteFullStall();
                return false;
            }
            out->enq(phy::removeCyclicPrefix(buf));
            buf.clear();
            return true;
        }
        if (!in->canDeq())
            return false;
        buf.push_back(in->deq());
        return true;
    }

  private:
    Fifo<Sample> *in;
    Fifo<SampleVec> *out;
    SampleVec buf;
};

/** Extracts and equalizes the 48 data subcarriers (perfect CSI). */
class EqualizerMod : public li::Module
{
  public:
    EqualizerMod(Fifo<SampleVec> *in_, Fifo<SampleVec> *out_,
                 const channel::Channel *chan_)
        : li::Module("equalizer"), in(in_), out(out_), chan(chan_),
          h(phy::OfdmGeometry::kFftSize, Sample(1.0, 0.0))
    {}

    void
    reset(std::uint64_t packet_index_)
    {
        packet_index = packet_index_;
        symbol = 0;
    }

    bool
    tick() override
    {
        if (!in->canDeq() || !out->canEnq())
            return false;
        SampleVec bins = in->deq();
        SampleVec data(phy::OfdmGeometry::kDataCarriers);
        if (chan)
            chan->binGains(packet_index, symbol, h);
        for (int d = 0; d < phy::OfdmGeometry::kDataCarriers; ++d) {
            const size_t bin =
                static_cast<size_t>(phy::OfdmGeometry::dataBin(d));
            data[static_cast<size_t>(d)] = bins[bin] / h[bin];
        }
        ++symbol;
        out->enq(std::move(data));
        return true;
    }

  private:
    Fifo<SampleVec> *in;
    Fifo<SampleVec> *out;
    const channel::Channel *chan;
    /** The current symbol's bin gains (unit gains without CSI). */
    SampleVec h;
    std::uint64_t packet_index = 0;
    int symbol = 0;
};

/** Soft demapper: one symbol's data carriers -> N_CBPS soft bits. */
class DemapperMod : public li::Module
{
  public:
    DemapperMod(Fifo<SampleVec> *in_, Fifo<SoftVec> *out_,
                phy::Modulation mod, const phy::Demapper::Config &cfg)
        : li::Module("demapper"), in(in_), out(out_),
          demapper(mod, cfg)
    {}

    void
    reset()
    {
        busy = 0;
        staged.clear();
    }

    bool
    tick() override
    {
        if (busy > 0) {
            if (--busy == 0)
                emit();
            return true;
        }
        if (!staged.empty())
            return false;
        if (!in->canDeq())
            return false;
        staged = in->deq();
        busy = phy::OfdmGeometry::kDataCarriers;
        return true;
    }

  private:
    void
    emit()
    {
        if (!out->canEnq()) {
            out->noteFullStall();
            busy = 1;
            return;
        }
        out->enq(demapper.demapStream(staged));
        staged.clear();
    }

    Fifo<SampleVec> *in;
    Fifo<SoftVec> *out;
    phy::Demapper demapper;
    int busy = 0;
    SampleVec staged;
};

/** Per-symbol soft deinterleaver. */
class DeinterleaverMod : public li::Module
{
  public:
    DeinterleaverMod(Fifo<SoftVec> *in_, Fifo<SoftVec> *out_,
                     phy::Modulation mod)
        : li::Module("deinterleaver"), in(in_), out(out_), il(mod)
    {}

    void
    reset()
    {
        busy = 0;
        staged.clear();
    }

    bool
    tick() override
    {
        if (busy > 0) {
            if (--busy == 0)
                emit();
            return true;
        }
        if (!staged.empty())
            return false;
        if (!in->canDeq())
            return false;
        staged = in->deq();
        // Per-subcarrier granularity: nBpsc bits move in parallel.
        busy = phy::OfdmGeometry::kDataCarriers;
        return true;
    }

  private:
    void
    emit()
    {
        if (!out->canEnq()) {
            out->noteFullStall();
            busy = 1;
            return;
        }
        out->enq(il.deinterleave(staged));
        staged.clear();
    }

    Fifo<SoftVec> *in;
    Fifo<SoftVec> *out;
    phy::Interleaver il;
    int busy = 0;
    SoftVec staged;
};

/** Depuncturer: one rate-1/2 soft pair per cycle, with erasures. */
class DepuncturerMod : public li::Module
{
  public:
    DepuncturerMod(Fifo<SoftVec> *in_, Fifo<SoftPairTok> *out_,
                   phy::CodeRate rate, int lanes_)
        : li::Module("depuncturer"), in(in_), out(out_), punct(rate),
          lanes(lanes_)
    {}

    void reset() { staged.clear(); }

    bool
    tick() override
    {
        bool busy = false;
        for (int i = 0; i < lanes; ++i) {
            if (staged.size() < 2 || !out->canEnq())
                break;
            SoftPairTok tok;
            tok.a = staged.front();
            staged.pop_front();
            tok.b = staged.front();
            staged.pop_front();
            out->enq(tok);
            busy = true;
        }
        if (busy)
            return true;
        if (!in->canDeq())
            return false;
        SoftVec full = punct.depuncture(in->deq());
        staged.insert(staged.end(), full.begin(), full.end());
        return true;
    }

  private:
    Fifo<SoftVec> *in;
    Fifo<SoftPairTok> *out;
    phy::Puncturer punct;
    int lanes;
    std::deque<SoftBit> staged;
};

/**
 * The decoder / BER unit (runs in its own 60 MHz domain): consumes
 * one soft pair per cycle, decodes the terminated block with the
 * pluggable kernel, then streams decisions out one per cycle after
 * the modeled pipeline latency.
 */
class DecoderMod : public li::Module
{
  public:
    DecoderMod(Fifo<SoftPairTok> *in_, Fifo<SoftDecision> *out_,
               decode::SoftDecoder *dec_, int lanes_)
        : li::Module("decoder"), in(in_), out(out_), dec(dec_),
          lanes(lanes_)
    {}

    void
    reset(size_t total_steps_)
    {
        total_steps = total_steps_;
        soft.clear();
        soft.reserve(2 * total_steps_);
        decisions.clear();
        latency_wait = 0;
        emitted = 0;
    }

    bool
    tick() override
    {
        // Phase 3: stream decoded bits (the extra lane models the
        // streaming hardware's ability to overlap decode output with
        // input collection, which the block-kernel form serializes).
        if (!decisions.empty()) {
            if (latency_wait > 0) {
                --latency_wait;
                return true;
            }
            bool busy = false;
            for (int i = 0; i < lanes; ++i) {
                if (decisions.empty() || !out->canEnq())
                    break;
                out->enq(decisions.front());
                decisions.pop_front();
                ++emitted;
                busy = true;
            }
            return busy;
        }
        // Phase 1: collect the block.
        bool busy = false;
        for (int i = 0; i < lanes; ++i) {
            if (soft.size() >= 2 * total_steps || !in->canDeq())
                break;
            SoftPairTok tok = in->deq();
            soft.push_back(tok.a);
            soft.push_back(tok.b);
            busy = true;
            // Phase 2: decode once the terminated block is in.
            if (soft.size() == 2 * total_steps) {
                auto dv = dec->decodeBlock(soft);
                decisions.assign(dv.begin(), dv.end());
                latency_wait = dec->pipelineLatencyCycles();
            }
        }
        return busy;
    }

  private:
    Fifo<SoftPairTok> *in;
    Fifo<SoftDecision> *out;
    decode::SoftDecoder *dec;
    int lanes;
    size_t total_steps = 0;
    SoftVec soft;
    std::deque<SoftDecision> decisions;
    int latency_wait = 0;
    size_t emitted = 0;
};

/** Descrambles decisions and keeps only the payload bits. */
class DescramblerMod : public li::Module
{
  public:
    DescramblerMod(Fifo<SoftDecision> *in_, Fifo<SoftDecision> *out_,
                   std::uint8_t seed_, int lanes_)
        : li::Module("descrambler"), in(in_), out(out_), seed(seed_),
          scrambler(seed_), lanes(lanes_)
    {}

    void
    reset(size_t payload_bits_, size_t info_bits_)
    {
        payload_bits = payload_bits_;
        info_bits = info_bits_;
        consumed = 0;
        scrambler.reset(seed);
    }

    bool
    tick() override
    {
        bool busy = false;
        for (int i = 0; i < lanes; ++i) {
            if (!in->canDeq())
                break;
            if (consumed < payload_bits && !out->canEnq()) {
                out->noteFullStall();
                break;
            }
            SoftDecision d = in->deq();
            if (consumed < info_bits) {
                Bit prbs = scrambler.nextPrbsBit();
                if (consumed < payload_bits) {
                    d.bit = d.bit ^ prbs;
                    out->enq(d);
                }
            }
            // Tail decisions beyond info_bits consumed silently.
            ++consumed;
            busy = true;
        }
        return busy;
    }

  private:
    Fifo<SoftDecision> *in;
    Fifo<SoftDecision> *out;
    std::uint8_t seed;
    phy::Scrambler scrambler;
    int lanes;
    size_t payload_bits = 0;
    size_t info_bits = 0;
    size_t consumed = 0;
};

/** Terminal sink collecting the payload decisions. */
class RxSinkMod : public li::Module
{
  public:
    RxSinkMod(Fifo<SoftDecision> *in_, int lanes_)
        : li::Module("rx_sink"), in(in_), lanes(lanes_)
    {}

    void
    reset(size_t expected_)
    {
        expected = expected_;
        got.clear();
    }

    bool done() const { return got.size() == expected; }
    const std::vector<SoftDecision> &received() const { return got; }

    bool
    tick() override
    {
        bool busy = false;
        for (int i = 0; i < lanes; ++i) {
            if (!in->canDeq())
                break;
            got.push_back(in->deq());
            busy = true;
        }
        return busy;
    }

  private:
    Fifo<SoftDecision> *in;
    int lanes;
    size_t expected = 0;
    std::vector<SoftDecision> got;
};

} // namespace

struct LiTransceiver::Impl {
    phy::RateParams params;
    phy::OfdmReceiver::Config rx_cfg;
    li::Scheduler sched;
    li::ClockDomain *baseband = nullptr;
    li::ClockDomain *decoder_clk = nullptr;
    li::ClockDomain *host = nullptr;

    std::unique_ptr<channel::Channel> chan;
    std::unique_ptr<decode::SoftDecoder> dec;
    phy::OfdmTransmitter geometry; // frame geometry queries only

    // Modules (owned by the scheduler).
    BitSourceMod *source = nullptr;
    ScramblerMod *scrambler = nullptr;
    EncoderMod *encoder = nullptr;
    PuncturerMod *puncturer = nullptr;
    InterleaverMod *interleaver = nullptr;
    MapperPilotMod *mapper = nullptr;
    FftMod *ifft = nullptr;
    CpStreamMod *cp = nullptr;
    ChannelMod *channel_mod = nullptr;
    SymbolCollectMod *collector = nullptr;
    FftMod *fft = nullptr;
    EqualizerMod *equalizer = nullptr;
    DemapperMod *demapper = nullptr;
    DeinterleaverMod *deinterleaver = nullptr;
    DepuncturerMod *depuncturer = nullptr;
    DecoderMod *decoder = nullptr;
    DescramblerMod *descrambler = nullptr;
    RxSinkMod *sink = nullptr;

    Impl(phy::RateIndex rate, const phy::OfdmReceiver::Config &cfg,
         const std::string &channel_name,
         const li::Config &channel_cfg,
         const LiTransceiverClocks &clocks)
        : params(phy::rateTable(rate)), rx_cfg(cfg),
          geometry(rate, cfg.scramblerSeed)
    {
        chan = channel::makeChannel(channel_name, channel_cfg);
        dec = decode::makeDecoder(cfg.decoder, cfg.decoderCfg);

        baseband =
            sched.createDomain("baseband", clocks.basebandMhz);
        decoder_clk =
            sched.createDomain("ber_unit", clocks.decoderMhz);
        host = sched.createDomain("host", clocks.hostMhz);

        // --- FIFOs. Names follow the Figure 1 block boundaries.
        auto *f_bits = sched.connectFifo<Bit>("tx_bits", 8, baseband,
                                              baseband);
        auto *f_scr = sched.connectFifo<Bit>("scrambled", 8, baseband,
                                             baseband);
        auto *f_pairs = sched.connectFifo<std::uint8_t>(
            "coded_pairs", 8, baseband, baseband);
        auto *f_punct = sched.connectFifo<Bit>("punctured", 8,
                                               baseband, baseband);
        auto *f_blocks = sched.connectFifo<BitVec>(
            "interleaved_blocks", 4, baseband, baseband);
        auto *f_freq = sched.connectFifo<SampleVec>(
            "freq_symbols", 4, baseband, baseband);
        auto *f_time = sched.connectFifo<SampleVec>(
            "time_symbols", 4, baseband, baseband);
        auto *f_tx_samp = sched.connectFifo<Sample>(
            "tx_samples", 256, baseband, host);
        auto *f_rx_samp = sched.connectFifo<Sample>(
            "rx_samples", 256, host, baseband);
        auto *f_rx_sym = sched.connectFifo<SampleVec>(
            "rx_symbols", 4, baseband, baseband);
        auto *f_rx_freq = sched.connectFifo<SampleVec>(
            "rx_freq", 4, baseband, baseband);
        auto *f_rx_data = sched.connectFifo<SampleVec>(
            "rx_data_carriers", 4, baseband, baseband);
        auto *f_soft_sym = sched.connectFifo<SoftVec>(
            "soft_symbols", 4, baseband, baseband);
        auto *f_soft_deint = sched.connectFifo<SoftVec>(
            "soft_deinterleaved", 4, baseband, baseband);
        auto *f_soft_pairs = sched.connectFifo<SoftPairTok>(
            "soft_pairs", 16, baseband, decoder_clk);
        auto *f_decisions = sched.connectFifo<SoftDecision>(
            "decisions", 16, decoder_clk, decoder_clk);
        auto *f_payload = sched.connectFifo<SoftDecision>(
            "payload", 16, decoder_clk, decoder_clk);

        // --- Modules, registered in pipeline order. Bit-granularity
        // stages get a datapath wide enough to keep up with one
        // OFDM symbol (80 baseband cycles) per N_CBPS coded bits --
        // exactly why real basebands use multi-bit buses for the
        // bit-level blocks.
        const int lanes = (params.nCbps + 79) / 80 + 1;
        const int dec_lanes = 2;
        auto adopt = [&](auto mod, li::ClockDomain *dom) {
            auto *raw = mod.get();
            sched.adopt(std::move(mod), dom);
            return raw;
        };
        source = adopt(std::make_unique<BitSourceMod>(f_bits, lanes),
                       baseband);
        scrambler = adopt(std::make_unique<ScramblerMod>(
                              f_bits, f_scr, cfg.scramblerSeed,
                              lanes),
                          baseband);
        encoder = adopt(std::make_unique<EncoderMod>(f_scr, f_pairs,
                                                     lanes),
                        baseband);
        puncturer = adopt(std::make_unique<PuncturerMod>(
                              f_pairs, f_punct, params.codeRate,
                              lanes),
                          baseband);
        interleaver = adopt(std::make_unique<InterleaverMod>(
                                f_punct, f_blocks, params.modulation,
                                lanes),
                            baseband);
        mapper = adopt(std::make_unique<MapperPilotMod>(
                           f_blocks, f_freq, params.modulation),
                       baseband);
        ifft = adopt(std::make_unique<FftMod>("ifft", f_freq, f_time,
                                              true),
                     baseband);
        cp = adopt(std::make_unique<CpStreamMod>(f_time, f_tx_samp),
                   baseband);
        channel_mod = adopt(std::make_unique<ChannelMod>(
                                f_tx_samp, f_rx_samp, chan.get()),
                            host);
        collector = adopt(std::make_unique<SymbolCollectMod>(
                              f_rx_samp, f_rx_sym),
                          baseband);
        fft = adopt(std::make_unique<FftMod>("fft", f_rx_sym,
                                             f_rx_freq, false),
                    baseband);
        equalizer = adopt(std::make_unique<EqualizerMod>(
                              f_rx_freq, f_rx_data, chan.get()),
                          baseband);
        demapper = adopt(std::make_unique<DemapperMod>(
                             f_rx_data, f_soft_sym, params.modulation,
                             cfg.demapper),
                         baseband);
        deinterleaver = adopt(std::make_unique<DeinterleaverMod>(
                                  f_soft_sym, f_soft_deint,
                                  params.modulation),
                              baseband);
        depuncturer = adopt(std::make_unique<DepuncturerMod>(
                                f_soft_deint, f_soft_pairs,
                                params.codeRate, lanes),
                            baseband);
        decoder = adopt(std::make_unique<DecoderMod>(
                            f_soft_pairs, f_decisions, dec.get(),
                            dec_lanes),
                        decoder_clk);
        descrambler = adopt(std::make_unique<DescramblerMod>(
                                f_decisions, f_payload,
                                cfg.scramblerSeed, dec_lanes),
                            decoder_clk);
        sink = adopt(std::make_unique<RxSinkMod>(f_payload,
                                                 dec_lanes),
                     decoder_clk);
    }
};

LiTransceiver::LiTransceiver(phy::RateIndex rate,
                             const phy::OfdmReceiver::Config &rx_cfg,
                             const std::string &channel_name,
                             const li::Config &channel_cfg,
                             const LiTransceiverClocks &clocks)
    : impl(std::make_unique<Impl>(rate, rx_cfg, channel_name,
                                  channel_cfg, clocks))
{}

LiTransceiver::LiTransceiver(const ScenarioSpec &spec)
    : LiTransceiver(spec.rate, spec.rx, spec.channel, spec.channelCfg,
                    spec.clocks)
{
    kernels::applyPolicy(spec.kernel);
}

LiTransceiver::~LiTransceiver() = default;

int
LiTransceiver::syncFifoCount() const
{
    return impl->sched.syncFifoCount();
}

li::Scheduler &
LiTransceiver::scheduler()
{
    return impl->sched;
}

LiPacketResult
LiTransceiver::runPacket(const BitVec &payload,
                         std::uint64_t packet_index)
{
    Impl &im = *impl;
    wilis_assert(!payload.empty(), "empty payload");

    const size_t info_bits = im.geometry.paddedInfoBits(payload.size());
    const size_t total_steps = info_bits + phy::ConvCode::kTailBits;

    BitVec padded = payload;
    padded.resize(info_bits, 0);

    im.source->load(padded);
    im.scrambler->reset();
    im.encoder->reset(info_bits);
    im.puncturer->reset();
    im.interleaver->reset();
    im.mapper->reset();
    im.ifft->reset();
    im.cp->reset();
    im.channel_mod->reset(packet_index);
    im.collector->reset();
    im.fft->reset();
    im.equalizer->reset(packet_index);
    im.demapper->reset();
    im.deinterleaver->reset();
    im.depuncturer->reset();
    im.decoder->reset(total_steps);
    im.descrambler->reset(payload.size(), info_bits);
    im.sink->reset(payload.size());

    const std::uint64_t bb_start = im.baseband->cycles();
    const std::uint64_t dec_start = im.decoder_clk->cycles();

    // Generous bound: ~100 edges per payload bit across 3 domains.
    const std::uint64_t max_edges =
        400ull * static_cast<std::uint64_t>(total_steps) + 200000;
    im.sched.runUntilIdle(32, max_edges);
    wilis_assert(im.sink->done(),
                 "LI pipeline stalled: sink has %zu of %zu bits",
                 im.sink->received().size(), payload.size());

    LiPacketResult res;
    res.soft = im.sink->received();
    res.payload.resize(res.soft.size());
    for (size_t i = 0; i < res.soft.size(); ++i)
        res.payload[i] = res.soft[i].bit;
    res.basebandCycles = im.baseband->cycles() - bb_start;
    res.decoderCycles = im.decoder_clk->cycles() - dec_start;
    res.samples = im.geometry.numSamples(payload.size());
    return res;
}

} // namespace sim
} // namespace wilis
