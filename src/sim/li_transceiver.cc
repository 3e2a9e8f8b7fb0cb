#include "sim/li_transceiver.hh"

#include <array>
#include <deque>
#include <functional>
#include <limits>

#include "common/logging.hh"
#include "decode/soft_decoder.hh"
#include "li/scheduler.hh"
#include "phy/conv_code.hh"
#include "phy/cyclic_prefix.hh"
#include "phy/fft.hh"
#include "phy/interleaver.hh"
#include "phy/mapper.hh"
#include "phy/ofdm_symbol.hh"
#include "phy/puncture.hh"
#include "phy/scrambler.hh"

namespace wilis {
namespace sim {

namespace {

using li::Fifo;
using phy::OfdmGeometry;

/** Two soft values for one trellis step. */
struct SoftPairTok {
    SoftBit a = 0;
    SoftBit b = 0;
};

/**
 * One OFDM symbol's equalized data carriers, with each carrier's
 * channel amplitude |H| when the demapper weights by CSI (empty
 * otherwise).
 */
struct EqSymbolTok {
    SampleVec data;
    std::vector<double> weight;
};

/** The packet geometry every stage is handed before a packet. */
struct Packet {
    /** Packet index: the channel's replay key. */
    std::uint64_t index = 0;
    /** Payload bits the sink collects. */
    size_t payloadBits = 0;
    /** Payload padded to whole OFDM symbols, before the tail. */
    size_t infoBits = 0;
};

/**
 * A module restarted before every packet. Stalls are recorded here
 * and nowhere else: a stage asks ready() before it takes a token and
 * room() before it emits.
 */
class Stage : public li::Module
{
  public:
    using li::Module::Module;

    /** Resets the stage's own state and sizes it for a packet. */
    std::function<void(const Packet &)> onStart;

    /** Clear the stage's buffers, then run onStart. */
    void
    start(const Packet &p)
    {
        clear();
        if (onStart)
            onStart(p);
    }

  protected:
    virtual void clear() = 0;

    /** True if @p in holds a token; else notes an empty stall. */
    static bool
    ready(li::FifoBase *in)
    {
        if (in->canDeq())
            return true;
        in->noteEmptyStall();
        return false;
    }

    /** True if @p out has room for @p n more; else a full stall. */
    static bool
    room(li::FifoBase *out, size_t n = 1)
    {
        if (n == 0 || out->capacity() - out->size() >= n)
            return true;
        out->noteFullStall();
        return false;
    }
};

/**
 * Per-item stage: up to `lanes` items a cycle, each taken only when
 * the output has room for all it emits. Item n of a packet is the
 * n-th input token or, once `inputs` are in, one of `extra` made-up
 * In{} items (zero padding, the encoder tail). The bit source,
 * scrambler, encoder, puncturer, channel, descrambler and sink.
 */
template <typename In, typename Out>
class StreamStage : public Stage
{
  public:
    StreamStage(std::string name, Fifo<In> *in_, Fifo<Out> *out_,
                int lanes_)
        : Stage(std::move(name)), in(in_), out(out_), lanes(lanes_)
    {}

    /** Takes item n and emits its outputs. */
    std::function<void(In x, size_t n)> fire;
    /** Outputs item n emits; one if unset (none without an output). */
    std::function<size_t(size_t n)> width;
    /** Input tokens per packet. */
    size_t inputs = std::numeric_limits<size_t>::max();
    /** Made-up items after the inputs. */
    size_t extra = 0;

    bool
    tick() override
    {
        bool moved = false;
        for (int i = 0; i < lanes; ++i) {
            const bool made_up = n >= inputs;
            if (made_up ? n - inputs >= extra : !ready(in))
                break;
            if (!room(out, width ? width(n) : out != nullptr))
                break;
            fire(made_up ? In{} : in->deq(), n++);
            moved = true;
        }
        return moved;
    }

  private:
    void clear() override { n = 0; }

    Fifo<In> *in;
    Fifo<Out> *out;
    int lanes;
    /** Items taken this packet. */
    size_t n = 0;
};

/**
 * Holds one token for `interval` cycles, then emits f(token, n) -- n
 * counts the packet's tokens -- once the output has room, retrying
 * every cycle until it does. A zero interval is combinational: the
 * stage takes a token only when it can pass it on at once. Mapper and
 * pilots, IFFT, FFT, equalizer, demapper and deinterleaver.
 */
template <typename In, typename Out>
class BlockStage : public Stage
{
  public:
    BlockStage(std::string name, Fifo<In> *in_, Fifo<Out> *out_,
               int interval_)
        : Stage(std::move(name)), in(in_), out(out_),
          interval(interval_)
    {}

    /** The stage's function of token n. */
    std::function<Out(In &token, size_t n)> f;

    bool
    tick() override
    {
        if (!held) {
            if (!ready(in) || (interval == 0 && !room(out)))
                return false;
            token = in->deq();
            held = true;
            wait = interval;
            if (wait > 0)
                return true;
        } else if (wait > 0 && --wait > 0) {
            return true;
        }
        if (room(out)) {
            out->enq(f(token, n++));
            held = false;
        }
        return true;
    }

  private:
    void
    clear() override
    {
        held = false;
        wait = 0;
        n = 0;
    }

    Fifo<In> *in;
    Fifo<Out> *out;
    int interval;
    In token{};
    bool held = false;
    int wait = 0;
    size_t n = 0;
};

/**
 * Gather/scatter stage: gathers `need` inputs (up to `lanes` a
 * cycle), turns them into a burst of outputs with f, waits `delay`
 * cycles, then drains the burst up to `lanes` a cycle. Gathers (the
 * interleaver, the CP strip, the decoder) turn many items into one
 * token or one decoded block; scatters (CP insert, the depuncturer)
 * turn one token into many items. A stage with a burst left does not
 * gather; a blocked burst idles it.
 */
template <typename In, typename Out>
class GatherScatterStage : public Stage
{
  public:
    GatherScatterStage(std::string name, Fifo<In> *in_, Fifo<Out> *out_,
                       size_t need_, int lanes_)
        : Stage(std::move(name)), need(need_), in(in_), out(out_),
          lanes(lanes_)
    {}

    /** Appends the outputs of one full gather buffer to the burst. */
    std::function<void(std::vector<In> &buf, std::deque<Out> &burst)> f;
    /** Inputs per burst. */
    size_t need;
    /** Cycles between a completed gather and its first output. */
    int delay = 0;

    bool
    tick() override
    {
        if (wait > 0) {
            --wait;
            return true;
        }
        bool moved = false;
        if (!burst.empty()) {
            for (int i = 0; i < lanes && !burst.empty() && room(out); ++i) {
                out->enq(std::move(burst.front()));
                burst.pop_front();
                moved = true;
            }
            return moved;
        }
        for (int i = 0; i < lanes && buf.size() < need && ready(in); ++i) {
            buf.push_back(in->deq());
            moved = true;
        }
        if (buf.size() == need) {
            f(buf, burst);
            buf.clear();
            wait = delay;
        }
        return moved;
    }

  private:
    void
    clear() override
    {
        buf.clear();
        burst.clear();
        wait = 0;
    }

    Fifo<In> *in;
    Fifo<Out> *out;
    int lanes;
    std::vector<In> buf;
    std::deque<Out> burst;
    int wait = 0;
};

} // namespace

struct LiTransceiver::Impl {
    phy::RateParams params;
    std::uint8_t seed;
    li::Scheduler sched;
    li::ClockDomain *baseband = nullptr;
    li::ClockDomain *decoder_clk = nullptr;

    std::unique_ptr<channel::Channel> chan;
    std::unique_ptr<decode::SoftDecoder> dec;

    // The batch path's own kernels, and the per-packet state the
    // stages keep between items.
    phy::Scrambler scrambler;
    phy::Scrambler descrambler;
    int enc_state = 0;
    phy::Puncturer puncturer;
    phy::Interleaver interleaver;
    phy::Mapper mapper;
    phy::PilotTracker pilots;
    phy::Fft fft;
    /** The current symbol's bin gains (perfect CSI). */
    SampleVec h;
    phy::Demapper demapper;
    /** Weight each carrier's soft metrics by |H| (csi_weight). */
    bool csi_weight;
    /** The decoder stage's input block and its decisions. */
    SoftVec dec_in;
    std::vector<SoftDecision> dec_out;

    /** The packet in flight. */
    Packet pkt;
    /** The host's write port into the bit source. */
    Fifo<Bit> *tx_payload = nullptr;
    std::vector<SoftDecision> received;
    /** Every stage, in pipeline (and tick) order. */
    std::vector<Stage *> stages;

    /** A FIFO from @p src to @p dst (the baseband by default). */
    template <typename T>
    Fifo<T> *
    fifo(const char *name, size_t capacity, li::ClockDomain *src = nullptr,
         li::ClockDomain *dst = nullptr)
    {
        return sched.connectFifo<T>(name, capacity, src ? src : baseband,
                                    dst ? dst : baseband);
    }

    template <typename S, typename... Args>
    S *
    add(li::ClockDomain *dom, Args... args)
    {
        auto s = std::make_unique<S>(args...);
        S *raw = s.get();
        stages.push_back(raw);
        sched.adopt(std::move(s), dom);
        return raw;
    }

    template <typename In, typename Out>
    StreamStage<In, Out> *
    stream(li::ClockDomain *dom, const char *name, Fifo<In> *in,
           Fifo<Out> *out, int lanes)
    {
        return add<StreamStage<In, Out>>(dom, name, in, out, lanes);
    }

    template <typename In, typename Out>
    BlockStage<In, Out> *
    block(const char *name, Fifo<In> *in, Fifo<Out> *out, int interval)
    {
        return add<BlockStage<In, Out>>(baseband, name, in, out,
                                        interval);
    }

    template <typename In, typename Out>
    GatherScatterStage<In, Out> *
    gatherScatter(li::ClockDomain *dom, const char *name, Fifo<In> *in,
                  Fifo<Out> *out, size_t need, int lanes)
    {
        return add<GatherScatterStage<In, Out>>(dom, name, in, out, need,
                                                lanes);
    }

    explicit Impl(const ScenarioSpec &spec);
};

LiTransceiver::Impl::Impl(const ScenarioSpec &spec)
    : params(phy::rateTable(spec.rate)), seed(spec.rx.scramblerSeed),
      chan(channel::makeChannel(spec.channel, spec.channelCfg)),
      dec(decode::makeDecoder(spec.rx.decoder, spec.rx.decoderCfg)),
      scrambler(seed), descrambler(seed),
      puncturer(params.codeRate), interleaver(params.modulation),
      mapper(params.modulation), fft(OfdmGeometry::kFftSize),
      h(OfdmGeometry::kFftSize), demapper(params.modulation, spec.rx.demapper),
      csi_weight(spec.rx.applyCsiWeight)
{
    baseband = sched.createDomain("baseband", spec.clocks.basebandMhz);
    decoder_clk = sched.createDomain("ber_unit", spec.clocks.decoderMhz);
    li::ClockDomain *host = sched.createDomain("host", spec.clocks.hostMhz);

    // --- FIFOs. Names follow the Figure 1 block boundaries.
    tx_payload = fifo<Bit>("tx_payload", std::numeric_limits<size_t>::max());
    auto *f_bits = fifo<Bit>("tx_bits", 8);
    auto *f_scr = fifo<Bit>("scrambled", 8);
    auto *f_pairs = fifo<std::uint8_t>("coded_pairs", 8);
    auto *f_punct = fifo<Bit>("punctured", 8);
    auto *f_blocks = fifo<BitVec>("interleaved_blocks", 4);
    auto *f_freq = fifo<SampleVec>("freq_symbols", 4);
    auto *f_time = fifo<SampleVec>("time_symbols", 4);
    auto *f_tx_samp = fifo<Sample>("tx_samples", 256, baseband, host);
    auto *f_rx_samp = fifo<Sample>("rx_samples", 256, host, baseband);
    auto *f_rx_sym = fifo<SampleVec>("rx_symbols", 4);
    auto *f_rx_freq = fifo<SampleVec>("rx_freq", 4);
    auto *f_rx_data = fifo<EqSymbolTok>("rx_data_carriers", 4);
    auto *f_soft_sym = fifo<SoftVec>("soft_symbols", 4);
    auto *f_soft_deint = fifo<SoftVec>("soft_deinterleaved", 4);
    auto *f_soft_pairs =
        fifo<SoftPairTok>("soft_pairs", 16, baseband, decoder_clk);
    auto *f_decisions =
        fifo<SoftDecision>("decisions", 16, decoder_clk, decoder_clk);
    auto *f_payload =
        fifo<SoftDecision>("payload", 16, decoder_clk, decoder_clk);

    // --- Stages, registered in pipeline order. Bit-granularity
    // stages get a datapath wide enough to keep up with one OFDM
    // symbol (80 baseband cycles) per N_CBPS coded bits -- exactly
    // why real basebands use multi-bit buses for the bit-level
    // blocks.
    const int lanes = (params.nCbps + 79) / 80 + 1;
    const int dec_lanes = 2;
    constexpr int kCarriers = OfdmGeometry::kDataCarriers;

    // The payload, then zero padding to whole symbols.
    auto *source = stream(baseband, "bit_source", tx_payload, f_bits, lanes);
    source->fire = [f_bits](Bit b, size_t) { f_bits->enq(b); };
    source->onStart = [source](const Packet &p) {
        source->inputs = p.payloadBits;
        source->extra = p.infoBits - p.payloadBits;
    };

    auto *scr = stream(baseband, "scrambler", f_bits, f_scr, lanes);
    scr->fire = [this, f_scr](Bit b, size_t) {
        f_scr->enq(scrambler.process(b));
    };
    scr->onStart = [this](const Packet &) { scrambler.reset(seed); };

    // Rate 1/2, one coded pair per bit; appends the tail itself.
    auto *enc = stream(baseband, "encoder", f_scr, f_pairs, lanes);
    enc->fire = [this, f_pairs](Bit b, size_t) {
        const Bit x = b & 1;
        const unsigned o = phy::convCode().outputBits(enc_state, x);
        enc_state = phy::convCode().nextState(enc_state, x);
        f_pairs->enq(static_cast<std::uint8_t>(o));
    };
    enc->onStart = [this, enc](const Packet &p) {
        enc->inputs = p.infoBits;
        enc->extra = phy::ConvCode::kTailBits;
        enc_state = 0;
    };

    // Pair n is positions 2n and 2n+1 of the rate-1/2 stream.
    auto *punct = stream(baseband, "puncturer", f_pairs, f_punct, lanes);
    punct->fire = [this, f_punct](std::uint8_t pair, size_t n) {
        if (puncturer.kept(2 * n))
            f_punct->enq(static_cast<Bit>(pair & 1));
        if (puncturer.kept(2 * n + 1))
            f_punct->enq(static_cast<Bit>((pair >> 1) & 1));
    };
    punct->width = [this](size_t n) {
        return size_t{puncturer.kept(2 * n)} +
               size_t{puncturer.kept(2 * n + 1)};
    };

    auto *il = gatherScatter(baseband, "interleaver", f_punct, f_blocks,
                             static_cast<size_t>(params.nCbps), lanes);
    il->f = [this](BitVec &bits, std::deque<BitVec> &burst) {
        BitVec block(bits.size());
        interleaver.interleaveStream(bits, block);
        burst.push_back(std::move(block));
    };

    // The data subcarriers plus pilots, one carrier a cycle.
    auto *map = block("mapper", f_blocks, f_freq, kCarriers);
    map->f = [this](BitVec &bits, size_t) {
        const size_t n_bpsc = static_cast<size_t>(params.nBpsc);
        SampleVec bins(OfdmGeometry::kFftSize, Sample(0, 0));
        for (int d = 0; d < kCarriers; ++d) {
            bins[static_cast<size_t>(OfdmGeometry::dataBin(d))] =
                mapper.map(&bits[static_cast<size_t>(d) * n_bpsc]);
        }
        pilots.insertPilots(bins);
        return bins;
    };
    map->onStart = [this](const Packet &) { pilots.reset(); };

    // Streaming (I)FFT: 64-cycle initiation interval and latency.
    auto *ifft = block("ifft", f_freq, f_time, OfdmGeometry::kFftSize);
    ifft->f = [this](SampleVec &v, size_t) {
        fft.inverse(v);
        return std::move(v);
    };

    auto *cp_ins = gatherScatter(baseband, "cp_insert", f_time, f_tx_samp,
                                 1, 1);
    cp_ins->f = [](std::vector<SampleVec> &body, std::deque<Sample> &out) {
        std::array<Sample, OfdmGeometry::kSymbolLen> sym;
        phy::addCyclicPrefix(body[0], sym);
        out.insert(out.end(), sym.begin(), sym.end());
    };

    // The software channel partition, one sample a cycle.
    auto *sw = stream(host, "sw_channel", f_tx_samp, f_rx_samp, 1);
    sw->fire = [this, f_rx_samp](Sample s, size_t n) {
        f_rx_samp->enq(chan->impairSample(s, pkt.index, n));
    };

    auto *cp_rm = gatherScatter(baseband, "cp_remove", f_rx_samp, f_rx_sym,
                                OfdmGeometry::kSymbolLen, 1);
    cp_rm->f = [](SampleVec &sym, std::deque<SampleVec> &burst) {
        SampleVec body(OfdmGeometry::kFftSize);
        phy::removeCyclicPrefix(sym, body);
        burst.push_back(std::move(body));
    };

    auto *rx_fft = block("fft", f_rx_sym, f_rx_freq, OfdmGeometry::kFftSize);
    rx_fft->f = [this](SampleVec &v, size_t) {
        fft.forward(v);
        return std::move(v);
    };

    // Equalizes the data subcarriers of symbol n with the channel's
    // own bin gains for it, as the batch receiver does, and passes
    // on each carrier's |H| when the demapper weights by it.
    auto *eq = block("equalizer", f_rx_freq, f_rx_data, 0);
    eq->f = [this](SampleVec &bins, size_t n) {
        chan->binGains(pkt.index, static_cast<int>(n), h);
        EqSymbolTok sym;
        sym.data.resize(kCarriers);
        if (csi_weight)
            sym.weight.resize(kCarriers);
        for (int d = 0; d < kCarriers; ++d) {
            const auto bin = static_cast<size_t>(OfdmGeometry::dataBin(d));
            sym.data[static_cast<size_t>(d)] = bins[bin] / h[bin];
            if (csi_weight)
                sym.weight[static_cast<size_t>(d)] = std::abs(h[bin]);
        }
        return sym;
    };

    // The batch receiver's batched demap call, weights included.
    auto *demap = block("demapper", f_rx_data, f_soft_sym, kCarriers);
    demap->f = [this](EqSymbolTok &sym, size_t) {
        SoftVec soft(static_cast<size_t>(params.nCbps));
        demapper.demapBatch(sym.data.data(),
                            csi_weight ? sym.weight.data() : nullptr,
                            sym.data.size(), soft.data());
        return soft;
    };

    // Per-subcarrier granularity: nBpsc bits move in parallel.
    auto *deint = block("deinterleaver", f_soft_sym, f_soft_deint, kCarriers);
    deint->f = [this](SoftVec &soft, size_t) {
        SoftVec out(soft.size());
        interleaver.deinterleave(soft, out);
        return out;
    };

    // One rate-1/2 soft pair per lane, erasures included.
    auto *depunct = gatherScatter(baseband, "depuncturer", f_soft_deint,
                                  f_soft_pairs, 1, lanes);
    depunct->f = [this](std::vector<SoftVec> &soft,
                        std::deque<SoftPairTok> &burst) {
        SoftVec full(puncturer.unpuncturedLength(soft[0].size()));
        puncturer.depuncture(soft[0], full);
        for (size_t i = 0; i < full.size(); i += 2)
            burst.push_back({full[i], full[i + 1]});
    };

    // The decoder / BER unit, in its own domain: collects the
    // terminated block, decodes it with the pluggable kernel, and
    // streams the decisions out after the modeled pipeline latency.
    auto *decoder = gatherScatter(decoder_clk, "decoder", f_soft_pairs,
                                  f_decisions, 0, dec_lanes);
    decoder->f = [this](std::vector<SoftPairTok> &pairs,
                        std::deque<SoftDecision> &burst) {
        dec_in.clear();
        for (const SoftPairTok &t : pairs) {
            dec_in.push_back(t.a);
            dec_in.push_back(t.b);
        }
        dec_out.resize(pairs.size());
        dec->decodeInto(dec_in, dec_out);
        burst.insert(burst.end(), dec_out.begin(), dec_out.end());
    };
    decoder->delay = dec->pipelineLatencyCycles();
    decoder->onStart = [decoder](const Packet &p) {
        decoder->need = p.infoBits + phy::ConvCode::kTailBits;
    };

    // Descrambles the info decisions and keeps the payload's; the
    // tail's are consumed silently.
    auto *descr = stream(decoder_clk, "descrambler", f_decisions,
                         f_payload, dec_lanes);
    descr->fire = [this, f_payload](SoftDecision d, size_t n) {
        if (n >= pkt.infoBits)
            return;
        const Bit prbs = descrambler.nextPrbsBit();
        if (n < pkt.payloadBits) {
            d.bit = d.bit ^ prbs;
            f_payload->enq(d);
        }
    };
    descr->width = [this](size_t n) { return size_t{n < pkt.payloadBits}; };
    descr->onStart = [this](const Packet &) { descrambler.reset(seed); };

    auto *sink = stream<SoftDecision, SoftDecision>(
        decoder_clk, "rx_sink", f_payload, nullptr, dec_lanes);
    sink->fire = [this](SoftDecision d, size_t) { received.push_back(d); };
}

LiTransceiver::LiTransceiver(const ScenarioSpec &spec)
    : impl(std::make_unique<Impl>(spec))
{
}

LiTransceiver::~LiTransceiver() = default;

int
LiTransceiver::syncFifoCount() const
{
    return impl->sched.syncFifoCount();
}

LiPacketResult
LiTransceiver::runPacket(BitView payload, std::uint64_t packet_index)
{
    Impl &im = *impl;
    wilis_assert(!payload.empty(), "empty payload");

    im.pkt.index = packet_index;
    im.pkt.payloadBits = payload.size();
    im.pkt.infoBits =
        OfdmGeometry::paddedInfoBits(im.params, payload.size());
    for (Bit b : payload)
        im.tx_payload->enq(b);
    im.received.clear();
    for (Stage *s : im.stages)
        s->start(im.pkt);

    const std::uint64_t bb_start = im.baseband->cycles();
    const std::uint64_t dec_start = im.decoder_clk->cycles();

    // Generous bound: ~100 edges per payload bit across 3 domains.
    const std::uint64_t steps =
        im.pkt.infoBits + phy::ConvCode::kTailBits;
    im.sched.runUntilIdle(32, 400 * steps + 200000);
    wilis_assert(im.received.size() == payload.size(),
                 "LI pipeline stalled: sink has %zu of %zu bits",
                 im.received.size(), payload.size());

    LiPacketResult res;
    res.soft = im.received;
    res.payload.resize(res.soft.size());
    for (size_t i = 0; i < res.soft.size(); ++i)
        res.payload[i] = res.soft[i].bit;
    res.basebandCycles = im.baseband->cycles() - bb_start;
    res.decoderCycles = im.decoder_clk->cycles() - dec_start;
    res.samples = OfdmGeometry::numSamples(im.params, payload.size());
    return res;
}

} // namespace sim
} // namespace wilis
