/**
 * @file
 * google-benchmark microbenchmarks of the compute kernels: FFT,
 * mapper/demapper, interleaver, scrambler, AWGN noise generation,
 * and the three decoders. These quantify why the paper concludes a
 * pure-software simulator cannot reach line rate (section 5: "a
 * well-tuned software radio will be able to achieve a few tens to
 * hundreds of Kbps" for BCJR-class algorithms; our optimized kernels
 * reach a few Mb/s per core -- still 10-50x short of the 54 Mb/s
 * line rate WiLIS sustains on the FPGA).
 */

#include <benchmark/benchmark.h>

#include "channel/awgn.hh"
#include "common/kernels.hh"
#include "common/random.hh"
#include "decode/bcjr.hh"
#include "decode/soft_decoder.hh"
#include "decode/trellis_kernels.hh"
#include "phy/conv_code.hh"
#include "phy/demapper.hh"
#include "phy/fft.hh"
#include "phy/interleaver.hh"
#include "phy/mapper.hh"
#include "phy/ofdm_rx.hh"
#include "phy/ofdm_tx.hh"
#include "phy/scrambler.hh"

using namespace wilis;
using namespace wilis::phy;

namespace {

BitVec
randomBits(size_t n, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    BitVec v(n);
    for (auto &b : v)
        b = rng.nextBit();
    return v;
}

/** Rate-1/2 encode @p data, terminated, into a fresh vector. */
BitVec
encoded(const BitVec &data)
{
    BitVec out(2 * (data.size() + ConvCode::kTailBits));
    convCode().encode(data, true, out);
    return out;
}

void
BM_Scrambler(benchmark::State &state)
{
    Scrambler s(0x5D);
    BitVec data = randomBits(4096, 2);
    BitVec out(data.size());
    for (auto _ : state) {
        s.process(data, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Scrambler);

void
BM_ConvEncode(benchmark::State &state)
{
    BitVec data = randomBits(4096, 3);
    BitVec out(2 * (data.size() + ConvCode::kTailBits));
    for (auto _ : state) {
        convCode().encode(data, true, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ConvEncode);

void
BM_Interleave(benchmark::State &state)
{
    Interleaver il(Modulation::QAM16);
    BitVec data = randomBits(static_cast<size_t>(il.blockSize()) * 16,
                             4);
    BitVec out(data.size());
    for (auto _ : state) {
        il.interleaveStream(data, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Interleave);

void
BM_MapDemap(benchmark::State &state)
{
    auto mod = static_cast<Modulation>(state.range(0));
    Mapper m(mod);
    Demapper dm(mod);
    BitVec bits = randomBits(
        static_cast<size_t>(bitsPerSubcarrier(mod)) * 1024, 5);
    SoftVec soft(bits.size());
    for (auto _ : state) {
        SampleVec symbols = m.mapStream(bits);
        dm.demapBatch(symbols.data(), nullptr, symbols.size(),
                      soft.data());
        benchmark::DoNotOptimize(soft.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(BM_MapDemap)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void
BM_AwgnNoise(benchmark::State &state)
{
    channel::AwgnChannel ch(
        {.threads = static_cast<int>(state.range(0))});
    SampleVec buf(1 << 14, Sample(1.0, 0.0));
    std::uint64_t p = 0;
    for (auto _ : state) {
        ch.apply(buf, p++);
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_AwgnNoise)->Arg(1)->Arg(2);

void
BM_Decoder(benchmark::State &state, const char *name)
{
    auto dec = decode::makeDecoder(name);
    BitVec data = randomBits(2048, 7);
    BitVec coded = encoded(data);
    GaussianSource g(11);
    SoftVec soft(coded.size());
    for (size_t i = 0; i < coded.size(); ++i)
        soft[i] = static_cast<SoftBit>(
            std::lround((coded[i] ? 12.0 : -12.0) + 8.0 * g.next()));
    std::vector<SoftDecision> out(soft.size() / 2);
    for (auto _ : state) {
        dec->decodeInto(soft, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(data.size()));
}
BENCHMARK_CAPTURE(BM_Decoder, viterbi, "viterbi");
BENCHMARK_CAPTURE(BM_Decoder, sova, "sova");
BENCHMARK_CAPTURE(BM_Decoder, bcjr, "bcjr");
BENCHMARK_CAPTURE(BM_Decoder, bcjr_logmap, "bcjr-logmap");

void
BM_FullPipeline(benchmark::State &state)
{
    OfdmTransmitter tx(4);
    OfdmReceiver::Config rxc;
    rxc.decoder = "bcjr";
    OfdmReceiver rx(4, rxc);
    channel::AwgnChannel ch({.snrDb = 9.0});
    BitVec payload = randomBits(1704, 8);
    FrameArena arena;
    std::uint64_t p = 0;
    for (auto _ : state) {
        arena.reset();
        FrameContext ctx(arena);
        SampleSpan s = tx.modulate(BitView(payload), ctx);
        ch.apply(s, p++);
        RxFrame res = rx.demodulate(s, payload.size(), nullptr, 0, ctx);
        benchmark::DoNotOptimize(res.payload.data());
    }
    state.SetItemsProcessed(state.iterations() * 1704);
}
BENCHMARK(BM_FullPipeline);

// ---- SIMD kernel layer: per-backend microbenches. Arg(0) indexes
// kernels::availableBackends() (0 scalar, 1 avx2); an index the host
// lacks reports "backend unavailable".

bool
selectBackendArg(benchmark::State &state)
{
    auto avail = kernels::availableBackends();
    auto idx = static_cast<size_t>(state.range(0));
    if (idx >= avail.size()) {
        state.SkipWithError("backend unavailable");
        return false;
    }
    kernels::setBackend(avail[idx]);
    state.SetLabel(kernels::backendName(avail[idx]));
    return true;
}

void
BM_Fft64(benchmark::State &state)
{
    if (!selectBackendArg(state))
        return;
    Fft fft(64);
    SplitMix64 rng(1);
    SampleVec x(64);
    for (auto &v : x)
        v = Sample(rng.nextDouble(), rng.nextDouble());
    for (auto _ : state) {
        fft.forward(x);
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Fft64)->Arg(0)->Arg(1);

void
BM_KernelAcsForward(benchmark::State &state)
{
    if (!selectBackendArg(state))
        return;
    const auto &tv = decode::TrellisTables::view();
    SplitMix64 rng(21);
    std::int32_t pm[decode::kStates];
    std::int32_t pm_next[decode::kStates];
    for (auto &x : pm)
        x = static_cast<std::int32_t>(rng.nextBelow(1 << 20));
    std::int32_t bm[4] = {-24, 3, -3, 24};
    std::uint64_t choices = 0;
    for (auto _ : state) {
        kernels::ops().acsForward(tv, pm, bm, pm_next, &choices,
                                  nullptr);
        benchmark::DoNotOptimize(pm_next);
        benchmark::DoNotOptimize(choices);
    }
    state.SetItemsProcessed(state.iterations() * decode::kStates);
}
BENCHMARK(BM_KernelAcsForward)->Arg(0)->Arg(1);

void
BM_KernelDemapBatch(benchmark::State &state)
{
    if (!selectBackendArg(state))
        return;
    Demapper dm(Modulation::QAM64);
    SplitMix64 rng(23);
    const size_t n = 48; // one OFDM symbol of data carriers
    SampleVec ys(n);
    for (auto &y : ys)
        y = Sample(rng.nextDouble() * 2.0 - 1.0,
                   rng.nextDouble() * 2.0 - 1.0);
    SoftVec out(n * 6);
    for (auto _ : state) {
        dm.demapBatch(ys.data(), nullptr, n, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n * 6));
}
BENCHMARK(BM_KernelDemapBatch)->Arg(0)->Arg(1);

void
BM_KernelScaleComplex(benchmark::State &state)
{
    if (!selectBackendArg(state))
        return;
    SplitMix64 rng(24);
    SampleVec buf(1 << 12);
    for (auto &s : buf)
        s = Sample(rng.nextDouble(), rng.nextDouble());
    const Sample h(0.83, -0.42);
    for (auto _ : state) {
        kernels::ops().scaleComplex(buf.data(), buf.size(), h);
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_KernelScaleComplex)->Arg(0)->Arg(1);

void
BM_BcjrMaxLog(benchmark::State &state)
{
    if (!selectBackendArg(state))
        return;
    // One 1704-bit payload block through the whole-block kernel, as
    // the default bcjr decoder runs it; reported per trellis step.
    decode::BcjrDecoder dec;
    BitVec coded = encoded(randomBits(1704, 26));
    GaussianSource g(27);
    SoftVec soft(coded.size());
    for (size_t i = 0; i < coded.size(); ++i)
        soft[i] = static_cast<SoftBit>(
            std::lround((coded[i] ? 12.0 : -12.0) + 8.0 * g.next()));
    std::vector<SoftDecision> out(soft.size() / 2);
    for (auto _ : state) {
        dec.decodeInto(soft, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.counters["per_step"] = benchmark::Counter(
        static_cast<double>(out.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_BcjrMaxLog)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
