/**
 * @file
 * Latency-insensitive framework tests: FIFO handshake semantics,
 * multi-clock scheduling, automatic sync-FIFO insertion, plug-n-play
 * registry, config parsing, and the central LI property -- pipeline
 * results are invariant under FIFO capacities and clock assignment.
 */

#include <gtest/gtest.h>

#include <limits>

#include "li/config.hh"
#include "li/fifo.hh"
#include "li/registry.hh"
#include "li/scheduler.hh"
#include "sim/li_pipeline.hh"

using namespace wilis;
using namespace wilis::li;
using namespace wilis::sim;

TEST(Fifo, BasicHandshake)
{
    Fifo<int> f("f", 2);
    EXPECT_TRUE(f.canEnq());
    EXPECT_FALSE(f.canDeq());
    f.enq(1);
    f.enq(2);
    EXPECT_FALSE(f.canEnq());
    EXPECT_EQ(f.size(), 2u);
    EXPECT_EQ(f.first(), 1);
    EXPECT_EQ(f.deq(), 1);
    EXPECT_EQ(f.deq(), 2);
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.enqCount(), 2u);
}

TEST(FifoDeath, OverflowAndUnderflowPanic)
{
    Fifo<int> f("f", 1);
    f.enq(1);
    EXPECT_DEATH(f.enq(2), "full");
    f.deq();
    EXPECT_DEATH(f.deq(), "empty");
}

TEST(Clock, PeriodAndEdges)
{
    ClockDomain d("clk", 35.0);
    EXPECT_EQ(d.periodPs(), 28571u); // 1e6/35 rounded
    EXPECT_EQ(d.cycles(), 0u);
    EXPECT_EQ(d.nextEdge(), d.periodPs());
    d.advance();
    EXPECT_EQ(d.cycles(), 1u);
}

TEST(Scheduler, MultiClockRatio)
{
    // 35 MHz and 60 MHz domains over ~10 us of simulated time: the
    // cycle counts must track the frequency ratio.
    Scheduler sched;
    ClockDomain *slow = sched.createDomain("baseband", 35.0);
    ClockDomain *fast = sched.createDomain("ber_unit", 60.0);
    for (int i = 0; i < 2000; ++i)
        sched.step();
    double ratio = static_cast<double>(fast->cycles()) /
                   static_cast<double>(slow->cycles());
    EXPECT_NEAR(ratio, 60.0 / 35.0, 0.01);
}

TEST(Scheduler, SyncFifoInsertedAcrossDomainsOnly)
{
    Scheduler sched;
    ClockDomain *a = sched.createDomain("a", 35.0);
    ClockDomain *b = sched.createDomain("b", 60.0);
    sched.connectFifo<int>("same", 2, a, a);
    EXPECT_EQ(sched.syncFifoCount(), 0);
    sched.connectFifo<int>("cross", 2, a, b);
    EXPECT_EQ(sched.syncFifoCount(), 1);
}

TEST(SyncFifo, ImposesCrossingLatency)
{
    Scheduler sched;
    ClockDomain *a = sched.createDomain("a", 100.0);
    ClockDomain *b = sched.createDomain("b", 100.0);
    auto *f = sched.connectFifo<int>("x", 4, a, b);
    f->enq(42);
    // Not visible immediately: two consumer cycles must pass.
    EXPECT_FALSE(f->canDeq());
    sched.step();
    EXPECT_FALSE(f->canDeq());
    sched.step();
    sched.step();
    EXPECT_TRUE(f->canDeq());
    EXPECT_EQ(f->deq(), 42);
}

TEST(Registry, PlugNPlayCreateAndList)
{
    struct Iface {
        virtual ~Iface() = default;
        virtual int id() const = 0;
    };
    struct ImplA : Iface {
        explicit ImplA(const Config &) {}
        int id() const override { return 1; }
    };
    struct ImplB : Iface {
        explicit ImplB(const Config &) {}
        int id() const override { return 2; }
    };

    Registry<Iface> reg;
    reg.add("a", [](const Config &c) -> std::unique_ptr<Iface> {
        return std::make_unique<ImplA>(c);
    });
    reg.add("b", [](const Config &c) -> std::unique_ptr<Iface> {
        return std::make_unique<ImplB>(c);
    });
    EXPECT_TRUE(reg.has("a"));
    EXPECT_FALSE(reg.has("c"));
    EXPECT_EQ(reg.create("a")->id(), 1);
    EXPECT_EQ(reg.create("b")->id(), 2);
    auto names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
}

TEST(Config, ParseStringAndTypes)
{
    Config cfg = Config::fromString(
        "snr_db=7.5, seed=42,name=bcjr,flag=true");
    EXPECT_DOUBLE_EQ(cfg.getDouble("snr_db", 0), 7.5);
    EXPECT_EQ(cfg.getInt("seed", 0), 42);
    EXPECT_EQ(cfg.getString("name"), "bcjr");
    EXPECT_TRUE(cfg.getBool("flag", false));
    EXPECT_EQ(cfg.getInt("missing", -7), -7);
    EXPECT_FALSE(cfg.has("missing"));
}

TEST(ConfigDeath, EmptyOverflowingAndOutOfRangeNumbersAreFatal)
{
    const Config cfg = Config::fromString(
        "empty=,big=99999999999999999999999,three=3");
    EXPECT_EXIT(cfg.getInt("empty"), testing::ExitedWithCode(1),
                "'empty'");
    EXPECT_EXIT(cfg.getUint64("empty"), testing::ExitedWithCode(1),
                "'empty'");
    EXPECT_EXIT(cfg.getDouble("empty"), testing::ExitedWithCode(1),
                "'empty'");
    EXPECT_EXIT(cfg.getUint64("big"), testing::ExitedWithCode(1),
                "'big'");
    // strtol saturates out-of-range values; getInt must not.
    EXPECT_EXIT(cfg.getInt("big"), testing::ExitedWithCode(1),
                "'big': 99999999999999999999999 is outside the integer");
    EXPECT_EXIT(Config::fromString("s=-9223372036854775809").getInt("s"),
                testing::ExitedWithCode(1), "'s'");
    EXPECT_EQ(Config::fromString("s=-9223372036854775808").getInt("s"),
              std::numeric_limits<long>::min());
    EXPECT_EQ(cfg.getInt("three", 0, 1, 3), 3);
    EXPECT_EQ(cfg.getInt("missing", 2, 1, 3), 2);
    EXPECT_EXIT(cfg.getInt("three", 0, 0, 2), testing::ExitedWithCode(1),
                "'three': 3 is outside \\[0, 2\\]");
}

TEST(LiPipeline, TokensArriveInOrderAndIntact)
{
    Scheduler sched;
    ClockDomain *clk = sched.createDomain("clk", 60.0);
    LiPipeline pipe = buildSovaPipeline(sched, clk, 8, 8);

    std::vector<LiToken> in(50);
    for (size_t i = 0; i < in.size(); ++i) {
        in[i].id = i;
        in[i].value = static_cast<std::int64_t>(i * 3);
    }
    pipe.source->feed(in);
    sched.runUntilIdle(16);

    const auto &out = pipe.sink->received();
    ASSERT_EQ(out.size(), in.size());
    for (size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(out[i].id, in[i].id);
        EXPECT_EQ(out[i].value, in[i].value);
    }
}

TEST(LiPipeline, ThroughputIsOneTokenPerCycleAfterFill)
{
    Scheduler sched;
    ClockDomain *clk = sched.createDomain("clk", 60.0);
    LiPipeline pipe = buildSovaPipeline(sched, clk, 16, 16);

    const int n = 200;
    std::vector<LiToken> in(static_cast<size_t>(n));
    pipe.source->feed(in);
    sched.runUntilIdle(16);
    ASSERT_EQ(pipe.sink->received().size(), static_cast<size_t>(n));
    // Total cycles ~ latency + n (streaming at 1/cycle).
    std::int64_t span = pipe.sink->firstArrivalCycle() +
                        static_cast<std::int64_t>(n) - 1;
    EXPECT_LE(static_cast<std::int64_t>(clk->cycles()), span + 32);
}

TEST(LiPipeline, ResultInvariantUnderFifoCapacityAndClocks)
{
    // The latency-insensitivity property (section 2): swap FIFO
    // sizes and clock frequencies; the output stream is bit-exact.
    auto run = [](double freq, int l, int k) {
        Scheduler sched;
        ClockDomain *clk = sched.createDomain("clk", freq);
        LiPipeline pipe = buildSovaPipeline(sched, clk, l, k);
        std::vector<LiToken> in(100);
        for (size_t i = 0; i < in.size(); ++i) {
            in[i].id = i;
            in[i].value = static_cast<std::int64_t>(7 * i + 1);
        }
        pipe.source->feed(in);
        sched.runUntilIdle(16);
        std::vector<std::int64_t> vals;
        for (const auto &t : pipe.sink->received())
            vals.push_back(t.value);
        return vals;
    };

    auto ref = run(60.0, 64, 64);
    EXPECT_EQ(run(35.0, 64, 64), ref);
    EXPECT_EQ(run(7.0, 64, 64), ref);
    EXPECT_EQ(run(60.0, 8, 32), ref);
}

TEST(LiPipeline, SovaLatencyMatchesFormula)
{
    for (auto [l, k] : {std::pair{64, 64}, {32, 32}, {16, 64}}) {
        Scheduler sched;
        ClockDomain *clk = sched.createDomain("clk", 60.0);
        LiPipeline pipe = buildSovaPipeline(sched, clk, l, k);
        EXPECT_EQ(measurePipelineLatency(sched, pipe, 200),
                  l + k + 12)
            << "l=" << l << " k=" << k;
    }
}

TEST(LiPipeline, BcjrLatencyMatchesFormula)
{
    for (int n : {64, 32, 16}) {
        Scheduler sched;
        ClockDomain *clk = sched.createDomain("clk", 60.0);
        LiPipeline pipe = buildBcjrPipeline(sched, clk, n);
        EXPECT_EQ(measurePipelineLatency(sched, pipe, 200), 2 * n + 7)
            << "n=" << n;
    }
}

TEST(LiPipeline, LatencyInMicrosecondsMeetsBudget)
{
    // 140 cycles at 60 MHz = 2.33 us; 135 cycles = 2.25 us; both
    // far below the 25 us 802.11a/g budget (sections 4.3.1/4.3.2).
    Scheduler sched;
    ClockDomain *clk = sched.createDomain("clk", 60.0);
    LiPipeline pipe = buildSovaPipeline(sched, clk, 64, 64);
    int cycles = measurePipelineLatency(sched, pipe, 200);
    double us = static_cast<double>(cycles) / clk->freqMhz();
    EXPECT_NEAR(us, 2.33, 0.05);
    EXPECT_LT(us, 25.0);
}

TEST(LiPipeline, CrossDomainPipelineStillCorrect)
{
    // Producer at 35 MHz feeding a consumer at 60 MHz through an
    // auto-inserted sync FIFO: data must cross intact and in order.
    Scheduler sched;
    ClockDomain *slow = sched.createDomain("slow", 35.0);
    ClockDomain *fast = sched.createDomain("fast", 60.0);

    auto *f_in = sched.connectFifo<LiToken>("in", 4, slow, slow);
    auto *f_x = sched.connectFifo<LiToken>("x", 4, slow, fast);
    EXPECT_EQ(sched.syncFifoCount(), 1);

    auto src = std::make_unique<SourceModule>("src", f_in);
    auto *src_p = src.get();
    sched.adopt(std::move(src), slow);
    sched.adopt(std::make_unique<DelayStageModule>("stage", f_in, f_x,
                                                   3),
                slow);
    auto sink = std::make_unique<SinkModule>("sink", f_x);
    auto *sink_p = sink.get();
    sched.adopt(std::move(sink), fast);

    std::vector<LiToken> in(64);
    for (size_t i = 0; i < in.size(); ++i) {
        in[i].id = i;
        in[i].value = static_cast<std::int64_t>(i);
    }
    src_p->feed(in);
    sched.runUntilIdle(16);

    ASSERT_EQ(sink_p->received().size(), in.size());
    for (size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(sink_p->received()[i].value,
                  static_cast<std::int64_t>(i));
}

TEST(SchedulerDeath, UnknownDomainPanics)
{
    Scheduler sched;
    ClockDomain other("other", 10.0);
    SourceModule m("m", nullptr);
    EXPECT_DEATH(sched.add(&m, &other), "not owned");
}
