/**
 * @file
 * Latency-insensitive framework tests: FIFO handshake semantics,
 * multi-clock scheduling, automatic sync-FIFO insertion, plug-n-play
 * registry and config parsing. The central LI property -- results
 * invariant under clock assignment -- is checked on the streaming
 * transceiver itself (test_li_transceiver.cc).
 */

#include <gtest/gtest.h>

#include <limits>

#include "li/config.hh"
#include "li/fifo.hh"
#include "li/module.hh"
#include "li/registry.hh"
#include "li/scheduler.hh"

using namespace wilis;
using namespace wilis::li;

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

TEST(SchedulerDeath, UnknownDomainPanics)
{
    /** A module that never does anything. */
    struct Idle : Module {
        Idle() : Module("m") {}
        bool tick() override { return false; }
    };
    Scheduler sched;
    ClockDomain other("other", 10.0);
    Idle m;
    EXPECT_DEATH(sched.add(&m, &other), "not owned");
}
