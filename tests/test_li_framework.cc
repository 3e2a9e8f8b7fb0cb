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
#include <string>
#include <vector>

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

namespace {

struct Iface {
    virtual ~Iface() = default;
    virtual int id() const = 0;
};

/** ImplA reads one key, "gain", at least 1. */
struct ImplA : Iface {
    struct Params {
        int gain = 1;

        template <typename V>
        void visitKeys(V &v)
        {
            v("gain", gain, atLeast(1));
        }
    };
    explicit ImplA(const Params &p) : gain(p.gain) {}
    int id() const override { return gain; }
    int gain;
};

/** ImplB reads no key. */
struct ImplB : Iface {
    struct Params {
        template <typename V>
        void visitKeys(V &) {}
    };
    explicit ImplB(const Params &) {}
    int id() const override { return -1; }
};

Registry<Iface>
testRegistry()
{
    Registry<Iface> reg("widget");
    reg.add<ImplA>("a");
    reg.add<ImplA>("a-big", {.gain = 100});
    reg.add<ImplB>("b");
    return reg;
}

} // namespace

TEST(Registry, PlugNPlayCreateAndList)
{
    const Registry<Iface> reg = testRegistry();
    EXPECT_EQ(reg.create("a")->id(), 1);
    EXPECT_EQ(reg.create("a", Config::fromString("gain=7"))->id(), 7);
    // A registration's defaults are the Params it starts from.
    EXPECT_EQ(reg.create("a-big")->id(), 100);
    EXPECT_EQ(reg.create("b")->id(), -1);
    EXPECT_EQ(reg.names(), (std::vector<std::string>{"a", "a-big", "b"}));
    EXPECT_EQ(reg.keys("a"), std::vector<std::string>{"gain"});
    EXPECT_TRUE(reg.keys("b").empty());
}

TEST(RegistryDeath, KeysOutsideTheListOrRangeAreFatal)
{
    const Registry<Iface> reg = testRegistry();
    EXPECT_EXIT(reg.create("b", Config::fromString("gain=2")),
                testing::ExitedWithCode(1),
                "unknown widget key 'gain' for b \\(valid keys: <none>\\)");
    EXPECT_EXIT(reg.create("a", Config::fromString("gain=0")),
                testing::ExitedWithCode(1),
                "gain 0 out of range: gain must be >= 1");
    EXPECT_EXIT(reg.create("c"), testing::ExitedWithCode(1),
                "no widget implementation 'c' registered \\(known: a, "
                "a-big, b\\)");
    // check() parses without constructing and names each key the
    // way the caller's config spelled it.
    reg.check("a", Config::fromString("gain=3"), "widget.");
    EXPECT_EXIT(reg.check("a", Config::fromString("gain=0"), "widget."),
                testing::ExitedWithCode(1),
                "widget.gain 0 out of range: widget.gain must be >= 1");
    EXPECT_EXIT(reg.check("a", Config::fromString("gian=3"), "widget."),
                testing::ExitedWithCode(1),
                "unknown widget key 'widget.gian' for a \\(valid keys: "
                "gain\\)");
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
    // The ranged reader: a present key is read and checked, an
    // absent one keeps the field's value.
    int three = 0;
    int missing = 2;
    const ApplyKeys read(cfg);
    EXPECT_TRUE(read("three", three, within(1, 3)));
    EXPECT_FALSE(read("missing", missing, within(1, 3)));
    EXPECT_EQ(three, 3);
    EXPECT_EQ(missing, 2);
    EXPECT_EXIT(read("three", three, within(0, 2)),
                testing::ExitedWithCode(1),
                "three 3 out of range: three must be in \\[0,2\\]");
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
