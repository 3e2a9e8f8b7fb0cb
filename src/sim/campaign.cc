#include "sim/campaign.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "mac/packet_trace.hh"
#include "sim/sweep.hh"

namespace wilis {
namespace sim {

const char *const RunReport::kSchema = "wilis.campaign.report";

namespace {

/** Stream tag under which replication seeds fork off the master. */
constexpr std::uint64_t kRepSeedStream = 0x53504552; // "REPS"

/**
 * The seed replication @p rep runs at. Rep 0 *is* the spec's own
 * seed, so a one-rep campaign reproduces a plain run exactly;
 * later reps fork independent seeds off the master counter key.
 */
std::uint64_t
repSeed(std::uint64_t master, int rep)
{
    if (rep == 0)
        return master;
    return CounterRng(master).fork(kRepSeedStream).at(
        static_cast<std::uint64_t>(rep));
}

// ------------------------------------------------- JSON emission

void
writeStatsState(json::JsonWriter &w, const char *name,
                const RunningStats &s)
{
    const RunningStats::State st = s.state();
    w.key(name).beginObject();
    w.key("n").value(st.n);
    w.key("offset").valueDouble(st.offset);
    w.key("sum").valueDouble(st.sum);
    w.key("sum_sq").valueDouble(st.sum_sq);
    w.endObject();
}

void
writeHist(json::JsonWriter &w, const char *name, const Histogram &h)
{
    w.key(name).beginObject();
    w.key("total").value(h.total());
    w.key("counts").beginArray();
    // A histogram that never saw a sample serializes as an empty
    // counts array (Histogram::restore() accepts it back), keeping
    // 10k-user reports from ballooning on all-zero distributions.
    if (h.total() != 0)
        for (int b = 0; b < h.numBins(); ++b)
            w.value(h.count(b));
    w.endArray();
    w.endObject();
}

void
writeUserStats(json::JsonWriter &w, const char *name,
               const UserStats &s)
{
    w.key(name).beginObject();
    for (const auto &f : kUserStatsCounters)
        w.key(f.name).value(s.*f.member);
    for (const auto &f : kUserStatsMoments)
        writeStatsState(w, f.name, s.*f.member);
    for (const auto &f : kUserStatsHists)
        writeHist(w, f.name, s.*f.member);
    w.endObject();
}

void
writeUnit(json::JsonWriter &w, const std::string &kind,
          const UnitReport &u)
{
    w.beginObject();
    w.key("unit").value(u.unit);
    if (kind == "network") {
        w.key("seed").value(u.seed);
        w.key("cells").value(u.cells);
        w.key("users").value(u.users);
        writeUserStats(w, "stats", u.stats);
    } else {
        w.key("name").value(u.name);
        w.key("packets").value(u.packets);
        w.key("packet_errors").value(u.packetErrors);
        w.key("bits").value(u.bits);
        w.key("bit_errors").value(u.bitErrors);
    }
    w.endObject();
}

// -------------------------------------------------- JSON parsing

RunningStats
readStatsState(const json::JsonValue &v)
{
    RunningStats::State st;
    st.n = v.at("n").asU64();
    st.offset = v.at("offset").asDouble();
    st.sum = v.at("sum").asDouble();
    st.sum_sq = v.at("sum_sq").asDouble();
    return RunningStats::fromState(st);
}

void
readHist(const json::JsonValue &v, Histogram &h)
{
    std::vector<std::uint64_t> counts;
    for (const auto &c : v.at("counts").items())
        counts.push_back(c.asU64());
    const std::uint64_t total = v.at("total").asU64();
    wilis_fatal_if(!h.restore(counts, total),
                   "report histogram has %zu bin counts that do not "
                   "add up to its total %llu (%d bins expected)",
                   counts.size(),
                   static_cast<unsigned long long>(total),
                   h.numBins());
}

UserStats
readUserStats(const json::JsonValue &v)
{
    UserStats s;
    for (const auto &f : kUserStatsCounters)
        s.*f.member = v.at(f.name).asU64();
    for (const auto &f : kUserStatsMoments)
        s.*f.member = readStatsState(v.at(f.name));
    for (const auto &f : kUserStatsHists)
        readHist(v.at(f.name), s.*f.member);
    return s;
}

UnitReport
readUnit(const json::JsonValue &v, const std::string &kind)
{
    UnitReport u;
    u.unit = static_cast<int>(v.at("unit").asInt());
    if (kind == "network") {
        u.seed = v.at("seed").asU64();
        u.cells = static_cast<int>(v.at("cells").asInt());
        u.users = static_cast<int>(v.at("users").asInt());
        u.stats = readUserStats(v.at("stats"));
    } else {
        u.name = v.at("name").asString();
        u.packets = v.at("packets").asU64();
        u.packetErrors = v.at("packet_errors").asU64();
        u.bits = v.at("bits").asU64();
        u.bitErrors = v.at("bit_errors").asU64();
    }
    return u;
}

/**
 * The campaign aggregate, recomputed from @p units in ascending
 * unit order. Always the same merge sequence a one-process run
 * performs -- the operation every byte-identity guarantee of the
 * merged report reduces to.
 */
UnitReport
aggregateUnits(const std::string &kind,
               const std::vector<UnitReport> &units)
{
    UnitReport agg;
    agg.unit = -1;
    if (units.empty())
        return agg;
    if (kind == "network") {
        // Replications share the deployment shape (topology and
        // user count come from the spec, not the rep seed).
        agg.cells = units.front().cells;
        agg.users = units.front().users;
        for (const auto &u : units)
            agg.stats.merge(u.stats);
    } else {
        for (const auto &u : units) {
            agg.packets += u.packets;
            agg.packetErrors += u.packetErrors;
            agg.bits += u.bits;
            agg.bitErrors += u.bitErrors;
        }
    }
    return agg;
}

} // namespace

std::string
RunReport::toJsonText() const
{
    json::JsonWriter w;
    w.beginObject();
    w.key("schema").value(kSchema);
    w.key("version").value(kVersion);
    w.key("kind").value(kind);
    w.key("config").value(config);
    if (kind == "network")
        w.key("slots").value(slots);
    else
        w.key("packets_per_cell").value(packetsPerCell);
    w.key("units_total").value(unitsTotal);
    w.key("units").beginArray();
    for (const auto &u : units)
        writeUnit(w, kind, u);
    w.endArray();
    if (merged) {
        w.key("aggregate");
        writeUnit(w, kind, aggregate);
    }
    w.endObject();
    return w.str();
}

void
RunReport::save(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        wilis_fatal("cannot write campaign report '%s'",
                    path.c_str());
    out << toJsonText();
    out.flush();
    if (!out)
        wilis_fatal("short write on campaign report '%s'",
                    path.c_str());
}

RunReport
RunReport::fromJsonText(const std::string &text,
                        const std::string &what)
{
    const json::JsonValue v = json::JsonValue::parse(text, what);
    const std::string schema = v.at("schema").asString();
    wilis_fatal_if(schema != kSchema,
                   "%s: schema '%s' is not a campaign report",
                   what.c_str(), schema.c_str());
    const std::int64_t version = v.at("version").asInt();
    wilis_fatal_if(version != kVersion,
                   "%s: campaign report version %lld (this build "
                   "reads %d)",
                   what.c_str(), static_cast<long long>(version),
                   kVersion);

    RunReport rep;
    rep.kind = v.at("kind").asString();
    wilis_fatal_if(rep.kind != "network" && rep.kind != "grid",
                   "%s: unknown campaign kind '%s'", what.c_str(),
                   rep.kind.c_str());
    rep.config = v.at("config").asString();
    if (rep.kind == "network")
        rep.slots = v.at("slots").asU64();
    else
        rep.packetsPerCell = v.at("packets_per_cell").asU64();
    rep.unitsTotal = static_cast<int>(v.at("units_total").asInt());
    for (const auto &u : v.at("units").items())
        rep.units.push_back(readUnit(u, rep.kind));
    if (const json::JsonValue *agg = v.find("aggregate")) {
        rep.merged = true;
        rep.aggregate = readUnit(*agg, rep.kind);
    }
    return rep;
}

RunReport
RunReport::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        wilis_fatal("cannot read campaign report '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return fromJsonText(text.str(), path);
}

RunReport
runCampaignShard(const RunRequest &req, const UnitObserver &observe)
{
    wilis_fatal_if(req.shardCount < 1 || req.shardIndex < 0 ||
                       req.shardIndex >= req.shardCount,
                   "campaign shard %d/%d out of range", req.shardIndex,
                   req.shardCount);
    const int units_total = req.spec.reps;
    wilis_assert(units_total >= 1, "campaign needs >= 1 rep");
    // A packet trace names one run; checkpoint files likewise hold
    // one run's state and resuming mid-campaign would alias them
    // across units or shards. Keep both single-unit, single-shard.
    wilis_fatal_if((units_total > 1 || req.shardCount > 1) &&
                       (!req.traceFile.empty() || req.spec.trace),
                   "tracing requires reps=1 and a single shard");
    wilis_fatal_if(req.spec.checkpoint.enabled() &&
                       (units_total > 1 || req.shardCount > 1),
                   "checkpointing requires reps=1 and a single shard");

    RunReport rep;
    rep.kind = "network";
    rep.config = req.spec.toConfig().toString();
    rep.slots = req.slots;
    rep.unitsTotal = units_total;

    // One calibration sweep serves every replication (the table is
    // seed-independent); built lazily so an ownerless shard stays
    // free and full-fidelity campaigns never build one.
    std::shared_ptr<const softphy::CalibrationTable> table;
    bool have_table = false;
    for (int u = req.shardIndex; u < units_total;
         u += req.shardCount) {
        NetworkSpec spec = req.spec;
        spec.seed = repSeed(req.spec.seed, u);
        if (!req.traceFile.empty())
            spec.trace = true;
        if (!have_table) {
            table = NetworkSim::calibrationFor(spec);
            have_table = true;
        }
        NetworkSim sim(spec, table);
        NetworkResult res = sim.run(req.slots, req.threads);
        if (!req.traceFile.empty())
            res.trace->save(req.traceFile);
        if (observe)
            observe(u, res);

        UnitReport unit;
        unit.unit = u;
        unit.seed = spec.seed;
        unit.cells = res.cells;
        unit.users = static_cast<int>(res.users.size());
        unit.stats = res.aggregate;
        rep.units.push_back(unit);
    }

    if (!req.reportFile.empty())
        rep.save(req.reportFile);
    return rep;
}

RunReport
runGridShard(const GridRunRequest &req)
{
    wilis_assert(req.shardCount >= 1 && req.shardIndex >= 0 &&
                     req.shardIndex < req.shardCount,
                 "grid shard %d/%d out of range", req.shardIndex,
                 req.shardCount);
    // This shard's round-robin share of the cells. Each cell is a
    // pure function of (grid seed, cell index), so disjoint shards
    // compose into exactly the unsharded result.
    std::vector<ScenarioSpec> specs;
    for (size_t c = static_cast<size_t>(req.shardIndex);
         c < req.grid.cellCount();
         c += static_cast<size_t>(req.shardCount))
        specs.push_back(req.grid.cell(c));
    const std::vector<std::uint64_t> bit_errors = sweepPackets(
        specs, req.packetsPerCell, req.threads,
        [](size_t, std::uint64_t, const FrameResult &res) {
            return res.bitErrors;
        });

    RunReport rep;
    rep.kind = "grid";
    rep.config = req.grid.base.toConfig().toString();
    rep.packetsPerCell = req.packetsPerCell;
    rep.unitsTotal = static_cast<int>(req.grid.cellCount());
    for (size_t i = 0; i < specs.size(); ++i) {
        UnitReport unit;
        unit.unit = req.shardIndex + static_cast<int>(i) * req.shardCount;
        unit.name = specs[i].name;
        for (std::uint64_t p = 0; p < req.packetsPerCell; ++p) {
            const std::uint64_t errs =
                bit_errors[i * req.packetsPerCell + p];
            unit.packets += 1;
            unit.packetErrors += errs ? 1 : 0;
            unit.bits += specs[i].payloadBits;
            unit.bitErrors += errs;
        }
        rep.units.push_back(unit);
    }

    if (!req.reportFile.empty())
        rep.save(req.reportFile);
    return rep;
}

RunReport
mergeReports(const std::vector<RunReport> &shards)
{
    // Shard reports are files read back from disk: every check on
    // their content is a fatal naming the offending config or unit.
    wilis_fatal_if(shards.empty(), "no shard reports to merge");
    const RunReport &first = shards.front();
    for (const RunReport &s : shards) {
        wilis_fatal_if(s.merged,
                       "cannot merge an already-merged report "
                       "(config '%s')",
                       s.config.c_str());
        wilis_fatal_if(s.kind != first.kind || s.config != first.config,
                       "shard reports describe different campaigns "
                       "(%s '%s' vs %s '%s')",
                       s.kind.c_str(), s.config.c_str(),
                       first.kind.c_str(), first.config.c_str());
        wilis_fatal_if(s.slots != first.slots ||
                           s.packetsPerCell != first.packetsPerCell ||
                           s.unitsTotal != first.unitsTotal,
                       "shard reports of config '%s' disagree on the "
                       "campaign shape (%llu slots, %llu packets per "
                       "cell, %d units vs %llu, %llu, %d)",
                       s.config.c_str(),
                       static_cast<unsigned long long>(s.slots),
                       static_cast<unsigned long long>(
                           s.packetsPerCell),
                       s.unitsTotal,
                       static_cast<unsigned long long>(first.slots),
                       static_cast<unsigned long long>(
                           first.packetsPerCell),
                       first.unitsTotal);
    }

    // Reassemble the campaign's unit list in unit order -- the
    // pinned iteration every determinism property hangs off -- and
    // insist the shards partition it exactly.
    const int total = first.unitsTotal;
    std::vector<const UnitReport *> slots_by_unit(
        static_cast<size_t>(std::max(total, 0)), nullptr);
    for (const RunReport &s : shards) {
        for (const UnitReport &u : s.units) {
            wilis_fatal_if(u.unit < 0 || u.unit >= total,
                           "unit %d out of campaign range [0, %d) "
                           "(config '%s')",
                           u.unit, total, s.config.c_str());
            wilis_fatal_if(slots_by_unit[static_cast<size_t>(u.unit)],
                           "unit %d reported by two shards "
                           "(config '%s')",
                           u.unit, s.config.c_str());
            slots_by_unit[static_cast<size_t>(u.unit)] = &u;
        }
    }

    RunReport out;
    out.kind = first.kind;
    out.config = first.config;
    out.slots = first.slots;
    out.packetsPerCell = first.packetsPerCell;
    out.unitsTotal = total;
    for (int u = 0; u < total; ++u) {
        wilis_fatal_if(!slots_by_unit[static_cast<size_t>(u)],
                       "no shard reported unit %d of %d (config '%s')",
                       u, total, first.config.c_str());
        out.units.push_back(*slots_by_unit[static_cast<size_t>(u)]);
    }
    out.merged = true;
    out.aggregate = aggregateUnits(out.kind, out.units);
    return out;
}

} // namespace sim
} // namespace wilis
