#include "sim/sweep.hh"

#include <vector>

#include "common/lockstep.hh"

namespace wilis {
namespace sim {

void
sweepFrames(
    const ScenarioSpec &spec, std::uint64_t num_packets, int threads,
    const std::function<void(int, const FrameResult &, std::uint64_t)>
        &per_frame)
{
    LockstepTeam team(LockstepTeam::workerCount(threads, num_packets));
    const auto n = static_cast<std::uint64_t>(team.size());

    // Static packet striding: worker t owns packets t, t+n, t+2n...
    // Every random stream is keyed by the packet index, so the
    // assignment of packets to workers is irrelevant to the results.
    team.run([&](int tid) {
        Testbench tb(spec);
        for (std::uint64_t p = static_cast<std::uint64_t>(tid);
             p < num_packets; p += n) {
            FrameResult res = tb.runFrame(spec.payloadBits, p);
            per_frame(tid, res, p);
        }
    });
}

ErrorStats
measureBer(const ScenarioSpec &spec, std::uint64_t num_packets,
           int threads)
{
    const int n = LockstepTeam::workerCount(threads, num_packets);
    std::vector<ErrorStats> per_worker(static_cast<size_t>(n));
    sweepFrames(spec, num_packets, n,
                [&](int tid, const FrameResult &res, std::uint64_t) {
                    per_worker[static_cast<size_t>(tid)].bits +=
                        res.txPayload.size();
                    per_worker[static_cast<size_t>(tid)].errors +=
                        res.bitErrors;
                });
    ErrorStats total;
    for (const auto &s : per_worker)
        total.merge(s);
    return total;
}

} // namespace sim
} // namespace wilis
