#include "sim/sweep.hh"

#include <memory>
#include <thread>
#include <vector>

namespace wilis {
namespace sim {

int
sweepWorkerCount(int threads, std::uint64_t num_packets)
{
    int n = threads > 0
                ? threads
                : static_cast<int>(
                      std::max(1u, std::thread::hardware_concurrency()));
    return static_cast<int>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(n),
                                std::max<std::uint64_t>(num_packets, 1)));
}

void
sweepFrames(
    const ScenarioSpec &spec, std::uint64_t num_packets, int threads,
    const std::function<void(int, const FrameResult &, std::uint64_t)>
        &per_frame)
{
    const int n = sweepWorkerCount(threads, num_packets);

    // Static packet striding: worker t owns packets t, t+n, t+2n...
    // Every random stream is keyed by the packet index, so the
    // assignment of packets to workers is irrelevant to the results.
    auto worker = [&](int tid) {
        Testbench tb(spec);
        for (std::uint64_t p = static_cast<std::uint64_t>(tid);
             p < num_packets; p += static_cast<std::uint64_t>(n)) {
            FrameResult res = tb.runFrame(spec.payloadBits, p);
            per_frame(tid, res, p);
        }
    };

    if (n == 1) {
        worker(0);
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t)
        pool.emplace_back(worker, t);
    for (auto &th : pool)
        th.join();
}

ErrorStats
measureBer(const ScenarioSpec &spec, std::uint64_t num_packets,
           int threads)
{
    const int n = sweepWorkerCount(threads, num_packets);
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
