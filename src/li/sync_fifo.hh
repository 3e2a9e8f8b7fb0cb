/**
 * @file
 * Cross-clock-domain synchronizing FIFO.
 *
 * When WiLIS connects two modules in different clock domains it
 * automatically inserts a synchronizer (section 2, "Automatic
 * Multi-Clock Support", extending SoftConnections with clock
 * information). We model the standard two-flop synchronizer cost: an
 * element enqueued at time t is not visible at the consumer before
 * t + 2 consumer clock periods.
 */

#ifndef WILIS_LI_SYNC_FIFO_HH
#define WILIS_LI_SYNC_FIFO_HH

#include <deque>

#include "li/clock.hh"
#include "li/fifo.hh"

namespace wilis {
namespace li {

/**
 * Typed FIFO whose elements become visible only after a fixed
 * crossing latency, measured against an externally owned time source.
 */
template <typename T>
class SyncFifo : public Fifo<T>
{
  public:
    /**
     * @param name_       Instance name.
     * @param capacity_   Buffer capacity.
     * @param now_        Pointer to the scheduler's simulated time.
     * @param latency_ps_ Crossing latency in picoseconds.
     */
    SyncFifo(std::string name_, size_t capacity_, const SimTime *now_,
             SimTime latency_ps_)
        : Fifo<T>(std::move(name_), capacity_), now(now_),
          latency_ps(latency_ps_)
    {}

    bool
    canDeq() const override
    {
        return !this->buf.empty() && stamps.front() + latency_ps <= *now;
    }

    void
    enq(T value) override
    {
        stamps.push_back(*now);
        Fifo<T>::enq(std::move(value));
    }

    T
    deq() override
    {
        wilis_assert(canDeq(), "deq on sync FIFO '%s' before element "
                     "crossed domains", this->name().c_str());
        // Dequeue the payload before dropping the timestamp: the base
        // class re-checks canDeq(), which consults stamps.front().
        T v = Fifo<T>::deq();
        stamps.pop_front();
        return v;
    }

  private:
    std::deque<SimTime> stamps;
    const SimTime *now;
    SimTime latency_ps;
};

} // namespace li
} // namespace wilis

#endif // WILIS_LI_SYNC_FIFO_HH
