/**
 * @file
 * Model of the FPGA <-> host communication link that LEAP virtualizes
 * (section 2 "FPGA Virtualization", section 3: an FSB link with
 * bandwidth in excess of 700 MB/s). Transfers pay a fixed per-
 * transfer overhead plus a bandwidth-proportional cost, which is why
 * the latency-insensitive "large, pipelined transfers" of section 2
 * buy about an order of magnitude of throughput over lock-step
 * per-datum exchanges.
 */

#ifndef WILIS_PLATFORM_LINK_HH
#define WILIS_PLATFORM_LINK_HH

#include <cstdint>

namespace wilis {
namespace platform {

/** Bandwidth/overhead model of one link direction. */
class LinkModel
{
  public:
    /** Link parameters. */
    struct Params {
        /** Sustained bandwidth in MB/s (paper: >700 for FSB). */
        double bandwidthMBps = 700.0;
        /**
         * Fixed cost per transfer in microseconds (driver call,
         * doorbell, DMA setup).
         */
        double perTransferOverheadUs = 20.0;
    };

    LinkModel() : LinkModel(Params()) {}
    explicit LinkModel(const Params &p) : params(p) {}

    /** Modeled duration of one transfer of @p bytes, microseconds. */
    double transferUs(std::uint64_t bytes) const;

    /**
     * Effective streaming bandwidth in MB/s when data moves in
     * @p batch_bytes chunks.
     */
    double effectiveBandwidthMBps(std::uint64_t batch_bytes) const;

    /** Account a transfer (accumulates statistics). */
    void record(std::uint64_t bytes);

    /** Total bytes moved. */
    std::uint64_t totalBytes() const { return total_bytes; }
    /** Total transfers made. */
    std::uint64_t totalTransfers() const { return total_transfers; }
    /** Total modeled busy time in microseconds. */
    double busyUs() const { return busy_us; }

    /** Raw parameters. */
    const Params &config() const { return params; }

  private:
    Params params;
    std::uint64_t total_bytes = 0;
    std::uint64_t total_transfers = 0;
    double busy_us = 0.0;
};

} // namespace platform
} // namespace wilis

#endif // WILIS_PLATFORM_LINK_HH
