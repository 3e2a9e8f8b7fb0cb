/**
 * @file
 * Per-frame bump allocator backing the zero-copy dataflow between the
 * PHY, channel, decoder, SoftPHY and MAC layers.
 *
 * Every per-packet buffer (padded info bits, coded stream, soft
 * metrics, time-domain samples, decoder decisions...) is carved out
 * of one FrameArena owned by the packet driver (sim::Testbench, the
 * sweep harness, or a bench). The arena hands out std::span views
 * into its blocks; reset() rewinds it for the next packet while
 * keeping the memory, so after a one-packet warm-up the entire
 * transmit -> channel -> receive -> decode flow performs no heap
 * allocations at all. That is what lets a scenario-grid sweep push
 * millions of packets per worker thread without touching the
 * allocator (and without allocator contention across threads: one
 * arena per worker).
 */

#ifndef WILIS_COMMON_FRAME_ARENA_HH
#define WILIS_COMMON_FRAME_ARENA_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace wilis {

/** Growable bump allocator with per-frame reset. */
class FrameArena
{
  public:
    /**
     * @param initial_bytes Capacity of the first block. The block is
     * allocated lazily on first use, so an arena that is never
     * used costs nothing.
     */
    explicit FrameArena(size_t initial_bytes = kDefaultBytes);

    /** Arenas are move-only: views into a copy would be ambiguous. */
    FrameArena(const FrameArena &) = delete;
    /** Arenas are move-only: views into a copy would be ambiguous. */
    FrameArena &operator=(const FrameArena &) = delete;
    /** Moving transfers the blocks; outstanding views stay valid. */
    FrameArena(FrameArena &&) = default;
    /** Moving transfers the blocks; outstanding views stay valid. */
    FrameArena &operator=(FrameArena &&) = default;

    /**
     * Allocate an uninitialized span of @p count elements. The view
     * stays valid until the next reset(); T must be trivially
     * destructible (no destructors ever run).
     */
    template <typename T>
    std::span<T>
    alloc(size_t count)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena types must be trivially destructible");
        void *p = allocBytes(count * sizeof(T), alignof(T));
        return {static_cast<T *>(p), count};
    }

    /** Allocate a copy of @p src. */
    template <typename T>
    std::span<T>
    dup(std::span<const T> src)
    {
        std::span<T> s = alloc<T>(src.size());
        std::copy(src.begin(), src.end(), s.begin());
        return s;
    }

    /**
     * Rewind for the next frame. All outstanding spans become
     * invalid. If the previous frame overflowed into extra blocks,
     * they are coalesced into one block sized for the whole frame, so
     * a steady-state workload settles to zero allocations per frame.
     */
    void reset();

    /** Bytes handed out since the last reset (excluding padding). */
    size_t bytesUsed() const { return bytes_used; }

    /** Total bytes reserved across all blocks. */
    size_t capacity() const;

    /** Largest bytesUsed() observed over any frame. */
    size_t highWater() const { return high_water; }

    /**
     * Number of blocks ever requested from the heap. Stable across
     * frames once the arena has warmed up -- tests assert this to
     * prove the hot path is allocation-free.
     */
    std::uint64_t blockAllocations() const { return block_allocs; }

    /** Default first-block capacity (64 KiB). */
    static constexpr size_t kDefaultBytes = 1 << 16;

  private:
    struct Block {
        std::unique_ptr<std::byte[]> data;
        size_t size = 0;
    };

    void *allocBytes(size_t bytes, size_t align);
    void addBlock(size_t min_bytes);

    std::vector<Block> blocks;
    size_t initial_bytes;   // first-block size hint
    size_t block_idx = 0;   // block currently bumping
    size_t offset = 0;      // bump position within that block
    size_t bytes_used = 0;
    size_t high_water = 0;
    std::uint64_t block_allocs = 0;
};

/**
 * Per-packet dataflow context threaded through the transmitter,
 * channel, receiver, decoder and MAC hooks. Today it carries the
 * arena that owns every intermediate buffer of the frame; it is the
 * extension point for future per-frame metadata (timestamps,
 * SoftPHY annotations, trace sinks) without another signature churn.
 */
struct FrameContext {
    /** Bind the context to the arena owning this frame's buffers. */
    explicit FrameContext(FrameArena &arena_) : arena(arena_) {}

    /** The arena every intermediate buffer is carved from. */
    FrameArena &arena;
};

} // namespace wilis

#endif // WILIS_COMMON_FRAME_ARENA_HH
