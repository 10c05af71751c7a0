/**
 * @file
 * SyncWindow — conservative-window bookkeeping for the parallel
 * kernel.
 *
 * The kernel advances in fixed-width windows. The width is the smallest
 * latency any cross-partition interaction can have (the fabric's
 * one-way latency for request/response traffic, the broker's fault
 * service latency for system-level faults). A partition executing
 * events in [start, start + lookahead) can only generate
 * cross-partition work at or after start + lookahead, i.e. in a later
 * window — so all partitions can execute one window concurrently with
 * no locks, and cross-partition sends only need arbitrating at the
 * window barriers (the classic null-message-free windowed conservative
 * PDES scheme).
 *
 * Windows are anchored at the global minimum pending tick, so idle
 * stretches of simulated time are skipped in one hop. A pending global
 * barrier op caps the window end at its due tick, so the op runs at
 * the barrier that opens the window at its due.
 *
 * Arithmetic near the Tick horizon saturates: next_pending + lookahead
 * must never wrap (a wrapped end would open a backwards window), so
 * satAdd() clamps at the maximum representable tick.
 */

#ifndef FAMSIM_PSIM_SYNC_WINDOW_HH
#define FAMSIM_PSIM_SYNC_WINDOW_HH

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace famsim {

/** Window/epoch bookkeeping for the conservative kernel. */
class SyncWindow
{
  public:
    /** The largest representable tick (saturation ceiling). */
    static constexpr Tick kTickMax = kTickForever;

    explicit SyncWindow(Tick lookahead) : lookahead_(lookahead)
    {
        FAMSIM_ASSERT(lookahead > 0,
                      "conservative window needs positive lookahead");
    }

    /** Saturating tick addition: clamps at kTickMax instead of wrapping. */
    [[nodiscard]] static constexpr Tick
    satAdd(Tick a, Tick b)
    {
        return a > kTickMax - b ? kTickMax : a + b;
    }

    /** The window width (the smallest cross-partition edge). */
    [[nodiscard]] Tick lookahead() const { return lookahead_; }

    /** Completed windows so far (the epoch counter). */
    [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

    /** Half-open tick range of one window. */
    struct Bounds {
        Tick start;
        Tick end; //!< exclusive
    };

    /**
     * Open the next window at the global minimum pending tick
     * @p next_pending: [next_pending, min(next_pending + lookahead,
     * @p cap)), the end saturated at the tick horizon, and bump the
     * epoch. @p cap is the first global-op due after @p next_pending
     * (kTickMax when none). Windows never move backwards and are never
     * empty.
     */
    [[nodiscard]] Bounds
    open(Tick next_pending, Tick cap = kTickMax)
    {
        FAMSIM_ASSERT(next_pending >= current_.start,
                      "window moved backwards: ", next_pending, " < ",
                      current_.start);
        const Tick end = std::min(satAdd(next_pending, lookahead_), cap);
        FAMSIM_ASSERT(end > next_pending, "empty window: end ", end,
                      " <= start ", next_pending);
        ++epoch_;
        current_ = Bounds{next_pending, end};
        return current_;
    }

    /** Bounds of the most recently opened window. */
    [[nodiscard]] const Bounds& current() const { return current_; }

  private:
    Tick lookahead_;
    std::uint64_t epoch_ = 0;
    Bounds current_{0, 0};
};

} // namespace famsim

#endif // FAMSIM_PSIM_SYNC_WINDOW_HH
