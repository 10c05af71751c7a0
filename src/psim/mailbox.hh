/**
 * @file
 * Cross-partition mailboxes for the parallel simulation kernel.
 *
 * Every ordered pair of partitions (src, dst) owns one Mailbox lane
 * per message kind. A lane is single-producer (only the worker thread
 * currently draining the src partition appends) and is consumed only
 * at window barriers, after every producer has quiesced — the barrier
 * itself provides the happens-before edge, so a lane needs no locks
 * and no atomics at all. A lane keeps no minimum: the earliest
 * undrained delivery tick is tracked once per *source* partition
 * (NodeQueue::notePost), where the posts are made.
 *
 * Determinism: messages in one lane sit in source execution order, so
 * the vector index doubles as the per-source sequence number. The
 * consumer merges all of its inbound lanes in (tick, srcPartition,
 * seq) order (see NodeQueue::drainInboxes), which makes the schedule
 * independent of worker count and thread interleaving.
 *
 * Payloads are InlineFunction, not std::function: std::function's
 * 16-byte inline buffer heap-allocated once per fabric crossing for
 * every delivery capture bigger than a pointer. The kMailboxInlineBytes
 * budget keeps the common continuations (a component pointer plus a
 * PktPtr, or a wrapped done-functor) in place; oversized chains fall
 * back to one heap block, exactly as std::function always did.
 */

#ifndef FAMSIM_PSIM_MAILBOX_HH
#define FAMSIM_PSIM_MAILBOX_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/check.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace famsim {

/** Inline capture budget for cross-partition message payloads. */
inline constexpr std::size_t kMailboxInlineBytes = 144;

/** Payload of a direct cross-partition post. */
using PostFn = InlineFunction<void(), kMailboxInlineBytes>;

/** Payload of an arbitrated send (receives the sender's tick). */
using ArbFn = InlineFunction<void(Tick), kMailboxInlineBytes>;

/** A cross-partition event with a precomputed delivery tick. */
struct PostMsg {
    /** Absolute delivery tick (>= send tick + the edge lookahead). */
    Tick when = 0;
    PostFn fn;
};

/** One single-producer, barrier-drained message lane. */
template <typename Msg>
class Mailbox
{
  public:
    /** Append @p msg (producer side, src partition's worker only). */
    void
    push(Msg msg)
    {
        FAMSIM_CHECK_MAILBOX(checkProducer_);
        msgs_.push_back(std::move(msg));
    }

    /**
     * Stamp the lane's single producer partition for the FAMSIM_CHECK
     * ownership hooks (NodeQueue, at wiring). No-op when the checker
     * is compiled out; unstamped lanes are never checked.
     */
    void
    setCheckProducer(std::uint32_t producer)
    {
#if FAMSIM_CHECK
        checkProducer_ = producer;
#else
        (void)producer;
#endif
    }

    /** Pending messages, in send order (consumer side, at a barrier). */
    [[nodiscard]] std::vector<Msg>& messages() { return msgs_; }

    /** Drop all messages, keeping capacity (consumer, at a barrier). */
    void clear() { msgs_.clear(); }

  private:
    std::vector<Msg> msgs_;
#if FAMSIM_CHECK
    /** The lane's single legal producer; kUnowned = unchecked. */
    std::uint32_t checkProducer_ = check::kUnowned;
#endif
};

} // namespace famsim

#endif // FAMSIM_PSIM_MAILBOX_HH
