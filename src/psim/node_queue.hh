/**
 * @file
 * One partition of the parallel simulation kernel: a private
 * EventQueue (the pooled 4-ary heap from src/sim/event_queue.hh) plus
 * the inbound direct-post mailbox lanes, one per source partition.
 * (Arbitrated fabric sends live in ParallelSim's central lanes: they
 * mutate the shared channel state, so they are merged and run
 * single-threaded at the barrier, not per destination.)
 *
 * The owning worker drains the inboxes at the start of each window —
 * after the barrier, so every producer has quiesced — merging direct
 * posts in (deliverTick, srcPartition, seq) order before executing
 * local events. Merged insertions happen only at barriers and local
 * events are inserted in deterministic execution order, so the queue's
 * (tick, insertion-sequence) tie-break yields one schedule for every
 * worker count.
 *
 * It also keeps the earliest delivery tick of the posts its partition
 * *sent* that are not yet drained, so the next window's anchor costs
 * O(1) per partition (DESIGN.md "Fixed-width windows").
 */

#ifndef FAMSIM_PSIM_NODE_QUEUE_HH
#define FAMSIM_PSIM_NODE_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "psim/mailbox.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace famsim {

/** A partition's event queue and inbound mailboxes. */
class NodeQueue
{
  public:
    /**
     * @param id          partition index (also stamped on the queue).
     * @param partitions  total partition count (= inbound lane count).
     */
    NodeQueue(std::uint32_t id, std::uint32_t partitions)
        : id_(id), postIn_(partitions)
    {
        queue_.setId(id);
        // Ownership stamps for the FAMSIM_CHECK hooks: the queue
        // belongs to this partition; inbound lane src may only be
        // appended to by partition src. No-ops when compiled out.
        queue_.setCheckOwner(id);
        for (std::uint32_t src = 0; src < partitions; ++src)
            postIn_[src].setCheckProducer(src);
    }

    [[nodiscard]] std::uint32_t id() const { return id_; }
    [[nodiscard]] EventQueue& queue() { return queue_; }
    [[nodiscard]] const EventQueue& queue() const { return queue_; }

    /** Inbound direct-post lane from partition @p src (producer side). */
    [[nodiscard]] Mailbox<PostMsg>& postInbox(std::uint32_t src)
    {
        return postIn_[src];
    }

    /**
     * Record a post this partition sent, delivering at @p when
     * (ParallelSim::post: the owning partition, or the Barrier phase).
     */
    void
    notePost(Tick when)
    {
        FAMSIM_CHECK_MAILBOX(id_);
        sentMin_ = std::min(sentMin_, when);
    }

    /**
     * Forget the sent posts: every lane is drained this epoch (the
     * owning worker, at the top of its drain task).
     */
    void
    resetSentMin()
    {
        FAMSIM_CHECK_SENT_MIN_RESET(id_);
        sentMin_ = EventQueue::kForever;
    }

    /**
     * Earliest tick this partition holds work for: its queue head, or
     * the delivery of an undrained post it sent. Only meaningful at a
     * barrier; the minimum over all partitions anchors the next window.
     */
    [[nodiscard]] Tick
    minPendingTick() const
    {
        return std::min(queue_.nextTick(), sentMin_);
    }

    /**
     * Merge every inbound post into the local queue (owning worker,
     * right after a barrier), in (tick, srcPartition, seq) order.
     * @return messages merged (the trace's per-partition "drained"
     * counter track).
     */
    std::uint64_t
    drainInboxes()
    {
        scratch_.clear();
        for (std::uint32_t src = 0; src < postIn_.size(); ++src) {
            const auto& msgs = postIn_[src].messages();
            for (std::uint32_t i = 0; i < msgs.size(); ++i)
                scratch_.push_back({MergeKey{msgs[i].when, src, i}, i});
        }
        std::sort(scratch_.begin(), scratch_.end(),
                  [](const auto& a, const auto& b) {
                      return a.first < b.first;
                  });
        for (const auto& [key, idx] : scratch_) {
            PostMsg& msg = postIn_[key.src].messages()[idx];
            FAMSIM_ASSERT(msg.when >= queue_.curTick(),
                          "cross-partition post into the past");
            queue_.schedule(msg.when, std::move(msg.fn));
        }
        for (auto& lane : postIn_)
            lane.clear();
        return static_cast<std::uint64_t>(scratch_.size());
    }

  private:
    /** Deterministic merge key: (tick, srcPartition, seq). */
    struct MergeKey {
        Tick tick;
        std::uint32_t src;
        std::uint32_t seq;

        bool
        operator<(const MergeKey& other) const
        {
            if (tick != other.tick)
                return tick < other.tick;
            if (src != other.src)
                return src < other.src;
            return seq < other.seq;
        }
    };

    std::uint32_t id_;
    EventQueue queue_;
    /** Inbound lanes indexed by source partition. */
    std::vector<Mailbox<PostMsg>> postIn_;
    /** Earliest delivery tick of this partition's undrained posts. */
    Tick sentMin_ = EventQueue::kForever;
    /** Merge scratch, reused across barriers. */
    std::vector<std::pair<MergeKey, std::uint32_t>> scratch_;
};

} // namespace famsim

#endif // FAMSIM_PSIM_NODE_QUEUE_HH
