/**
 * @file
 * The memory broker — our reimplementation of Opal [30], the
 * centralized system-level memory manager for the FAM pool.
 *
 * Responsibilities (§II-C, §III, §VI):
 *  - allocate FAM pages to nodes (allocation is deliberately scattered
 *    across the pool, as happens when many nodes allocate concurrently;
 *    this is what defeats DeACT-W's contiguous ACM caching, Fig. 9);
 *  - maintain the per-node system-level (NPA -> FAM) page tables, whose
 *    table pages live *in* FAM so walking them costs fabric round trips;
 *  - write ACM entries and shared-region bitmaps;
 *  - manage shared 1 GB regions with per-node permissions;
 *  - migrate jobs between nodes, either by rewriting ACM ownership or
 *    cheaply via logical node ids (§VI "Page Migration").
 */

#ifndef FAMSIM_FAM_BROKER_HH
#define FAMSIM_FAM_BROKER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fam/acm.hh"
#include "fam/fam_media.hh"
#include "sim/simulation.hh"
#include "vm/page_table.hh"

namespace famsim {

class ParallelSim; // src/psim/parallel_sim.hh

/** Broker configuration. */
struct BrokerParams {
    /** Service latency for a system-level page fault (queue + handler). */
    Tick serviceLatency = 2 * kMicrosecond;
    /** Extra latency for an E-FAM OS-to-broker allocation round trip. */
    Tick exposedRttLatency = 3 * kMicrosecond;
    /**
     * Scatter allocations pseudo-randomly across the pool (true models
     * a busy multi-tenant pool; false gives each node contiguous pages,
     * used by the DeACT-W ablation).
     */
    bool scatterAllocation = true;
    /** Bytes at the top of usable space reserved for shared regions. */
    std::uint64_t sharedReserveBytes = std::uint64_t{2} << 30;
    /**
     * Tenant jobs sharing the system (SystemConfig::tenancy.jobs).
     * > 1 registers the per-job fault attribution table.
     */
    unsigned jobs = 1;
};

/**
 * Centralized FAM manager. One instance per memory pool / system.
 */
class MemoryBroker : public Component
{
  public:
    MemoryBroker(Simulation& sim, const std::string& name,
                 const BrokerParams& params, FamLayout& layout,
                 AcmStore& acm, FamMedia* media = nullptr);

    /** Register a physical node; assigns its initial logical id. */
    void registerNode(NodeId phys);

    /** Logical id currently bound to physical node @p phys. */
    [[nodiscard]] NodeId logicalIdOf(NodeId phys) const;

    /**
     * Immediately allocate a FAM page owned by @p logical_node
     * (functional; used at E-FAM OS fault time and by tests).
     */
    std::uint64_t allocPage(NodeId logical_node, Perms perms);

    /**
     * Handle a system-level fault: NPA page @p npa_page of @p phys_node
     * has no FAM mapping. After the service latency the broker
     * allocates a page, installs the FAM PTE + ACM entry (generating
     * FAM write traffic) and invokes @p done with the FAM page.
     * @p job attributes the fault to its tenant (multi-tenant runs).
     */
    void handleUnmapped(NodeId phys_node, std::uint64_t npa_page,
                        std::function<void(std::uint64_t fam_page)> done,
                        JobId job = 0);

    /** System-level page table for @p phys_node (NPA page -> FAM page). */
    [[nodiscard]] HierarchicalPageTable& famTableOf(NodeId phys_node);

    // -- Shared 1 GB regions -------------------------------------------

    /** Reserve a shared 1 GB region; grants access to @p members. */
    std::uint64_t createSharedRegion(
        const std::vector<std::pair<NodeId, Perms>>& members);

    /**
     * Allocate one page inside shared region @p region and map it for
     * @p phys_node at @p npa_page. All its ACM node-id bits are set to
     * the shared marker (§III-A).
     */
    std::uint64_t mapSharedPage(std::uint64_t region, NodeId phys_node,
                                std::uint64_t npa_page);

    /** Map an existing shared page for another node. */
    void attachSharedPage(std::uint64_t fam_page, NodeId phys_node,
                          std::uint64_t npa_page);

    // -- Job migration (§VI) -------------------------------------------

    /** Listener invoked when mappings of a node must be shot down. */
    using InvalidateFn = std::function<void(NodeId phys_node)>;

    /** Register a cache shootdown listener (STU / FAM translator). */
    void addInvalidateListener(InvalidateFn fn);

    /** Cost accounting of a migration. */
    struct MigrationReport {
        std::size_t pagesMoved = 0;
        std::size_t acmWrites = 0;
        std::size_t mappingsMoved = 0;
        bool usedLogicalIds = false;
    };

    /**
     * Move the job on @p from to @p to. With @p use_logical_ids the ACM
     * is untouched (the logical id follows the job); otherwise every
     * owned page's ACM entry is rewritten. @p to is registered on the
     * fly if it never faulted before; @p from must be registered.
     *
     * Under the parallel kernel this must be called from a global
     * barrier op, with @p emit_at the op's due tick: the ACM rewrite
     * traffic is then scheduled onto the owning media partitions at
     * that tick instead of accessing the media directly (which would
     * run outside its owning partition). Serial callers leave
     * @p emit_at at 0.
     */
    MigrationReport migrateJob(NodeId from, NodeId to,
                               bool use_logical_ids, Tick emit_at = 0);

    [[nodiscard]] const BrokerParams& params() const { return params_; }
    [[nodiscard]] std::uint64_t pagesAllocated() const
    {
        return pagesAllocated_;
    }

  private:
    std::uint64_t nextScatteredPage();

    /** Emit one bookkeeping FAM write of @p block now (media_ set). */
    void emitBrokerWrite(NodeId node, FamAddr block);
    /** Block address of @p node's leaf FAM PTE for @p npa_page. */
    std::optional<FamAddr> pteWriteBlock(NodeId node,
                                         std::uint64_t npa_page);

    /**
     * How a bookkeeping write reaches the media: immediately on the
     * serial path, scheduled onto the owning media partition at the
     * fault's due tick on the parallel path. Parameterizing the emit
     * keeps the counting/guard logic in one place for both.
     */
    using BrokerWriteEmit = std::function<void(NodeId, FamAddr)>;

    void writeAcmTraffic(std::uint64_t fam_page);
    void writeAcmTraffic(std::uint64_t fam_page,
                         const BrokerWriteEmit& emit);
    void writePteTraffic(NodeId node, std::uint64_t npa_page);
    void writePteTraffic(NodeId node, std::uint64_t npa_page,
                         const BrokerWriteEmit& emit);

    /**
     * Parallel-kernel flavor of the bookkeeping FAM writes: from a
     * global barrier op, schedule the write of @p block at @p when on
     * the media partition that owns the target module (the workers
     * are quiescent, so cross-queue scheduling is safe).
     */
    void scheduleBrokerWrite(ParallelSim& psim, NodeId node,
                             FamAddr block, Tick when);

    BrokerParams params_;
    FamLayout& layout_;
    AcmStore& acm_;
    FamMedia* media_;

    std::uint64_t allocCursor_ = 0;
    std::uint64_t allocatablePages_ = 0;
    std::uint64_t scatterStride_ = 0;
    std::uint64_t pagesAllocated_ = 0;

    /** Bump allocator for shared regions (grows down from the top). */
    std::uint64_t nextSharedRegionBase_ = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> sharedRegionCursor_;

    std::unordered_map<NodeId, NodeId> logicalIds_;
    NodeId nextLogicalId_ = 0;
    std::unordered_map<NodeId, std::unique_ptr<HierarchicalPageTable>>
        famTables_;
    std::vector<InvalidateFn> invalidateListeners_;

    Counter& faults_;
    Counter& pagesStat_;
    Counter& acmWrites_;
    Counter& pteWrites_;
    Counter& migrations_;
    /** Per-job fault attribution (null when single-tenant). */
    JobStatTable* jobFaults_ = nullptr;
};

} // namespace famsim

#endif // FAMSIM_FAM_BROKER_HH
