/**
 * @file
 * The FAM media: one or more NVM modules (memory pools) behind the
 * fabric, page-interleaved. Aggregates the AT / non-AT request
 * accounting used by Fig. 4 and Fig. 11.
 */

#ifndef FAMSIM_FAM_FAM_MEDIA_HH
#define FAMSIM_FAM_FAM_MEDIA_HH

#include <memory>
#include <string>
#include <vector>

#include "mem/banked_memory.hh"
#include "mem/packet.hh"
#include "sim/check.hh"
#include "sim/simulation.hh"

namespace famsim {

/** FAM media configuration (Table II: 16 GB NVM, 60/150 ns, 32 banks). */
struct FamMediaParams {
    std::uint64_t capacityBytes = std::uint64_t{16} << 30;
    unsigned modules = 1;
    /** Interleave granularity across modules. */
    std::uint64_t interleaveBytes = kPageSize;
    BankedMemoryParams nvm{
        .banks = 32,
        .readLatency = 60 * kNanosecond,
        .writeLatency = 150 * kNanosecond,
        .frontendLatency = 5 * kNanosecond,
        .maxOutstanding = 128,
    };
    /**
     * Tenant jobs sharing the pool (SystemConfig::tenancy.jobs).
     * > 1 registers the per-job request attribution tables.
     */
    unsigned jobs = 1;
    /**
     * psim partition of module 0 (module m is owned by partitionBase
     * + m; the media partitions sit after the node partitions). Set by
     * SystemConfig::finalize; the default leaves the per-module stats
     * unstamped for the FAMSIM_CHECK ownership hooks (serial-only
     * fixtures that construct a FamMedia directly).
     */
    std::uint32_t partitionBase = check::kUnowned;
};

/** The fabric-attached NVM pool(s). Accessed with FAM addresses. */
class FamMedia : public Component
{
  public:
    FamMedia(Simulation& sim, const std::string& name,
             const FamMediaParams& params);

    /**
     * Service @p pkt (pkt->fam must be valid). Under the parallel
     * kernel the caller must be executing on the partition that owns
     * the target module (asserted): requests arrive via the fabric's
     * arbitrated delivery, broker bookkeeping via barrier-op
     * scheduling, both of which route by moduleOf().
     */
    void access(const PktPtr& pkt);

    /** Module owning FAM address @p fam_addr (page interleaving). */
    [[nodiscard]] unsigned
    moduleOf(std::uint64_t fam_addr) const
    {
        return static_cast<unsigned>(
            (fam_addr / params_.interleaveBytes) % modules_.size());
    }

    [[nodiscard]] const FamMediaParams& params() const { return params_; }
    [[nodiscard]] BankedMemory& module(unsigned i) { return *modules_[i]; }
    [[nodiscard]] unsigned numModules() const
    {
        return static_cast<unsigned>(modules_.size());
    }

    /**
     * Base trace-lane id of module 0 (= node count: media lanes sit
     * after the node lanes, mirroring the psim partition layout). Set
     * once by System; module @c m emits on lane base + m.
     */
    void setTraceLaneBase(std::uint32_t base) { traceLaneBase_ = base; }

    /** Total requests observed (for Fig. 4 / Fig. 11 percentages). */
    [[nodiscard]] std::uint64_t totalRequests() const
    {
        return total_.value();
    }
    /** Address-translation requests observed. */
    [[nodiscard]] std::uint64_t atRequests() const { return at_.value(); }

  private:
    FamMediaParams params_;
    std::vector<std::unique_ptr<BankedMemory>> modules_;
    // The classification aggregates span every media module, and the
    // sharded parallel kernel runs each module on its own partition —
    // SharedCounter (relaxed atomic) keeps the concurrent bumps safe;
    // the totals are sums, so they stay thread-count-deterministic.
    SharedCounter& total_;
    SharedCounter& at_;
    SharedCounter& data_;
    SharedCounter& famPtw_;
    SharedCounter& acm_;
    SharedCounter& bitmap_;
    SharedCounter& nodePtw_;
    SharedCounter& broker_;
    // Per-job attribution: same relaxed-atomic order-independence
    // argument as the SharedCounters above; null when single-tenant so
    // the default hot path carries no extra bump.
    JobStatTable* jobRequests_ = nullptr;
    JobStatTable* jobAt_ = nullptr;
    /**
     * Per-module fabric-latency histograms (observability); empty when
     * off. Per module — not one shared Histogram — because each module
     * samples from its own psim partition and Histogram is not
     * thread-safe.
     */
    std::vector<Histogram*> obsFabric_;
    std::uint32_t traceLaneBase_ = 0;
};

} // namespace famsim

#endif // FAMSIM_FAM_FAM_MEDIA_HH
