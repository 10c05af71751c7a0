/**
 * @file
 * Whole-system assembly: builds an E-FAM, I-FAM, DeACT-W or DeACT-N
 * system (Fig. 2 / Fig. 6) out of the substrate components and runs a
 * workload on it.
 *
 * This is the library's main entry point: construct a SystemConfig,
 * build a System, call run(), read the metrics.
 */

#ifndef FAMSIM_ARCH_SYSTEM_HH
#define FAMSIM_ARCH_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_level.hh"
#include "deact/fam_translator.hh"
#include "fabric/fabric_link.hh"
#include "fam/acm.hh"
#include "fam/broker.hh"
#include "fam/fam_media.hh"
#include "node/core.hh"
#include "node/mem_ctrl.hh"
#include "sim/simulation.hh"
#include "stu/stu.hh"
#include "vm/node_os.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"
#include "workload/multi_tenant.hh"
#include "workload/stream_gen.hh"

namespace famsim {

/** The four architectures compared in the paper. */
enum class ArchKind : std::uint8_t { EFam, IFam, DeactW, DeactN };

/** @return printable name of an architecture. */
[[nodiscard]] constexpr const char*
toString(ArchKind arch)
{
    switch (arch) {
      case ArchKind::EFam: return "E-FAM";
      case ArchKind::IFam: return "I-FAM";
      case ArchKind::DeactW: return "DeACT-W";
      case ArchKind::DeactN: return "DeACT-N";
    }
    return "?";
}

/**
 * One scheduled broker migration, fired when the lead core (node 0,
 * core 0) crosses @c atInstruction retired instructions — mid-run, so
 * traffic from every node is in flight when the broker rebinds the
 * job. See MemoryBroker::migrateJob for the two id-rebinding paths.
 */
struct MigrationEvent {
    std::uint64_t atInstruction = 0;
    NodeId from = 0;
    NodeId to = 0;
    /** True: swap logical ids (cheap path). False: rewrite the ACM. */
    bool useLogicalIds = true;
};

/** Complete system configuration (defaults reproduce Table II). */
struct SystemConfig {
    ArchKind arch = ArchKind::DeactN;
    unsigned nodes = 1;
    unsigned coresPerNode = 4;
    std::uint64_t seed = 1;

    CoreParams core{};
    TwoLevelTlb::Params tlb{};
    CacheParams l1{32 * 1024, 8, 1 * kNanosecond, ReplPolicy::Lru};
    CacheParams l2{256 * 1024, 8, 6 * kNanosecond, ReplPolicy::Lru};
    CacheParams l3{1024 * 1024, 16, 15 * kNanosecond, ReplPolicy::Lru};
    std::size_t ptwCacheEntries = 32;

    NodeOsParams os{};
    BankedMemoryParams dram{16, 45 * kNanosecond, 45 * kNanosecond,
                            5 * kNanosecond, 0};
    FamMediaParams fam{};
    FabricParams fabric{};
    StuParams stu{};
    FamTranslatorParams translator{};
    BrokerParams broker{};

    /** Workload run (identically, rate-mode) on every core. */
    StreamProfile profile = profiles::byName("mcf");

    /**
     * Multi-tenant knobs: tenancy.jobs > 1 replaces each core's
     * StreamGen with a MultiTenantWorkload over @ref profile and turns
     * on per-job attribution tables across the stack (jobs.mem_ops,
     * fam.job_requests, per-node STU tables, broker.job_faults). The
     * default (1 job) leaves workloads, stats and goldens untouched.
     */
    TenancyParams tenancy{};
    /** Broker migrations fired at lead-core instruction thresholds. */
    std::vector<MigrationEvent> migrations;

    /**
     * Optional per-core workload source. When set, it is invoked for
     * every (node, core) during construction; returning null falls
     * back to the default synthetic StreamGen over @ref profile —
     * which is how trace replay targets a single core while the rest
     * keep their synthetic streams. The factory must be deterministic
     * (it is part of the simulated configuration: scenario goldens and
     * the parallel kernel's 1-vs-N byte identity both depend on it).
     */
    using WorkloadFactory =
        std::function<std::unique_ptr<WorkloadGen>(unsigned node,
                                                   unsigned core)>;
    WorkloadFactory workloadFactory;

    /** Pre-map the whole footprint before timing (steady state). */
    bool prefault = true;
    /** Fraction of instructions treated as warmup (stats discarded). */
    double warmupFraction = 0.1;

    /**
     * Register the per-stage latency-breakdown histograms (STU queue
     * wait, translation, fabric, media service — with JSON
     * percentiles). Off by default: the stats registry, and with it
     * every pre-existing golden, is bit-identical to a build without
     * the observability layer. Orthogonal to tracing/profiling, which
     * attach per-run (System::attachTrace / attachProfiler).
     */
    bool observability = false;

    /** Apply the architecture-specific derived settings. */
    void finalize();
};

/** One compute node's hardware. */
struct NodeParts {
    std::unique_ptr<NodeOs> os;
    std::unique_ptr<BankedMemory> dram;
    std::unique_ptr<Stu> stu;                 //!< null in E-FAM
    std::unique_ptr<FamTranslator> translator; //!< DeACT only
    std::unique_ptr<MemSink> famPath;
    std::unique_ptr<MemController> memCtrl;
    std::unique_ptr<CacheLevel> l3;

    struct CoreParts {
        std::unique_ptr<WorkloadGen> workload;
        std::unique_ptr<TwoLevelTlb> tlb;
        std::unique_ptr<PtwCache> ptwCache;
        std::unique_ptr<NodePtWalker> walker;
        std::unique_ptr<CacheLevel> l2;
        std::unique_ptr<CacheLevel> l1;
        std::unique_ptr<Core> core;
    };
    std::vector<CoreParts> cores;
};

/** A complete simulated FAM system. */
class System
{
  public:
    explicit System(SystemConfig config);

    /**
     * Run every core to its instruction limit (with warmup).
     *
     * @param threads 0 (default) runs the original serial event loop —
     *        the golden-pinned reference path. 1 or more runs the
     *        conservative-window parallel kernel (src/psim/): one
     *        partition per node, one per FAM media module, and one for
     *        the broker, synchronized through a per-edge lookahead
     *        matrix (node<->media edges at the fabric latency, broker
     *        edges at the fault service latency) with adaptive window
     *        widening. Results are byte-identical across thread counts
     *        >= 1 (the kernel's schedule is deterministic) but
     *        intentionally not identical to the serial schedule — see
     *        DESIGN.md "Parallel kernel".
     */
    void run(unsigned threads = 0);

    // -- metrics (measurement window) -----------------------------------

    /** System IPC: sum of per-core window IPCs. */
    [[nodiscard]] double ipc() const;
    /** % of requests at FAM that are address translation (Fig. 4/11). */
    [[nodiscard]] double famAtPercent() const;
    /** FAM address-translation hit rate (Fig. 10). */
    [[nodiscard]] double translationHitRate() const;
    /** ACM hit rate at the STU (Fig. 9). */
    [[nodiscard]] double acmHitRate() const;
    /** LLC misses per kilo-instruction (Table III check). */
    [[nodiscard]] double mpki() const;
    /**
     * Simulated run length: the latest per-core completion time. Valid
     * after both kernels (the parallel run leaves the global clock at
     * its last barrier, but per-core local times always reach the end
     * of the run) and deterministic across thread counts.
     */
    [[nodiscard]] Tick elapsedTicks() const;

    /** Windows (= barrier rounds) of the last parallel run; 0 after a
     *  serial run. The cadence metric behind the fig16 scaling rows in
     *  BENCH_hotpath.json. */
    [[nodiscard]] std::uint64_t parallelWindows() const
    {
        return parallelWindows_;
    }
    /** Of those, windows the adaptive horizon opened wider than the
     *  base lookahead. */
    [[nodiscard]] std::uint64_t parallelWidenedWindows() const
    {
        return parallelWidenedWindows_;
    }

    /**
     * Attach a Chrome trace sink for subsequent run() calls (null
     * detaches). The sink must have one lane per psim partition —
     * nodes + FAM media modules + 1 — see traceLanes(); this also
     * names the lanes. Caller keeps ownership and must outlive the
     * run.
     */
    void attachTrace(TraceSink* trace);

    /** Lane count a TraceSink for this System needs. */
    [[nodiscard]] std::uint32_t traceLanes() const;

    /**
     * Attach a wall-clock profiler for subsequent run() calls (null
     * detaches). Caller keeps ownership; results are host-timing and
     * nondeterministic (see sim/profiler.hh).
     */
    void attachProfiler(Profiler* profiler);

    [[nodiscard]] Simulation& sim() { return sim_; }
    [[nodiscard]] const SystemConfig& config() const { return config_; }
    [[nodiscard]] NodeParts& node(unsigned i) { return *nodes_[i]; }
    [[nodiscard]] MemoryBroker& broker() { return *broker_; }
    [[nodiscard]] FamMedia& media() { return *media_; }
    [[nodiscard]] AcmStore& acm() { return *acm_; }
    [[nodiscard]] FamLayout& layout() { return *layout_; }

  private:
    void buildNode(unsigned index);
    void prefaultNode(unsigned index);
    void runSerial();
    void runParallel(unsigned threads);
    /**
     * Run one scheduled migration: rebind at the broker, then refresh
     * every core's cached logical id. @p emit_at is the global barrier
     * op's due tick under the parallel kernel, 0 on the serial path.
     */
    void executeMigration(const MigrationEvent& event, Tick emit_at);
    [[nodiscard]] std::uint64_t warmupInstructions() const;

    SystemConfig config_;
    Simulation sim_;

    std::unique_ptr<FamLayout> layout_;
    std::unique_ptr<AcmStore> acm_;
    std::unique_ptr<FamMedia> media_;
    std::unique_ptr<FabricLink> fabric_;
    std::unique_ptr<MemoryBroker> broker_;
    std::vector<std::unique_ptr<NodeParts>> nodes_;

    /** Per-job issued-ops table (registered when tenancy.jobs > 1). */
    JobStatTable* jobOps_ = nullptr;

    unsigned finished_ = 0;
    std::uint64_t parallelWindows_ = 0;
    std::uint64_t parallelWidenedWindows_ = 0;
};

} // namespace famsim

#endif // FAMSIM_ARCH_SYSTEM_HH
