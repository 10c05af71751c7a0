/**
 * @file
 * Micro probes: the public function of each layer that the per-layer
 * metrics name, timed from the benchmark's own files. Every probe is
 * sized to run for tens of milliseconds per repeat and reports the
 * median of its repeats in ns per operation.
 */

#include <filesystem>
#include <functional>
#include <memory>

#include "cache/set_assoc.hh"
#include "fam/acm.hh"
#include "mem/packet.hh"
#include "psim/worker_pool.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "vm/tlb.hh"
#include "workload/multi_tenant.hh"
#include "workload/stream_gen.hh"
#include "workload/trace.hh"

#include "perfbench.hh"

using namespace famsim;

namespace perfbench {

namespace {

constexpr int kRepeats = 5;

/** Keeps probe results observable so loops are not folded away. */
volatile std::uint64_t g_sink = 0;

/** Median ns per op of @p fn (which performs @p ops operations). */
double
nsPerOp(Spans& spans, const std::string& name, std::uint64_t ops,
        const std::function<void()>& fn)
{
    std::vector<double> ns;
    for (int rep = 0; rep < kRepeats; ++rep) {
        SpanScope span(spans, "probe." + name);
        fn();
        ns.push_back(span.stop() * 1e9 / static_cast<double>(ops));
    }
    return median(ns);
}

/** Random keys below @p bound, drawn once outside the timed loops. */
std::vector<std::uint64_t>
randomKeys(std::uint64_t seed, std::size_t count, std::uint32_t bound)
{
    Rng rng(seed, 17);
    std::vector<std::uint64_t> keys(count);
    for (auto& k : keys)
        k = rng.below(bound);
    return keys;
}

/** Self-rescheduling event chain (the components' own pattern). */
struct Chain {
    EventQueue* q;
    std::uint64_t* scheduled;
    std::uint64_t budget;

    void
    operator()() const
    {
        if (++*scheduled < budget)
            q->scheduleAfter(7, Chain{q, scheduled, budget});
    }
};

} // namespace

void
runProbes(Spans& spans, const std::string& scratch_dir, Metrics& out)
{
    const std::uint64_t kOps = 2'000'000;
    SpanScope all(spans, "probes");

    // sim: EventQueue schedule + runOne.
    out.push_back({"sim.eventq_ns_per_op",
                   nsPerOp(spans, "eventq", kOps, [&] {
                       EventQueue q;
                       std::uint64_t scheduled = 0;
                       for (int i = 0; i < 64; ++i)
                           q.schedule(static_cast<Tick>(i),
                                      Chain{&q, &scheduled, kOps});
                       while (q.runOne()) {
                       }
                       g_sink = g_sink + q.executed();
                   }),
                   "ns"});

    // cache: SetAssocCache lookups at the STU geometry (1024 entries,
    // 8 ways), keys over twice its capacity so hits and misses mix.
    {
        SetAssocCache<std::uint64_t> cache(128, 8, ReplPolicy::Lru, 1);
        for (std::uint64_t k = 0; k < 2048; ++k)
            cache.insert(k, k);
        const auto keys = randomKeys(1, kOps, 2048);
        out.push_back({"cache.lookup_ns",
                       nsPerOp(spans, "cache.lookup", kOps, [&] {
                           std::uint64_t sink = 0;
                           for (std::uint64_t k : keys) {
                               const std::uint64_t* v = cache.lookup(k);
                               sink += v ? *v : 1;
                           }
                           g_sink = g_sink + sink;
                       }),
                       "ns"});
    }

    // vm: two-level TLB lookups (Table II geometry) over 512 pages.
    {
        Simulation sim(1);
        TwoLevelTlb tlb(sim, "probe.tlb", TwoLevelTlb::Params{});
        for (std::uint64_t p = 0; p < 512; ++p)
            tlb.insert(p, TlbEntry{p + 1, Perms{}});
        const auto keys = randomKeys(2, kOps, 512);
        out.push_back({"vm.tlb_lookup_ns",
                       nsPerOp(spans, "vm.tlb_lookup", kOps, [&] {
                           std::uint64_t sink = 0;
                           for (std::uint64_t k : keys)
                               sink += tlb.lookup(k).latency;
                           g_sink = g_sink + sink;
                       }),
                       "ns"});
    }

    // workload: synthetic mcf stream and a churning 4-tenant mix.
    {
        StreamGen gen(profiles::byName("mcf"), kWorkloadVaBase, 1, 0);
        out.push_back({"workload.streamgen_ns_per_op",
                       nsPerOp(spans, "workload.streamgen", kOps, [&] {
                           std::uint64_t sink = 0;
                           for (std::uint64_t i = 0; i < kOps; ++i)
                               sink += gen.next().vaddr;
                           g_sink = g_sink + sink;
                       }),
                       "ns"});
        TenancyParams tenancy;
        tenancy.jobs = 4;
        tenancy.zipfSkew = 0.8;
        tenancy.churnMeanOps = 6000;
        MultiTenantWorkload tenants(tenancy, profiles::byName("mcf"), 1, 0,
                                    0);
        out.push_back({"workload.tenant_ns_per_op",
                       nsPerOp(spans, "workload.tenant", kOps, [&] {
                           std::uint64_t sink = 0;
                           for (std::uint64_t i = 0; i < kOps; ++i)
                               sink += tenants.next().vaddr;
                           g_sink = g_sink + sink;
                       }),
                       "ns"});
    }

    // workload: TraceReader::open + next over a binary and (when zlib
    // is built in) a gzip trace of the same mcf stream.
    {
        const std::uint64_t kRecords = 1'000'000;
        std::vector<std::string> paths{scratch_dir + "/probe.trace"};
        if (traceGzipSupported())
            paths.push_back(scratch_dir + "/probe.trace.gz");
        for (const std::string& path : paths) {
            StreamGen gen(profiles::byName("mcf"), kWorkloadVaBase, 1, 0);
            TraceWriter writer(path);
            for (std::uint64_t i = 0; i < kRecords; ++i)
                writer.append(gen.next());
            writer.close();
        }
        const std::uint64_t ops = kRecords * paths.size();
        out.push_back({"workload.trace_ns_per_record",
                       nsPerOp(spans, "workload.trace", ops, [&] {
                           std::uint64_t sink = 0;
                           for (const std::string& path : paths) {
                               auto reader = TraceReader::open(path);
                               for (std::uint64_t i = 0; i < kRecords; ++i)
                                   sink += reader->next().vaddr;
                           }
                           g_sink = g_sink + sink;
                       }),
                       "ns"});
        for (const std::string& path : paths)
            std::filesystem::remove(path);
    }

    // mem: packet creation and release through the recycling pool.
    out.push_back({"mem.packet_make_ns",
                   nsPerOp(spans, "mem.packet_make", kOps, [&] {
                       std::uint64_t sink = 0;
                       for (std::uint64_t i = 0; i < kOps; ++i) {
                           PktPtr pkt = makePacket(
                               0, static_cast<CoreId>(i & 3),
                               MemOp::Read, PacketKind::Data);
                           sink += pkt ? 1 : 0;
                       }
                       g_sink = g_sink + sink;
                   }),
                   "ns"});

    // fam: ACM entry reads over 64k populated pages.
    {
        AcmStore acm(16);
        for (std::uint64_t p = 0; p < 65536; ++p)
            acm.set(p, AcmEntry{static_cast<std::uint32_t>(p & 7), 3});
        const auto keys = randomKeys(3, kOps, 65536);
        out.push_back({"fam.acm_get_ns",
                       nsPerOp(spans, "fam.acm_get", kOps, [&] {
                           std::uint64_t sink = 0;
                           for (std::uint64_t k : keys)
                               sink += acm.get(k).owner;
                           g_sink = g_sink + sink;
                       }),
                       "ns"});
    }

    // psim: one empty epoch (barrier round) of a 2-thread pool.
    {
        WorkerPool pool(2);
        const std::uint64_t kEpochs = 20'000;
        out.push_back({"psim.epoch_ns",
                       nsPerOp(spans, "psim.epoch", kEpochs, [&] {
                           for (std::uint64_t i = 0; i < kEpochs; ++i)
                               pool.runEpoch(2, [](std::size_t) {});
                       }),
                       "ns"});
    }
}

} // namespace perfbench
