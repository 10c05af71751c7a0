/**
 * @file
 * The three benchmark workloads (fig12_steady, scale_n16_t2,
 * paper_suite_j2), their output checks, the timed end-to-end metrics
 * and the traced run's per-layer metrics. See perfbench/DESIGN.md.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include <malloc.h>

#include "arch/system.hh"
#include "harness/executor.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"

#include "perfbench.hh"

using namespace famsim;

namespace perfbench {

namespace {

/** fig12_steady per-core budget: run() is > 95% of the job's wall. */
constexpr std::uint64_t kFig12Budget = 500'000;
/** scale_n16_t2 per-core budget (the golden point pins 60k). */
constexpr std::uint64_t kScaleBudget = 120'000;
constexpr unsigned kScaleThreads = 2;
constexpr unsigned kSuiteJobs = 2;
/** Largest fig16 point in the suite (n32/n64 need 1.8-3.5 GB). */
constexpr unsigned kSuiteMaxNodes = 16;
/** paper_suite_j2 set-up samples (see suiteSetupSeconds). */
constexpr int kSuiteSetupRepeats = 7;
/** Exports timed per point in the traced run (harness.export_ms). */
constexpr int kTracedExports = 15;

const char* const kFig12Points[] = {
    "fig12_performance.mcf.efam", "fig12_performance.mcf.ifam",
    "fig12_performance.mcf.deactw", "fig12_performance.mcf.deactn"};
const char* const kScalePoint = "fig16_num_nodes.n16";

/** Checked-in references, relative to the checkout root. */
const char* const kGoldenDir = "tests/golden";
const char* const kDigestFile = "perfbench/digests.txt";

/** @p scenario with the benchmark's seed and, if nonzero, budget. */
Scenario
seeded(const Scenario& scenario, std::uint64_t seed, std::uint64_t budget)
{
    Scenario s = scenario;
    s.config.seed = seed;
    if (budget != 0)
        s.config.core.instructionLimit = budget;
    return s;
}

/** Digest key of a checked point: the scenario and its budget. */
std::string
digestKey(const Scenario& s)
{
    return s.name + "@" + std::to_string(s.config.core.instructionLimit);
}

/** One System the benchmark builds, runs, exports and destroys. */
struct PointRun {
    std::string key;
    unsigned nodes = 0;
    std::uint32_t partitions = 0;
    double constructS = 0.0;
    double runS = 0.0;
    double exportS = 0.0;
    double rssGrowthMb = 0.0;
    std::uint64_t minflt = 0;
    std::uint64_t instructions = 0;
    std::uint64_t events = 0;
    bool budgetMet = false;
    std::uint64_t digest = 0;
    double ipc = 0.0;
    double mpki = 0.0;
    double atPercent = 0.0;
    double translationHitRate = 0.0;
    double acmHitRate = 0.0;
    double famRequestsPerKinstr = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t widened = 0;
    double profWallS = 0.0;
    double profExecS = 0.0;
    double profDrainS = 0.0;
    double profCoordinatorS = 0.0;
};

PointRun
runPoint(const Scenario& s, unsigned threads, Spans& spans, bool traced)
{
    PointRun r;
    r.key = digestKey(s);
    r.nodes = s.config.nodes;
    SpanScope point(spans, "point " + s.name);

    // The traced run measures construction into fresh pages: without
    // this, an earlier System's freed heap absorbs the new one and
    // the arch.* RSS and fault figures read near zero.
    if (traced)
        malloc_trim(0);
    const double rss_before = currentRssMb();
    const std::uint64_t faults_before = minorFaults();
    SpanScope construct(spans, "System::System");
    auto system = std::make_unique<System>(s.config);
    r.constructS = construct.stop();
    r.rssGrowthMb = currentRssMb() - rss_before;
    r.minflt = minorFaults() - faults_before;
    r.partitions = system->traceLanes();

    Profiler prof;
    if (traced)
        system->attachProfiler(&prof);
    SpanScope run(spans, "System::run");
    system->run(threads);
    r.runS = run.stop();

    // The traced run repeats the export so harness.export_ms is a
    // median well above timer resolution.
    std::string stats;
    std::vector<double> dumps;
    for (int rep = 0; rep < (traced ? kTracedExports : 1); ++rep) {
        SpanScope dump(spans, "StatRegistry::dumpJson");
        stats = system->sim().stats().jsonString();
        dumps.push_back(dump.stop());
    }
    r.exportS = median(dumps);
    r.digest = fnv1a(stats);

    r.budgetMet = true;
    for (unsigned n = 0; n < s.config.nodes; ++n) {
        for (auto& core : system->node(n).cores) {
            const std::uint64_t retired = core.core->instructionsRetired();
            r.instructions += retired;
            r.budgetMet = r.budgetMet &&
                          retired >= s.config.core.instructionLimit;
        }
    }
    r.events = system->sim().serialEvents().executed();
    r.ipc = system->ipc();
    r.mpki = system->mpki();
    r.atPercent = system->famAtPercent();
    r.translationHitRate = system->translationHitRate();
    r.acmHitRate = system->acmHitRate();
    const double window_instr =
        system->sim().stats().sumMatching(".instructions");
    r.famRequestsPerKinstr =
        window_instr > 0.0
            ? 1000.0 * static_cast<double>(system->media().totalRequests()) /
                  window_instr
            : 0.0;
    r.windows = system->parallelWindows();
    r.widened = system->parallelWidenedWindows();
    if (traced) {
        system->attachProfiler(nullptr);
        r.profWallS = prof.wallSeconds();
        r.profExecS = prof.execSeconds();
        r.profDrainS = prof.drainSeconds();
        r.profCoordinatorS = prof.coordinatorSeconds();
    }

    SpanScope teardown(spans, "System::~System");
    system.reset();
    return r;
}

/** What one timed job of a workload produced. */
struct JobResult {
    double wallS = 0.0;
    double setupS = 0.0;
    double runS = 0.0;
    std::uint64_t instructions = 0;
    /** Systems the benchmark built itself (fig12_steady, scale_n16_t2). */
    std::vector<PointRun> points;
    std::uint64_t systemsBuilt = 0;
    std::uint64_t systemsReused = 0;
    std::vector<double> pointSeconds;
};

/** Everything a workload needs, built once before timing. */
struct Workload {
    std::string name;
    std::uint64_t seed = 1;
    std::vector<Scenario> points;
    /** Checked against digests (fig12_steady, scale_n16_t2). */
    std::map<std::string, std::uint64_t> digests;
    /** Checked against goldens (paper_suite_j2), by slot; "" = none. */
    std::vector<std::string> goldens;
};

std::map<std::string, std::uint64_t>
loadDigests(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read digests " + path);
    std::map<std::string, std::uint64_t> out;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string key;
        std::string hex;
        if (fields >> key >> hex && key[0] != '#')
            out[key] = std::stoull(hex, nullptr, 16);
    }
    return out;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

Workload
makeWorkload(const Options& opts)
{
    Workload w;
    w.name = opts.workload;
    w.seed = opts.seed;
    const ScenarioRegistry& scenarios = ScenarioRegistry::paper();
    const ScenarioRegistry& sweep_points = SweepRegistry::paperPoints();
    if (w.name == "fig12_steady") {
        for (const char* name : kFig12Points)
            w.points.push_back(
                seeded(scenarios.byName(name), w.seed, kFig12Budget));
    } else if (w.name == "scale_n16_t2") {
        w.points.push_back(
            seeded(sweep_points.byName(kScalePoint), w.seed, kScaleBudget));
    } else {
        for (const std::string& name : scenarios.names())
            w.points.push_back(seeded(scenarios.byName(name), w.seed, 0));
        for (const std::string& name : sweep_points.names()) {
            const Scenario& s = sweep_points.byName(name);
            if (s.config.nodes <= kSuiteMaxNodes)
                w.points.push_back(seeded(s, w.seed, 0));
        }
        // Largest points first: n16, n8 and n4 start together on the
        // two workers, so the peak RSS does not depend on which small
        // points happen to share a worker with them.
        std::stable_sort(w.points.begin(), w.points.end(),
                         [](const Scenario& a, const Scenario& b) {
                             return a.config.nodes > b.config.nodes;
                         });
    }
    // Outputs are pinned only at the seed the goldens use; other seeds
    // check completion and budgets.
    if (w.seed == 1 && !opts.printDigests) {
        if (w.name == "paper_suite_j2") {
            if (!std::filesystem::is_directory(kGoldenDir))
                throw std::runtime_error(std::string("no golden directory ") +
                                         kGoldenDir);
            for (const Scenario& s : w.points) {
                const std::string path =
                    std::string(kGoldenDir) + "/" + s.name + ".json";
                w.goldens.push_back(std::filesystem::exists(path)
                                        ? readFile(path)
                                        : std::string());
            }
            const auto pinned = std::count_if(
                w.goldens.begin(), w.goldens.end(),
                [](const std::string& g) { return !g.empty(); });
            std::cerr << "perfbench: " << pinned << " of "
                      << w.points.size() << " suite points have a golden\n";
        } else {
            w.digests = loadDigests(kDigestFile);
        }
    }
    return w;
}

/** Check one self-built point: digest at seed 1, budgets always. */
void
checkPoint(const Workload& w, const PointRun& r, Tally& tally)
{
    if (w.seed != 1 || w.digests.empty()) {
        tally.record(r.budgetMet, r.key + ": a core missed its budget");
        return;
    }
    auto it = w.digests.find(r.key);
    tally.record(it != w.digests.end() && it->second == r.digest,
                 r.key + ": simulated stats digest mismatch or missing");
}

JobResult
runSelfBuiltJob(const Workload& w, Spans& spans, Tally& tally)
{
    const unsigned threads =
        w.name == "scale_n16_t2" ? kScaleThreads : 0;
    JobResult job;
    spans.nextJob();
    SpanScope all(spans, "job " + w.name);
    for (const Scenario& s : w.points) {
        PointRun r;
        try {
            r = runPoint(s, threads, spans, spans.enabled());
        } catch (const std::exception& e) {
            tally.record(false, s.name + " threw: " + e.what());
            continue;
        }
        checkPoint(w, r, tally);
        job.setupS += r.constructS;
        job.runS += r.runS;
        job.instructions += r.instructions;
        job.pointSeconds.push_back(r.constructS + r.runS + r.exportS);
        job.points.push_back(r);
    }
    job.wallS = all.stop();
    job.systemsBuilt = job.points.size();
    return job;
}

JobResult
runSuiteJob(const Workload& w, Spans& spans, Tally& tally)
{
    JobResult job;
    spans.nextJob();
    SpanScope all(spans, "job " + w.name);
    std::vector<std::string> exports;
    bool threw = false;
    {
        SweepExecutor executor(kSuiteJobs);
        SpanScope batch(spans, "SweepExecutor::runScenarioJsons");
        try {
            exports = executor.runScenarioJsons(w.points, 0);
        } catch (const std::exception& e) {
            std::cerr << "perfbench: suite threw: " << e.what() << "\n";
            threw = true;
        }
        for (std::size_t i = 0; i < executor.pointSeconds().size(); ++i) {
            spans.addDuration("point " + w.points[i].name,
                              executor.pointSeconds()[i]);
        }
        batch.stop();
        job.systemsBuilt = executor.systemsBuilt();
        job.systemsReused = executor.systemsReused();
        job.pointSeconds = executor.pointSeconds();
    }
    job.wallS = all.stop();
    job.runS = job.wallS;

    // The executor reports no per-core counts. A point that returns
    // has run every core to its budget (System::run panics, and so
    // throws here, if the queue drains first), so completed points
    // count their configured budgets.
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const Scenario& s = w.points[i];
        if (threw) {
            tally.record(false, s.name + ": the suite threw");
            continue;
        }
        const std::string& out = exports[i];
        bool ok = out.find("\"scenario\": \"" + s.name + "\"") !=
                  std::string::npos;
        if (!w.goldens.empty() && !w.goldens[i].empty())
            ok = out + "\n" == w.goldens[i];
        tally.record(ok, s.name + ": export differs from its golden or "
                                  "is incomplete");
        if (ok) {
            job.instructions += static_cast<std::uint64_t>(s.config.nodes) *
                                s.config.coresPerNode *
                                s.config.core.instructionLimit;
        }
    }
    return job;
}

JobResult
runJob(const Workload& w, Spans& spans, Tally& tally)
{
    return w.name == "paper_suite_j2" ? runSuiteJob(w, spans, tally)
                                      : runSelfBuiltJob(w, spans, tally);
}

/**
 * paper_suite_j2's set-up time. Its Systems are built inside the
 * executor (their cost is in wall_s), so the benchmark times what a
 * suite run sets up first and most often: the four Fig. 12 points'
 * constructors, median of kSuiteSetupRepeats.
 */
double
suiteSetupSeconds(const Workload& w, Spans& spans)
{
    std::vector<double> samples;
    for (int rep = 0; rep < kSuiteSetupRepeats; ++rep) {
        double total = 0.0;
        for (const char* name : kFig12Points) {
            const Scenario s =
                seeded(ScenarioRegistry::paper().byName(name), w.seed, 0);
            SpanScope construct(spans, "System::System");
            auto system = std::make_unique<System>(s.config);
            total += construct.stop();
        }
        samples.push_back(total);
    }
    return median(samples);
}

/** Constructor seconds of @p s without prefault. */
double
constructWithoutPrefault(const Scenario& s, Spans& spans)
{
    SystemConfig config = s.config;
    config.prefault = false;
    SpanScope construct(spans, "System::System (no prefault)");
    auto system = std::make_unique<System>(config);
    return construct.stop();
}

void
timedRun(const Options& opts, const Workload& w, Tally& tally,
         Metrics& out)
{
    Spans off;
    const bool suite = w.name == "paper_suite_j2";
    std::vector<double> walls;
    std::vector<double> setups;
    std::vector<double> rates;
    if (suite)
        setups.push_back(suiteSetupSeconds(w, off));
    // Jobs repeat while another one is expected to end within
    // --seconds, so a run measures for about --seconds and no longer.
    const Clock::time_point start = Clock::now();
    do {
        const JobResult job = runJob(w, off, tally);
        walls.push_back(job.wallS);
        if (!suite)
            setups.push_back(job.setupS);
        if (job.runS > 0.0)
            rates.push_back(static_cast<double>(job.instructions) / 1e6 /
                            job.runS);
    } while (secondsSince(start) + walls.back() <= opts.seconds);
    std::cerr << "perfbench: " << w.name << " job seconds:";
    for (double wall : walls)
        std::cerr << " " << wall;
    std::cerr << "\n";
    out.push_back({"wall_s", median(walls), "s"});
    out.push_back({"setup_s", median(setups), "s"});
    out.push_back({"sim_minstr_per_s", median(rates), "Minstr/s"});
    out.push_back({"peak_rss_mb", peakRssMb(), "MB"});
}

/** The serial-kernel layer numbers: sim, cache, fam, stu, deact. */
void
serialLayerMetrics(const std::vector<PointRun>& runs, const PointRun& ifam,
                   const PointRun& deactn, Metrics& out)
{
    std::uint64_t events = 0;
    double run_s = 0.0;
    for (const PointRun& r : runs) {
        events += r.events;
        run_s += r.runS;
    }
    const double ev = static_cast<double>(events);
    out.push_back({"sim.events", ev, "count"});
    out.push_back(
        {"sim.host_ns_per_event", ev > 0 ? run_s * 1e9 / ev : 0.0, "ns"});
    out.push_back({"cache.llc_mpki", deactn.mpki, "count/kinstr"});
    out.push_back({"fam.requests_per_kinstr", deactn.famRequestsPerKinstr,
                   "count/kinstr"});
    out.push_back({"fam.at_percent", deactn.atPercent, "%"});
    out.push_back({"stu.acm_hit_rate", deactn.acmHitRate, "ratio"});
    out.push_back({"deact.translation_hit_rate", deactn.translationHitRate,
                   "ratio"});
    out.push_back({"model.deactn_over_ifam_ipc",
                   ifam.ipc > 0 ? deactn.ipc / ifam.ipc : 0.0, "ratio"});
}

/** The n16 parallel-kernel layer numbers: psim, arch, vm, export. */
void
parallelLayerMetrics(const PointRun& n16, double no_prefault_s,
                     Metrics& out)
{
    const double nodes = static_cast<double>(n16.nodes);
    out.push_back({"psim.windows", static_cast<double>(n16.windows),
                   "count"});
    out.push_back({"psim.windows_widened", static_cast<double>(n16.widened),
                   "count"});
    out.push_back({"psim.exec_s", n16.profExecS, "s"});
    const double capacity = n16.profWallS * n16.partitions;
    out.push_back({"psim.idle_frac",
                   capacity > 0 ? 1.0 - (n16.profExecS + n16.profDrainS) /
                                            capacity
                                : 0.0,
                   "ratio"});
    out.push_back({"psim.coordinator_s", n16.profCoordinatorS, "s"});
    out.push_back({"arch.construct_s_per_node", n16.constructS / nodes,
                   "s"});
    out.push_back({"arch.rss_mb_per_node", n16.rssGrowthMb / nodes, "MB"});
    out.push_back({"arch.minflt_per_node",
                   static_cast<double>(n16.minflt) / nodes, "count"});
    out.push_back({"vm.prefault_s", n16.constructS - no_prefault_s, "s"});
    out.push_back({"harness.export_ms", n16.exportS * 1e3, "ms"});
}

/**
 * The traced run: micro probes, then untraced and traced jobs in
 * alternation for opts.seconds, then the per-layer numbers. A layer
 * the workload bypasses is read from a companion run of a suite
 * point instead (DESIGN.md lists which).
 */
void
tracedRun(const Options& opts, const Workload& w, Tally& tally,
          Metrics& out)
{
    Spans spans;
    spans.setEnabled(true);
    runProbes(spans, opts.outDir, out);

    std::vector<double> plain;
    std::vector<double> traced;
    JobResult last;
    const Clock::time_point start = Clock::now();
    do {
        spans.setEnabled(false);
        plain.push_back(runJob(w, spans, tally).wallS);
        spans.setEnabled(true);
        last = runJob(w, spans, tally);
        traced.push_back(last.wallS);
    } while (secondsSince(start) + plain.back() + traced.back() <=
             opts.seconds);

    SpanScope companions(spans, "companions");
    auto companion = [&](const Scenario& s, unsigned threads, bool trace) {
        const PointRun r = runPoint(s, threads, spans, trace);
        tally.record(r.budgetMet, r.key + ": a core missed its budget");
        return r;
    };
    const ScenarioRegistry& scenarios = ScenarioRegistry::paper();
    if (w.name == "fig12_steady") {
        // Job points follow kFig12Points: [1] is I-FAM, [3] DeACT-N.
        serialLayerMetrics(last.points, last.points.at(1),
                           last.points.at(3), out);
    } else {
        const PointRun ifam = companion(
            seeded(scenarios.byName(kFig12Points[1]), w.seed, 0), 0, false);
        const PointRun deactn = companion(
            seeded(scenarios.byName(kFig12Points[3]), w.seed, 0), 0, false);
        serialLayerMetrics({ifam, deactn}, ifam, deactn, out);
    }
    const bool own_n16 = w.name == "scale_n16_t2";
    const Scenario n16_s =
        own_n16 ? w.points.front()
                : seeded(SweepRegistry::paperPoints().byName(kScalePoint),
                         w.seed, 0);
    const PointRun n16 = own_n16 ? last.points.at(0)
                                 : companion(n16_s, kScaleThreads, true);
    parallelLayerMetrics(n16, constructWithoutPrefault(n16_s, spans), out);
    companions.stop();

    out.push_back({"harness.systems_built",
                   static_cast<double>(last.systemsBuilt), "count"});
    out.push_back({"harness.systems_reused",
                   static_cast<double>(last.systemsReused), "count"});
    const auto& ps = last.pointSeconds;
    out.push_back({"harness.point_s_max",
                   ps.empty() ? 0.0 : *std::max_element(ps.begin(), ps.end()),
                   "s"});
    double sum = 0.0;
    for (double s : ps)
        sum += s;
    out.push_back({"harness.point_s_sum", sum, "s"});
    out.push_back({"trace.overhead_frac",
                   median(traced) / median(plain) - 1.0, "ratio"});

    const std::string path = opts.outDir + "/trace-" + w.name + "-seed" +
                             std::to_string(w.seed) + ".json";
    if (spans.writeChromeTrace(path))
        std::cerr << "perfbench: spans written to " << path << "\n";
    else
        std::cerr << "perfbench: cannot write spans to " << path << "\n";
}

/** Run each checked point once and print its digest line. */
void
printDigests(const Workload& w)
{
    Spans off;
    Tally unused;
    const JobResult job = runJob(w, off, unused);
    for (const PointRun& r : job.points) {
        std::cout << r.key << " " << std::hex << std::setw(16)
                  << std::setfill('0') << r.digest << std::dec << "\n";
    }
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names{
        "fig12_steady", "scale_n16_t2", "paper_suite_j2"};
    return names;
}

void
runWorkload(const Options& opts, Tally& tally, Metrics& out)
{
    // A panicking point throws (and counts as failed) instead of
    // aborting the benchmark; routine simulator logs stay quiet.
    ScopedThrowOnError throw_on_error;
    ScopedQuietLogs quiet;
    const Workload w = makeWorkload(opts);
    if (opts.printDigests)
        printDigests(w);
    else if (opts.trace)
        tracedRun(opts, w, tally, out);
    else
        timedRun(opts, w, tally, out);
}

} // namespace perfbench
