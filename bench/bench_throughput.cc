/**
 * @file
 * Host-throughput benchmark of the simulator's hot paths (the
 * BENCH_hotpath trajectory): SetAssocCache lookups/inserts per
 * replacement policy, StreamGen op generation, EventQueue scheduling
 * churn, raw RNG draws, and the end-to-end fig12 performance-scenario
 * wall clock. Unlike the bench_fig* binaries this measures *host*
 * speed (ns/op, Mops/s), so the values vary by machine; each row also
 * carries rel_cost — its cost normalized to a raw PCG32 draw on the
 * same host — which is stable enough across machines to regression-gate
 * in CI (see --baseline).
 *
 *   bench_throughput [--json] [--out path] [--baseline path]
 *
 * With --baseline, the run compares each row's rel_cost against the
 * same row in a previously exported BENCH_hotpath.json and exits 3 if
 * any regresses by more than FAMSIM_BENCH_TOLERANCE (default 0.20,
 * i.e. 20 %).
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/set_assoc.hh"
#include "harness/figure_report.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"
#include "sim/event_queue.hh"
#include "sim/profiler.hh"
#include "sim/rng.hh"
#include "workload/stream_gen.hh"

using namespace famsim;

namespace {

volatile std::uint64_t g_sink = 0;

double
timeLookup(ReplPolicy policy, std::uint64_t iters)
{
    SetAssocCache<std::uint64_t> cache(16384, 4, policy, 1);
    for (std::uint64_t k = 0; k < 65536; ++k)
        cache.insert(k, k);
    return bestOfSeconds(7, [&] {
        Rng rng(42);
        std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < iters; ++i) {
            std::uint64_t* v = cache.lookup(rng.below(65536));
            sink += v ? *v : 0;
        }
        g_sink = g_sink + sink;
    });
}

double
timeInsertChurn(ReplPolicy policy, std::uint64_t iters)
{
    SetAssocCache<std::uint64_t> cache(128, 8, policy, 1);
    std::uint64_t key = 0;
    return bestOfSeconds(7, [&] {
        for (std::uint64_t i = 0; i < iters; ++i) {
            ++key;
            cache.insert(key * 7919, key);
        }
        g_sink = g_sink + cache.countValid();
    });
}

double
timeStreamGen(const char* profile, std::uint64_t iters)
{
    StreamGen gen(profiles::byName(profile), 0x100000000000ULL, 1, 0);
    return bestOfSeconds(7, [&] {
        std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < iters; ++i)
            sink += gen.next().vaddr;
        g_sink = g_sink + sink;
    });
}

double
timeEventQueue(std::uint64_t events)
{
    return bestOfSeconds(7, [&] {
        EventQueue q;
        std::uint64_t executed = 0;
        // Self-rescheduling chains: every event schedules a successor
        // until the budget drains, mimicking the simulator's pattern
        // of components rescheduling themselves.
        struct Chain {
            EventQueue& q;
            std::uint64_t& executed;
            std::uint64_t budget;
            void
            operator()() const
            {
                if (++executed < budget)
                    q.scheduleAfter(7, Chain{q, executed, budget});
            }
        };
        for (int i = 0; i < 64; ++i)
            q.schedule(static_cast<Tick>(i), Chain{q, executed, events});
        q.run();
        g_sink = g_sink + q.executed();
    });
}

double
timeRngDraws(std::uint64_t iters)
{
    return bestOfSeconds(7, [&] {
        Rng rng(7);
        std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < iters; ++i)
            sink += rng.next();
        g_sink = g_sink + sink;
    });
}

double
timeFig12()
{
    // Pinned to the original four architecture points: the figure
    // family also holds the observability locks (.base / .observed),
    // and letting registry growth inflate this gated row would read as
    // a hot-path regression.
    static const char* kPoints[] = {
        "fig12_performance.mcf.efam",
        "fig12_performance.mcf.ifam",
        "fig12_performance.mcf.deactw",
        "fig12_performance.mcf.deactn",
    };
    const auto& registry = ScenarioRegistry::paper();
    return bestOfSeconds(5, [&] {
        std::size_t bytes = 0;
        for (const char* name : kPoints)
            bytes += runScenarioJson(registry.byName(name)).size();
        g_sink = g_sink + bytes;
    });
}

/**
 * Wall clock of one fig16 scaling point (16/32/64 nodes — the sharded
 * parallel kernel's acceptance anchors) under one execution kernel.
 * threads = 0 is the serial reference; >= 1 the conservative-window
 * kernel. Parallel runs also report the window (= barrier round)
 * count and how many of those windows the adaptive horizon widened —
 * the cadence data behind the 64-node barrier question.
 */
struct Fig16Run {
    double seconds = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t widened = 0;
};

Fig16Run
timeFig16(const std::string& point, unsigned threads, int reps,
          Profiler* prof = nullptr)
{
    const Scenario& scenario =
        SweepRegistry::paperPoints().byName(point);
    ScopedQuietLogs quiet;
    Fig16Run run;
    run.seconds = bestOfSeconds(reps, [&] {
        System system(scenario.config);
        if (prof)
            system.attachProfiler(prof);
        system.run(threads);
        g_sink = g_sink + system.sim().stats().jsonString().size();
        run.windows = system.parallelWindows();
        run.widened = system.parallelWidenedWindows();
    });
    return run;
}

/**
 * Extract row @p name's values array from a BENCH_hotpath.json dump.
 * Minimal scan matched to FigureReport::writeJson's fixed layout.
 */
bool
baselineValues(const std::string& json, const std::string& name,
               std::vector<double>& out)
{
    std::string needle = "{\"name\": \"" + name + "\", \"values\": [";
    std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return false;
    std::size_t start = at + needle.size();
    std::size_t end = json.find(']', start);
    if (end == std::string::npos)
        return false;
    std::stringstream ss(json.substr(start, end - start));
    out.clear();
    std::string tok;
    while (std::getline(ss, tok, ','))
        out.push_back(std::strtod(tok.c_str(), nullptr));
    return !out.empty();
}

} // namespace

int
main(int argc, char** argv)
{
    // Peel off the flags this bench adds on top of the shared harness.
    std::string baseline_path;
    std::vector<char*> pass_argv{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--baseline" && i + 1 < argc)
            baseline_path = argv[++i];
        else
            pass_argv.push_back(argv[i]);
    }
    BenchOptions options =
        parseBenchArgs(static_cast<int>(pass_argv.size()),
                       pass_argv.data(), /*instr_fallback=*/0);

    FigureReport report(
        "BENCH_hotpath",
        "Host throughput: hot-path structures and fig12 wall clock",
        "path", {"ns_per_op", "mops_per_sec", "rel_cost"});

    const std::uint64_t kIters = 4000000;
    double calib = timeRngDraws(4 * kIters) / double(4 * kIters);

    auto add = [&](const std::string& name, double seconds,
                   std::uint64_t ops) {
        double ns = seconds / static_cast<double>(ops) * 1e9;
        double mops = static_cast<double>(ops) / seconds / 1e6;
        report.addRow(name, {ns, mops, ns / (calib * 1e9)});
    };

    add("rng.next", calib * double(4 * kIters), 4 * kIters);

    const ReplPolicy kPolicies[] = {ReplPolicy::Lru, ReplPolicy::Random,
                                    ReplPolicy::TreePlru};
    const char* kPolicyTag[] = {"lru", "random", "treeplru"};
    for (int p = 0; p < 3; ++p) {
        add(std::string("set_assoc_lookup.") + kPolicyTag[p],
            timeLookup(kPolicies[p], kIters), kIters);
        add(std::string("set_assoc_insert.") + kPolicyTag[p],
            timeInsertChurn(kPolicies[p], kIters / 2), kIters / 2);
    }

    add("stream_gen.mcf", timeStreamGen("mcf", kIters), kIters);
    add("stream_gen.sssp", timeStreamGen("sssp", kIters), kIters);

    add("event_queue.churn", timeEventQueue(kIters), kIters);

    double fig12_s = timeFig12();
    // 4 architectures x 60000 instructions per scenario run.
    add("fig12_scenarios.e2e", fig12_s, 4 * 60000);

    // Parallel-kernel trajectory: the 16-node fig16 sweep point (64
    // cores x 60k instructions) end to end, serial vs the sharded
    // windowed kernel at 1/2/4 workers. The speedup summaries are the
    // headline; like the wall-clock rows they depend on the host's
    // core count (~1x on a single-core runner), so they are reported,
    // not gated.
    const std::uint64_t fig16_ops = 16 * 4 * 60000;
    double psim_serial_s = timeFig16("fig16_num_nodes.n16", 0, 2).seconds;
    add("fig16n16.serial", psim_serial_s, fig16_ops);
    Fig16Run psim_t[3];
    const unsigned kWorkerCounts[3] = {1, 2, 4};
    // The t4 run carries the wall-clock profiler: its drain/exec/
    // coordinator split (last rep's numbers) becomes the summary rows
    // below. Host timings — reported, never gated.
    Profiler prof16;
    for (int i = 0; i < 3; ++i) {
        psim_t[i] = timeFig16("fig16_num_nodes.n16", kWorkerCounts[i], 2,
                              kWorkerCounts[i] == 4 ? &prof16 : nullptr);
        add("fig16n16.t" + std::to_string(kWorkerCounts[i]),
            psim_t[i].seconds, fig16_ops);
    }

    // The 32/64-node scaling points answer where the barrier cadence
    // bites as partitions grow (129 at 64 nodes): serial vs the
    // 4-worker sharded kernel, one rep each (the points are big).
    Fig16Run scaled[2][2]; // [point][serial, t4]
    const char* kScaledPoints[2] = {"fig16_num_nodes.n32",
                                    "fig16_num_nodes.n64"};
    const char* kScaledTag[2] = {"fig16n32", "fig16n64"};
    const std::uint64_t scaled_ops[2] = {32 * 4 * 60000, 64 * 4 * 60000};
    for (int p = 0; p < 2; ++p) {
        scaled[p][0] = timeFig16(kScaledPoints[p], 0, 1);
        add(std::string(kScaledTag[p]) + ".serial", scaled[p][0].seconds,
            scaled_ops[p]);
        scaled[p][1] = timeFig16(kScaledPoints[p], 4, 1);
        add(std::string(kScaledTag[p]) + ".t4", scaled[p][1].seconds,
            scaled_ops[p]);
    }

    report.addSummary("fig12_wall_seconds", fig12_s);
    report.addSummary("fig16n16_serial_wall_seconds", psim_serial_s);
    for (int i = 0; i < 3; ++i) {
        report.addSummary("speedup_parallel_fig16n16_t" +
                              std::to_string(kWorkerCounts[i]),
                          psim_serial_s / psim_t[i].seconds);
    }
    report.addSummary("windows_fig16n16_t4",
                      static_cast<double>(psim_t[2].windows));
    report.addSummary("windows_widened_fig16n16_t4",
                      static_cast<double>(psim_t[2].widened));
    report.addSummary("profile_fig16n16_t4_wall_s",
                      prof16.wallSeconds());
    report.addSummary("profile_fig16n16_t4_exec_s",
                      prof16.execSeconds());
    report.addSummary("profile_fig16n16_t4_drain_s",
                      prof16.drainSeconds());
    report.addSummary("profile_fig16n16_t4_coordinator_s",
                      prof16.coordinatorSeconds());
    for (int p = 0; p < 2; ++p) {
        report.addSummary(std::string("speedup_parallel_") +
                              kScaledTag[p] + "_t4",
                          scaled[p][0].seconds / scaled[p][1].seconds);
        report.addSummary(std::string("windows_") + kScaledTag[p] + "_t4",
                          static_cast<double>(scaled[p][1].windows));
        report.addSummary(std::string("windows_widened_") +
                              kScaledTag[p] + "_t4",
                          static_cast<double>(scaled[p][1].widened));
    }
    report.addMeta("seed_reference",
                   "pre-overhaul numbers measured on the dev host; see "
                   "README 'Host-throughput benchmarking'");
    report.addNote("rel_cost = ns_per_op / ns per raw PCG32 draw on "
                   "this host; use it for cross-machine comparisons "
                   "and CI gating.");

    int rc = emitReport(report, options);
    if (rc != 0 || baseline_path.empty())
        return rc;

    // --- rel_cost regression gate against a prior export ---
    std::ifstream in(baseline_path);
    if (!in) {
        std::cerr << "bench_throughput: cannot read baseline '"
                  << baseline_path << "'\n";
        return 3;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string base_json = buf.str();

    double tolerance = 0.20;
    if (const char* env = std::getenv("FAMSIM_BENCH_TOLERANCE"))
        tolerance = std::strtod(env, nullptr);

    std::ostringstream current;
    report.writeJson(current);
    std::string cur_json = current.str();

    bool failed = false;
    // Gated rows are single-threaded and deterministic in work, so
    // rel_cost transfers across hosts; the parallel fig16 rows (t1..t4
    // and the speedup/window summaries) depend on the runner's core
    // count and are reported, not gated.
    for (const char* row :
         {"set_assoc_lookup.lru", "set_assoc_lookup.random",
          "set_assoc_lookup.treeplru", "stream_gen.mcf",
          "event_queue.churn", "fig12_scenarios.e2e",
          "fig16n16.serial"}) {
        std::vector<double> base, cur;
        if (!baselineValues(base_json, row, base)) {
            std::cerr << "bench_throughput: baseline lacks row '" << row
                      << "' — skipping gate for it\n";
            continue;
        }
        if (!baselineValues(cur_json, row, cur) || base.size() < 3 ||
            cur.size() < 3)
            continue;
        double base_rel = base[2], cur_rel = cur[2];
        double ratio = cur_rel / base_rel;
        std::cerr << "gate " << row << ": rel_cost " << cur_rel
                  << " vs baseline " << base_rel << " (x" << ratio
                  << ")\n";
        if (ratio > 1.0 + tolerance) {
            std::cerr << "bench_throughput: REGRESSION on " << row
                      << " (allowed +" << tolerance * 100 << "%)\n";
            failed = true;
        }
    }
    return failed ? 3 : 0;
}
