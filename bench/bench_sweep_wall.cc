/**
 * @file
 * Wall-clock benchmark of the pooled sweep executor (the BENCH_sweep
 * trajectory): every paper sweep (Fig. 13-15 in full, Fig. 16 trimmed
 * to the paper's 1-8 node range — see benchSweeps) exported three
 * ways —
 *
 *   fresh_serial  the pre-executor path: one fresh System per point,
 *                 points run back to back (writeScenarioJson's
 *                 self-constructing overload);
 *   jobs1         the executor at one job: same serial order and
 *                 one fresh System per point, so jobs1_speedup
 *                 isolates the executor's own overhead;
 *   pooled        the executor at --sweep-jobs workers (default
 *                 FAMSIM_SWEEP_JOBS, then 4).
 *
 * All three produce byte-identical JSON (asserted here); only the
 * wall clock differs. Like bench_throughput the values are
 * host-dependent, so CI gates on the *speedup ratios* against a
 * checked-in baseline (bench/baseline_sweep.json) rather than raw
 * seconds:
 *
 *   bench_sweep_wall [--json] [--out path] [--sweep-jobs n]
 *                    [--baseline path]
 *
 * With --baseline the run compares the total row's jobs1_speedup and
 * pooled_speedup against the same row in a previous export and exits
 * 3 if either falls below baseline * (1 - FAMSIM_BENCH_TOLERANCE)
 * (default 0.25). The baseline was recorded on a single-core host
 * (speedups ~1x), so the gate is a floor: multi-core runners only
 * beat it, while a pooled path that became *slower* than serial
 * trips it anywhere.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/executor.hh"
#include "harness/figure_report.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"

using namespace famsim;

namespace {

volatile std::size_t g_sink = 0;

/** The pre-executor serial reference: fresh System per point. */
std::string
freshSerialSweepJson(const Sweep& sweep)
{
    // Mirrors writeSweepJson's header/framing bytes so the comparison
    // below proves the executor path byte-compatible with the old
    // point-at-a-time export; the body runs each point through the
    // self-constructing writeScenarioJson overload, exactly like the
    // pre-executor code did.
    std::ostringstream os;
    os << "{\n  \"sweep\": ";
    json::writeString(os, sweep.name);
    os << ",\n  \"description\": ";
    json::writeString(os, sweep.description);
    os << ",\n  \"headline_metric\": ";
    json::writeString(os, sweep.headlineMetric);
    os << ",\n  \"axis\": ";
    json::writeString(os, sweep.axis.name);
    os << ",\n  \"axis_values\": [";
    for (std::size_t i = 0; i < sweep.axis.points.size(); ++i) {
        os << (i ? ", " : "");
        json::writeNumber(os, sweep.axis.points[i].value);
    }
    os << "]";
    os << ",\n  \"points\": [";
    const std::vector<Scenario> points = sweep.expand();
    for (std::size_t i = 0; i < points.size(); ++i) {
        os << (i ? "," : "") << "\n    ";
        std::ostringstream nested;
        writeScenarioJson(nested, points[i], 0);
        // Indent 4, lazily (no trailing whitespace), like IndentingBuf
        // (which starts mid-line: the framing wrote the first indent).
        const std::string body = nested.str();
        bool at_line_start = false;
        for (char c : body) {
            if (at_line_start && c != '\n')
                os << "    ";
            at_line_start = c == '\n';
            os << c;
        }
    }
    os << "\n  ]\n}\n";
    return os.str();
}

/**
 * The benchmarked sweep set: Fig. 13-15 in full, Fig. 16 trimmed to
 * the paper's 1-8 node range. The 16/32/64-node scaling extension
 * points are dropped here — one 64-node System peaks at ~3.5 GB RSS,
 * so pooling several of them would benchmark the host's allocator
 * (and risk OOM on CI runners) instead of the executor; their wall
 * clock is tracked by bench_throughput's fig16n* rows.
 */
std::vector<Sweep>
benchSweeps()
{
    std::vector<Sweep> out;
    for (const std::string& name : SweepRegistry::paper().names()) {
        Sweep sweep = SweepRegistry::paper().byName(name);
        if (name == "fig16_num_nodes")
            sweep.axis.points.resize(4); // n1, n2, n4, n8
        out.push_back(std::move(sweep));
    }
    return out;
}

/** Extract row @p name's values array (FigureReport::writeJson layout). */
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
    // Unlike the figure benches the pooled mode should exercise real
    // fan-out by default: 4 jobs unless the user said otherwise.
    const unsigned pooled_jobs =
        options.sweepJobs > 1 ? options.sweepJobs : 4;

    ScopedQuietLogs quiet;
    FigureReport report(
        "BENCH_sweep",
        "Sweep-suite wall clock: fresh-serial vs executor (one job, "
        "pooled)",
        "sweep",
        {"fresh_serial_s", "jobs1_s", "pooled_s", "jobs1_speedup",
         "pooled_speedup"});

    double total_fresh = 0.0, total_jobs1 = 0.0, total_pooled = 0.0;
    for (const Sweep& sweep : benchSweeps()) {
        const std::string& name = sweep.name;
        std::cerr << "sweep_wall: " << name << "...\n";
        std::string fresh_json, jobs1_json, pooled_json;
        double fresh_s = bestOfSeconds(
            1, [&] { fresh_json = freshSerialSweepJson(sweep); });
        double jobs1_s = bestOfSeconds(
            1, [&] { jobs1_json = runSweepJson(sweep, 0, 1); });
        double pooled_s = bestOfSeconds(1, [&] {
            pooled_json = runSweepJson(sweep, 0, pooled_jobs);
        });
        // The speedups below are only meaningful if all three modes
        // did the same work; byte-identity is the executor's contract.
        if (jobs1_json != fresh_json || pooled_json != fresh_json) {
            std::cerr << "bench_sweep_wall: export mismatch on " << name
                      << " — executor output is not byte-identical\n";
            return 3;
        }
        g_sink = g_sink + fresh_json.size();
        total_fresh += fresh_s;
        total_jobs1 += jobs1_s;
        total_pooled += pooled_s;
        report.addRow(name, {fresh_s, jobs1_s, pooled_s,
                             fresh_s / jobs1_s, fresh_s / pooled_s});
    }
    report.addRow("total",
                  {total_fresh, total_jobs1, total_pooled,
                   total_fresh / total_jobs1, total_fresh / total_pooled});
    report.addSummary("sweep_jobs", static_cast<double>(pooled_jobs));
    report.addSummary("jobs1_speedup", total_fresh / total_jobs1);
    report.addSummary("pooled_speedup", total_fresh / total_pooled);
    report.addNote("wall clock is host-dependent; CI gates the total "
                   "row's speedup ratios against bench/"
                   "baseline_sweep.json, not the raw seconds");

    int rc = emitReport(report, options);
    if (rc != 0 || baseline_path.empty())
        return rc;

    // --- speedup-ratio regression gate against a prior export ---
    std::ifstream in(baseline_path);
    if (!in) {
        std::cerr << "bench_sweep_wall: cannot read baseline '"
                  << baseline_path << "'\n";
        return 3;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string base_json = buf.str();

    double tolerance = 0.25;
    if (const char* env = std::getenv("FAMSIM_BENCH_TOLERANCE"))
        tolerance = std::strtod(env, nullptr);

    std::ostringstream current;
    report.writeJson(current);
    std::string cur_json = current.str();

    bool failed = false;
    std::vector<double> base, cur;
    if (!baselineValues(base_json, "total", base) ||
        !baselineValues(cur_json, "total", cur) || base.size() < 5 ||
        cur.size() < 5) {
        std::cerr << "bench_sweep_wall: baseline lacks a total row — "
                     "skipping gate\n";
        return 0;
    }
    const char* kRatioName[2] = {"jobs1_speedup", "pooled_speedup"};
    for (int r = 0; r < 2; ++r) {
        double base_ratio = base[3 + r], cur_ratio = cur[3 + r];
        std::cerr << "gate " << kRatioName[r] << ": " << cur_ratio
                  << " vs baseline " << base_ratio << "\n";
        if (cur_ratio < base_ratio * (1.0 - tolerance)) {
            std::cerr << "bench_sweep_wall: REGRESSION on "
                      << kRatioName[r] << " (allowed -"
                      << tolerance * 100 << "%)\n";
            failed = true;
        }
    }
    return failed ? 3 : 0;
}
