/**
 * @file
 * famsim_perfbench: the benchmark program perfbench/run.py builds and
 * runs from the root of a checkout.
 *
 *   famsim_perfbench --workload <name> [--seed N] [--seconds S]
 *                    [--trace 0|1] [--out-dir DIR] [--print-digests]
 *
 * The last line of stdout is one JSON object: {"correct", "attempted",
 * "failed", "metrics": {name: {"value", "unit"}}}. --print-digests
 * instead prints the simulated-stats digest of every self-built point
 * (the lines of perfbench/digests.txt) and no result.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "perfbench.hh"

namespace {

int
usage(const char* why)
{
    std::cerr << "famsim_perfbench: " << why
              << "\nusage: famsim_perfbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR] "
                 "[--print-digests]\n";
    return 2;
}

void
printResult(const perfbench::Tally& tally, const perfbench::Metrics& metrics)
{
    std::cout << "{\"correct\": "
              << (tally.failed == 0 && tally.attempted > 0 ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const perfbench::Metric& m = metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        std::cout << (i ? ", " : "") << "\"" << m.name
                  << "\": {\"value\": " << value << ", \"unit\": \""
                  << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            opts.workload = argv[++i];
        else if (arg == "--seed" && has_value)
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--seconds" && has_value)
            opts.seconds = std::strtod(argv[++i], nullptr);
        else if (arg == "--trace" && has_value)
            opts.trace = std::string(argv[++i]) != "0";
        else if (arg == "--out-dir" && has_value)
            opts.outDir = argv[++i];
        else if (arg == "--print-digests")
            opts.printDigests = true;
        else
            return usage(("unknown or incomplete argument " + arg).c_str());
    }
    bool known = false;
    for (const std::string& name : perfbench::workloadNames())
        known = known || name == opts.workload;
    if (!known)
        return usage(("unknown workload '" + opts.workload + "'").c_str());
    if (opts.seed == 0 || !(opts.seconds > 0.0))
        return usage("--seed and --seconds must be positive");

    // Trace-replay scenarios write their temporary traces under
    // TMPDIR; keep them inside the output directory.
    const std::filesystem::path tmp =
        std::filesystem::absolute(opts.outDir) / "tmp";
    std::filesystem::create_directories(tmp);
    setenv("TMPDIR", tmp.c_str(), 1);

    perfbench::Tally tally;
    perfbench::Metrics metrics;
    try {
        perfbench::runWorkload(opts, tally, metrics);
    } catch (const std::exception& e) {
        std::cerr << "famsim_perfbench: " << e.what() << "\n";
        return 1;
    }
    if (!opts.printDigests)
        printResult(tally, metrics);
    return 0;
}
