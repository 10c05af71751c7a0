/**
 * @file
 * Named, seeded, runnable paper scenarios.
 *
 * Each headline configuration from the paper's evaluation (ACM hit
 * rate / Fig. 9, AT hit rate / Fig. 10, end-to-end performance /
 * Fig. 12) is registered here as a Scenario: a fixed SystemConfig with
 * an explicit seed and instruction budget, deliberately independent of
 * the FAMSIM_INSTR environment variable so two runs of the same
 * scenario are always identical. Scenario results export as
 * deterministic JSON, which the golden-file regression tests
 * (tests/test_scenarios.cc) compare byte-for-byte against committed
 * baselines — giving every scale/speed PR a machine-checkable
 * behavioural diff.
 */

#ifndef FAMSIM_HARNESS_SCENARIO_HH
#define FAMSIM_HARNESS_SCENARIO_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "arch/system.hh"
#include "workload/trace.hh"

namespace famsim {

/** One named paper configuration, ready to run. */
struct Scenario {
    /** Unique id, e.g. "fig09_acm_hit_rate.mcf.deactn". */
    std::string name;
    /** Which paper figure/table this configuration belongs to. */
    std::string figure;
    /** One-line human description. */
    std::string description;
    /** The headline metric the figure plots (key into the metrics). */
    std::string headlineMetric;
    /** Complete, self-contained system configuration. */
    SystemConfig config;
};

/** Registry of runnable scenarios, sorted by name. */
class ScenarioRegistry
{
  public:
    /** An empty registry (for tests that register their own). */
    ScenarioRegistry() = default;

    /** The built-in registry holding the paper's scenarios. */
    [[nodiscard]] static const ScenarioRegistry& paper();

    /** Register a scenario; the name must be unused. */
    void add(Scenario scenario);

    [[nodiscard]] bool has(const std::string& name) const;
    /** Lookup by name; panics on unknown names. */
    [[nodiscard]] const Scenario& byName(const std::string& name) const;
    /** All scenarios belonging to one figure, sorted by name. */
    [[nodiscard]] std::vector<const Scenario*>
    byFigure(const std::string& figure) const;
    /** All registered names, sorted. */
    [[nodiscard]] std::vector<std::string> names() const;
    [[nodiscard]] std::size_t size() const { return scenarios_.size(); }

  private:
    std::map<std::string, Scenario> scenarios_;
};

/**
 * Build, run and export one scenario as deterministic JSON: scenario
 * identity, the key configuration knobs, the headline derived metrics
 * and the full statistics registry. Byte-identical across runs with
 * the same build.
 *
 * @p threads selects the kernel (System::run): 0 runs the serial
 * reference path the goldens are pinned to; any value >= 1 runs the
 * parallel kernel, whose export is byte-identical for every thread
 * count >= 1 (but intentionally not to the serial export). The JSON
 * itself carries no thread count — it describes the simulated system,
 * not the host execution.
 */
[[nodiscard]] std::string runScenarioJson(const Scenario& scenario,
                                          unsigned threads = 0);

/**
 * Streaming core of runScenarioJson: writes the export directly to
 * @p os (no materialized string, so multi-megabyte exports stream to
 * disk in O(1) memory) ending at the closing brace with no trailing
 * newline. runScenarioJson(scenario, threads) is byte-identical to
 * this plus a final "\n".
 *
 * Multi-tenant scenarios (config.tenancy.jobs > 1) additionally export
 * a "jobs" object: the per-job attribution tables summed across
 * components plus fairness/isolation summaries. The slowdown figures
 * compare each tenant's post-warmup throughput against its fair share
 * of ONE extra single-tenant baseline run of the same configuration at
 * the same thread count (see DESIGN.md "Multi-tenant job model").
 */
void writeScenarioJson(std::ostream& os, const Scenario& scenario,
                       unsigned threads = 0);

/**
 * writeScenarioJson against a caller-provided System: @p system must
 * have been constructed from scenario.config and not yet run — this
 * runs it and writes the export. famsim_cli enters here so it can
 * attach a trace sink or profiler first; output is byte-identical to
 * the self-constructing overload.
 */
void writeScenarioJson(std::ostream& os, const Scenario& scenario,
                       System& system, unsigned threads);

// ------------------------------------------------ trace capture/replay

/**
 * File name of one core's trace inside a capture directory:
 * "node<i>.core<j>.trace[.gz|.txt]".
 */
[[nodiscard]] std::string
traceFileName(unsigned node, unsigned core,
              TraceFormat format = TraceFormat::Binary);

/**
 * Copy of @p config whose cores record the streams they consume into
 * per-core trace files under @p dir (see traceFileName) while running
 * — recording wraps the configured workload (factory or synthetic),
 * so the recording run's stats are identical to the unwrapped run's.
 */
[[nodiscard]] SystemConfig
withTraceRecording(const SystemConfig& config, const std::string& dir,
                   TraceFormat format = TraceFormat::Binary);

/**
 * Copy of @p config whose cores replay the per-core traces under
 * @p dir (any supported format). Replaying a directory recorded with
 * withTraceRecording reproduces the original run bit-identically: the
 * op streams are the consumed prefixes and the traces carry the full
 * prefault footprint.
 */
[[nodiscard]] SystemConfig
withTraceReplay(const SystemConfig& config, const std::string& dir);

/**
 * Run @p scenario with per-core trace recording into @p dir (created
 * if missing) and return its stats JSON — byte-identical to
 * runScenarioJson(scenario, threads), recording is observation-only.
 */
[[nodiscard]] std::string
recordScenarioTraces(const Scenario& scenario, const std::string& dir,
                     TraceFormat format = TraceFormat::Binary,
                     unsigned threads = 0);

/**
 * Run @p scenario with its cores replaying the traces under @p dir
 * and return the stats JSON (the round-trip counterpart of
 * recordScenarioTraces).
 */
[[nodiscard]] std::string
replayScenarioJson(const Scenario& scenario, const std::string& dir,
                   unsigned threads = 0);

} // namespace famsim

#endif // FAMSIM_HARNESS_SCENARIO_HH
