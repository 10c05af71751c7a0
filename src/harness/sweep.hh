/**
 * @file
 * Parameterized sensitivity sweeps — the paper's Fig. 13-16.
 *
 * A Sweep is a base scenario configuration plus one SweepAxis (axis
 * name, values, config mutator). Expanding a sweep yields one named,
 * seeded Scenario per axis value ("fig16_num_nodes.n4"), so sweep
 * points plug into the same golden-file regression machinery as the
 * headline scenarios (tests/test_scenarios.cc) and export the same
 * deterministic JSON. The paper registry covers:
 *
 *  - fig13_stu_entries   STU cache size 256..4096 entries
 *  - fig14_acm_size      ACM entry width 8/16/32 bits
 *  - fig15_fabric_latency one-way fabric latency 100 ns .. 6 us
 *  - fig16_num_nodes     1..8 nodes sharing the fabric and pool
 */

#ifndef FAMSIM_HARNESS_SWEEP_HH
#define FAMSIM_HARNESS_SWEEP_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/scenario.hh"

namespace famsim {

/** One swept configuration knob and the values it takes. */
struct SweepAxis {
    /** Axis name as plotted, e.g. "nodes" or "stu_entries". */
    std::string name;

    struct Point {
        /** Scenario-name suffix; zero-padded so sorted == sweep order. */
        std::string label;
        /** Numeric axis value (exported in the sweep JSON). */
        double value = 0.0;
        /** Applies this point's value to a base configuration. */
        std::function<void(SystemConfig&)> apply;
    };
    std::vector<Point> points;
};

/** A named sensitivity sweep: base config x one axis. */
struct Sweep {
    /** Unique id doubling as the figure tag, e.g. "fig16_num_nodes". */
    std::string name;
    std::string description;
    /** The metric the paper plots against the axis. */
    std::string headlineMetric;
    /** Complete base configuration every point starts from. */
    SystemConfig base;
    SweepAxis axis;

    /** The scenario for one axis point ("<name>.<label>"). */
    [[nodiscard]] Scenario point(const SweepAxis::Point& p) const;
    /** All points, in axis order. */
    [[nodiscard]] std::vector<Scenario> expand() const;
};

/** Registry of runnable sweeps, sorted by name. */
class SweepRegistry
{
  public:
    /** An empty registry (for tests that register their own). */
    SweepRegistry() = default;

    /** The built-in registry holding the paper's Fig. 13-16 sweeps. */
    [[nodiscard]] static const SweepRegistry& paper();

    /**
     * Every point of every paper sweep as a runnable Scenario, keyed
     * by "<sweep>.<label>" with figure == the sweep name.
     */
    [[nodiscard]] static const ScenarioRegistry& paperPoints();

    /** Register a sweep; the name must be unused. */
    void add(Sweep sweep);

    [[nodiscard]] bool has(const std::string& name) const;
    /** Lookup by name; panics on unknown names. */
    [[nodiscard]] const Sweep& byName(const std::string& name) const;
    /** All registered names, sorted. */
    [[nodiscard]] std::vector<std::string> names() const;
    [[nodiscard]] std::size_t size() const { return sweeps_.size(); }

  private:
    std::map<std::string, Sweep> sweeps_;
};

/**
 * One pinned golden point per paper sweep — the subset cheap enough
 * to regression-test on every ctest run (the full expansion is
 * exercised via famsim_cli --sweep and the CI artifact export).
 */
[[nodiscard]] std::vector<std::string> goldenSweepPointNames();

/**
 * Run every point of @p sweep and export the whole curve as one
 * deterministic JSON object (each point embeds its full scenario
 * export, stats registry included). Byte-identical across runs with
 * the same build and seed. @p threads selects the kernel per point
 * (see runScenarioJson); @p jobs fans the points across that many
 * host workers (SweepExecutor) — the export is byte-identical for
 * every job count.
 */
[[nodiscard]] std::string runSweepJson(const Sweep& sweep,
                                       unsigned threads = 0,
                                       unsigned jobs = 1);

/**
 * Core of runSweepJson: writes the export directly to @p os. Every
 * point runs through the SweepExecutor (even jobs=1), each on a fresh
 * System; the completed point exports are then emitted in axis order
 * through an indenting filter, regardless of completion order. Memory
 * is O(sum of point exports) — the price of running points
 * concurrently.
 * Byte-identical to runSweepJson(sweep, threads, jobs).
 */
void writeSweepJson(std::ostream& os, const Sweep& sweep,
                    unsigned threads = 0, unsigned jobs = 1);

} // namespace famsim

#endif // FAMSIM_HARNESS_SWEEP_HH
