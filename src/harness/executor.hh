/**
 * @file
 * SweepExecutor — point-level parallelism for sweeps, scenario suites
 * and bench fan-outs.
 *
 * Sweep/scenario points are independent simulations, and each one runs
 * on the untouched serial kernel, so fanning the *points* across host
 * threads is determinism-free parallelism: the executor runs every
 * point to completion on one worker, collects the result into that
 * point's pre-sized slot and hands the slots back in submission order
 * — the caller's output is byte-identical for every job count,
 * bounded in wall clock by the slowest single point.
 *
 * Every point builds its own System and destroys it when the point
 * ends, so slot contents cannot depend on which worker ran which
 * point, nor on what ran before it.
 */

#ifndef FAMSIM_HARNESS_EXECUTOR_HH
#define FAMSIM_HARNESS_EXECUTOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/scenario.hh"
#include "psim/worker_pool.hh"

namespace famsim {

/** Runs independent points across a worker pool, results in order. */
class SweepExecutor
{
  public:
    /**
     * @param jobs total workers including the caller (>= 1; clamped
     *        up from 0). jobs=1 spawns no threads and visits points in
     *        slot order on the calling thread — the same code path as
     *        jobs=N minus the concurrency.
     */
    explicit SweepExecutor(unsigned jobs = 1);

    SweepExecutor(const SweepExecutor&) = delete;
    SweepExecutor& operator=(const SweepExecutor&) = delete;

    /** Total workers, caller included. */
    [[nodiscard]] unsigned jobs() const { return pool_.threads(); }

    /**
     * Run fn(0) .. fn(tasks - 1) across the pool, each exactly once.
     * Unlike the raw WorkerPool epoch, a throwing task does not
     * terminate the process: exceptions are captured per slot and the
     * lowest-slot one is rethrown on the calling thread after the
     * epoch completes (every non-throwing task still runs).
     */
    void forEach(std::size_t tasks,
                 const std::function<void(std::size_t)>& fn);

    /**
     * Render every scenario's full JSON export — byte-for-byte what
     * writeScenarioJson(os, points[i], threads) writes (no trailing
     * newline) — in slot order.
     */
    [[nodiscard]] std::vector<std::string>
    runScenarioJsons(const std::vector<Scenario>& points,
                     unsigned threads = 0);

    /**
     * Build, run and summarize every configuration (the bench_fig13-16
     * fan-out), results in slot order.
     */
    [[nodiscard]] std::vector<RunResult>
    runResults(const std::vector<SystemConfig>& configs,
               unsigned threads = 0);

    /**
     * Systems constructed across this executor's life: one per point
     * of every runScenarioJsons/runResults call.
     */
    [[nodiscard]] std::uint64_t systemsBuilt() const { return systemsBuilt_; }
    /**
     * Always 0: every point builds a fresh System. Kept for the
     * benchmark's harness.systems_reused counter.
     */
    [[nodiscard]] std::uint64_t systemsReused() const { return 0; }

    /**
     * Host wall-clock seconds of each point of the last
     * runScenarioJsons/runResults call, in slot order (build + run +
     * export). Host timings: report them (stderr, profiles) but
     * never put them in golden-compared output.
     */
    [[nodiscard]] const std::vector<double>& pointSeconds() const
    {
        return pointSeconds_;
    }

  private:
    WorkerPool pool_;
    std::uint64_t systemsBuilt_ = 0;
    /** Per-point wall seconds of the last batch (slot-ordered; each
     *  task writes only its own slot, so no synchronization needed). */
    std::vector<double> pointSeconds_;
};

} // namespace famsim

#endif // FAMSIM_HARNESS_EXECUTOR_HH
