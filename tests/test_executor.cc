/**
 * @file
 * SweepExecutor pins.
 *
 * The executor's contract is byte-identical output for every job
 * count. These tests pin the load-bearing claims: slots come back in
 * submission order (not completion order), every point runs on its
 * own fresh System, and a throwing point surfaces on the calling
 * thread without killing its siblings.
 */

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/executor.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"
#include "sim/logging.hh"

using namespace famsim;

namespace {

/**
 * A budget-trimmed copy of a paper sweep: same base and axis, every
 * point capped at @p instr instructions and the axis cut to
 * @p max_points. Identity across job counts holds for any budget, so
 * the cheap copy keeps the every-sweep matrix affordable on each
 * ctest run (the full-budget export is pinned separately on fig14,
 * the cheapest sweep).
 */
Sweep
trimmedSweep(const std::string& name, std::uint64_t instr,
             std::size_t max_points)
{
    Sweep sweep = SweepRegistry::paper().byName(name);
    if (sweep.axis.points.size() > max_points)
        sweep.axis.points.resize(max_points);
    for (auto& p : sweep.axis.points) {
        auto inner = p.apply;
        p.apply = [inner, instr](SystemConfig& c) {
            inner(c);
            c.core.instructionLimit = instr;
        };
    }
    return sweep;
}

} // namespace

TEST(SweepExecutor, ZeroJobsClampsToOne)
{
    SweepExecutor executor(0);
    EXPECT_EQ(executor.jobs(), 1u);
    EXPECT_EQ(SweepExecutor(8).jobs(), 8u);
}

TEST(SweepExecutor, ForEachRunsEveryTaskIntoItsSlot)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        SweepExecutor executor(jobs);
        std::vector<std::size_t> slots(97, 0);
        std::atomic<std::size_t> ran{0};
        executor.forEach(slots.size(), [&](std::size_t task) {
            slots[task] = task + 1;
            ran.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(ran.load(), slots.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < slots.size(); ++i)
            ASSERT_EQ(slots[i], i + 1) << "jobs=" << jobs;
    }
}

TEST(SweepExecutor, ForEachRethrowsTheLowestSlotException)
{
    SweepExecutor executor(4);
    std::atomic<std::size_t> ran{0};
    try {
        executor.forEach(16, [&](std::size_t task) {
            if (task == 11 || task == 3)
                throw std::runtime_error("boom " + std::to_string(task));
            ran.fetch_add(1, std::memory_order_relaxed);
        });
        FAIL() << "forEach swallowed the task exceptions";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom 3");
    }
    // Sibling tasks keep running; only the two throwers are missing.
    EXPECT_EQ(ran.load(), 14u);
}

TEST(SweepExecutor, ConstructionFailureOnWorkerSurfacesOnCaller)
{
    // translator.cacheBytes > os.reservedLocalBytes trips a finalize
    // assertion inside the worker-side System construction; the
    // executor must carry it back to the calling thread (the logging
    // moderation depths are process-wide, so ScopedThrowOnError held
    // here governs the workers too).
    SystemConfig good =
        makeConfig(profiles::byName("mcf"), ArchKind::DeactN, 2000);
    SystemConfig bad = good;
    bad.translator.cacheBytes = bad.os.reservedLocalBytes + 1;
    ScopedThrowOnError throw_on_error;
    ScopedQuietLogs quiet;
    SweepExecutor executor(2);
    EXPECT_THROW(
        { (void)executor.runResults({good, bad}, 0); }, SimError);
}

TEST(SweepExecutor, RunResultsMatchesRunOne)
{
    std::vector<SystemConfig> configs;
    for (ArchKind arch : {ArchKind::IFam, ArchKind::DeactN})
        configs.push_back(
            makeConfig(profiles::byName("mcf"), arch, 4000));
    ScopedQuietLogs quiet;
    SweepExecutor executor(2);
    const std::vector<RunResult> pooled = executor.runResults(configs, 0);
    ASSERT_EQ(pooled.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const RunResult serial = runOne(configs[i], 0);
        EXPECT_EQ(pooled[i].benchmark, serial.benchmark);
        EXPECT_EQ(pooled[i].arch, serial.arch);
        EXPECT_EQ(pooled[i].ipc, serial.ipc);
        EXPECT_EQ(pooled[i].famRequests, serial.famRequests);
        EXPECT_EQ(pooled[i].famAtRequests, serial.famAtRequests);
    }
}

TEST(SweepExecutor, SweepJsonByteIdenticalAcrossJobCounts)
{
    // Every paper sweep, budget-trimmed (fig16 additionally cut to the
    // paper's 1-8 node range — the 16-64 node extension is covered by
    // the pooled golden-runner test at CI's FAMSIM_SWEEP_JOBS).
    for (const std::string& name : SweepRegistry::paper().names()) {
        const Sweep sweep = trimmedSweep(name, 6000, 4);
        const std::string serial = runSweepJson(sweep, 0, 1);
        for (unsigned jobs : {2u, 8u}) {
            EXPECT_EQ(runSweepJson(sweep, 0, jobs), serial)
                << name << " at jobs=" << jobs;
        }
    }
}

TEST(SweepExecutor, FullBudgetSweepByteIdenticalAcrossJobCounts)
{
    // One sweep at its real pinned budget, so the trimmed matrix above
    // can never mask a budget-dependent divergence. fig14 is the
    // cheapest full sweep (3 points x 24k instructions).
    const Sweep& sweep = SweepRegistry::paper().byName("fig14_acm_size");
    const std::string serial = runSweepJson(sweep, 0, 1);
    EXPECT_EQ(runSweepJson(sweep, 0, 3), serial);
}

TEST(SweepExecutor, BuildsOneSystemPerPoint)
{
    ScopedQuietLogs quiet;
    const Sweep sweep = trimmedSweep("fig13_stu_entries", 4000, 5);
    const std::vector<Scenario> points = sweep.expand();
    SweepExecutor executor(1);
    (void)executor.runScenarioJsons(points, 0);
    EXPECT_EQ(executor.systemsBuilt(), points.size());
    EXPECT_EQ(executor.systemsReused(), 0u);
}
