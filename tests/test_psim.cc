/**
 * @file
 * Parallel kernel (src/psim/) tests.
 *
 * The headline property: for every registered paper scenario (and the
 * 16-node fig16 scaling point), the parallel kernel exports
 * byte-identical stats JSON for one worker thread and for many — the
 * schedule is deterministic by construction, so thread count must be
 * unobservable. The unit tests pin the mechanisms that property rests
 * on: arbitration merge order at window barriers, worker-pool epoch
 * semantics, sync-window bounds and the queue-id handle.
 *
 * FAMSIM_THREADS (when set and >= 2) selects the "many threads" side
 * of the determinism comparisons, so CI can re-run the suite at
 * different widths.
 *
 * The threads = 1 export of every scenario in that matrix is also
 * pinned by digest (tests/golden/psim_t1/<name>.fnv, FNV-1a 64), so a
 * kernel change that shifts every thread count alike still fails.
 * Regenerate the pins with FAMSIM_UPDATE_GOLDEN=1.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "arch/system.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"
#include "psim/parallel_sim.hh"
#include "psim/worker_pool.hh"
#include "sim/logging.hh"
#include "test_util.hh"

namespace famsim {
namespace {

/**
 * The wide side of every 1-vs-N comparison (>= 2). Defaults to 2 so
 * the FAMSIM_THREADS=4 CI pass genuinely covers a second width
 * instead of repeating the default run.
 */
unsigned
wideThreads()
{
    unsigned threads = threadsFromEnv(2);
    return threads >= 2 ? threads : 2;
}

// ------------------------------------------------- scenario property

/**
 * Compare @p json's digest against the scenario's pin file, or rewrite
 * the pin under FAMSIM_UPDATE_GOLDEN=1. One file per scenario, so a
 * regenerating `ctest -j` never races on a shared file.
 */
void
expectPinnedDigest(const std::string& name, const std::string& json)
{
    const std::string path =
        std::string(FAMSIM_GOLDEN_DIR) + "/psim_t1/" + name + ".fnv";
    const std::string digest = test::fnv1aHex(json);
    if (test::goldenUpdateRequested()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write pin " << path;
        out << digest << "\n";
        return;
    }
    std::ifstream in(path, std::ios::binary);
    std::string pinned;
    std::getline(in, pinned);
    ASSERT_FALSE(pinned.empty())
        << "missing pin " << path
        << " (regenerate with FAMSIM_UPDATE_GOLDEN=1)";
    EXPECT_EQ(pinned, digest)
        << "the threads=1 export of '" << name
        << "' diverged from its pin; if intentional, regenerate with "
           "FAMSIM_UPDATE_GOLDEN=1 and commit the diff";
}

/**
 * Every registered scenario (headline + golden sweep points, incl. the
 * 16-node fig16 scaling point) must export byte-identical JSON under
 * --threads 1 and --threads N, and the --threads 1 export must match
 * its pinned digest.
 */
class ParallelDeterminism : public testing::TestWithParam<std::string>
{
};

TEST_P(ParallelDeterminism, ThreadCountIsUnobservable)
{
    const std::string& name = GetParam();
    const Scenario& scenario =
        ScenarioRegistry::paper().has(name)
            ? ScenarioRegistry::paper().byName(name)
            : SweepRegistry::paperPoints().byName(name);
    const std::string one = runScenarioJson(scenario, 1);
    expectPinnedDigest(name, one);
    const std::string many = runScenarioJson(scenario, wideThreads());
    EXPECT_EQ(one, many)
        << "scenario '" << name << "' diverged between 1 and "
        << wideThreads() << " worker threads";
}

std::string
testId(const testing::TestParamInfo<std::string>& info)
{
    std::string id = info.param;
    for (char& c : id) {
        if (c == '.' || c == '-')
            c = '_';
    }
    return id;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ParallelDeterminism,
    testing::ValuesIn(ScenarioRegistry::paper().names()), testId);

// The 16-node scaling point is the acceptance anchor; the other golden
// sweep points ride along for coverage of every swept dimension.
INSTANTIATE_TEST_SUITE_P(SweepPoints, ParallelDeterminism,
                         testing::ValuesIn(goldenSweepPointNames()),
                         testId);

// The 32/64-node scaling points exercise the sharded kernel at the
// partition counts the fig16 extension targets (64 nodes = 129
// partitions); they are not golden-pinned (no serial reference files),
// so they appear here, in the 1-vs-N matrix, only.
INSTANTIATE_TEST_SUITE_P(
    ScalingPoints, ParallelDeterminism,
    testing::Values(std::string("fig16_num_nodes.n32"),
                    std::string("fig16_num_nodes.n64")),
    testId);

/** Runtime system-level faults (prefault off) take the barrier-op
 *  path through the broker; it must be just as deterministic. */
TEST(ParallelDeterminismExtra, RuntimeBrokerFaultsAreDeterministic)
{
    SystemConfig config =
        makeConfig(profiles::byName("mcf"), ArchKind::DeactN, 4000);
    config.nodes = 2;
    config.seed = 7;
    config.prefault = false;

    auto stats_json = [&](unsigned threads) {
        System system(config);
        system.run(threads);
        EXPECT_GT(system.sim().stats().get("broker.faults"), 0.0)
            << "config did not exercise the runtime fault path";
        return system.sim().stats().jsonString();
    };
    EXPECT_EQ(stats_json(1), stats_json(wideThreads()));
}

/**
 * The worst-case multi-tenant mix on the parallel kernel: runtime
 * faults (prefault off), tenant churn and broker migrations — logical
 * and physical — while every core keeps issuing. The migrations take
 * the barrier-op path (System posts them at the broker edge lookahead
 * and the ACM rewrite traffic is scheduled onto the owning media
 * partitions), so the whole mix must stay thread-count invariant.
 */
TEST(ParallelDeterminismExtra, MigrationUnderLoadIsDeterministic)
{
    SystemConfig config =
        makeConfig(profiles::byName("mcf"), ArchKind::DeactN, 8000);
    config.nodes = 2;
    config.seed = 7;
    config.prefault = false;
    config.tenancy.jobs = 3;
    config.tenancy.zipfSkew = 0.6;
    config.tenancy.churnMeanOps = 1500;
    config.migrations.push_back({3000, 0, 1, /*useLogicalIds=*/true});
    config.migrations.push_back({5000, 1, 0, /*useLogicalIds=*/false});

    auto stats_json = [&](unsigned threads) {
        System system(config);
        system.run(threads);
        EXPECT_DOUBLE_EQ(system.sim().stats().get("broker.migrations"),
                         2.0);
        EXPECT_GT(system.sim().stats().get("broker.faults"), 0.0)
            << "config did not exercise the runtime fault path";
        return system.sim().stats().jsonString();
    };
    const std::string one = stats_json(1);
    EXPECT_EQ(one, stats_json(2));
    EXPECT_EQ(one, stats_json(wideThreads()));
}

/**
 * Trace replay on the parallel kernel: a recorded scenario must replay
 * byte-identically at any worker count, and identically to the
 * synthetic run it was recorded from. (The registered *.selfreplay
 * scenarios already go through the 1-vs-N matrix above; this pins the
 * full record -> replay chain under both kernels explicitly.)
 */
TEST(ParallelDeterminismExtra, TraceReplayIsThreadCountInvariant)
{
    Scenario scenario;
    scenario.name = "test.trace_replay_threads";
    scenario.figure = "test";
    scenario.headlineMetric = "ipc";
    scenario.config = makeConfig(profiles::uniformTest(4ull << 20),
                                 ArchKind::DeactN, 4000);
    scenario.config.nodes = 2;
    scenario.config.coresPerNode = 2;
    scenario.config.seed = 5;

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("famsim_psim_replay_" +
          std::to_string(::testing::UnitTest::GetInstance()
                             ->random_seed())))
            .string();
    const std::string synthetic = runScenarioJson(scenario, 1);
    const std::string recorded = recordScenarioTraces(
        scenario, dir, TraceFormat::Binary, /*threads=*/1);
    EXPECT_EQ(synthetic, recorded);
    EXPECT_EQ(synthetic, replayScenarioJson(scenario, dir, 1));
    EXPECT_EQ(synthetic,
              replayScenarioJson(scenario, dir, wideThreads()));
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

// ------------------------------------------------------- arbitration

/** Arbitrated sends drain in (sendTick, src, seq) order and receive
 *  the sender's tick, not the drain-time tick. */
TEST(Arbitration, ArbitratedDrainUsesSenderTickOrder)
{
    Simulation sim;
    ParallelSim psim(sim, /*partitions=*/3, /*lookahead=*/50, 2);

    std::vector<std::pair<Tick, unsigned>> order;
    auto arb = [&](unsigned src) {
        return [&order, &sim, &psim, src](Tick sent) {
            order.emplace_back(sent, src);
            // Contract: schedule the delivery >= sent + lookahead.
            sim.events().schedule(sent + 50, [] {});
        };
    };
    psim.withPartition(2, [&] {
        sim.events().schedule(7, [&psim, arb] { psim.postArbitrated(0, arb(2)); });
    });
    psim.withPartition(1, [&] {
        sim.events().schedule(7, [&psim, arb] { psim.postArbitrated(0, arb(1)); });
        sim.events().schedule(3, [&psim, arb] { psim.postArbitrated(0, arb(1)); });
    });
    psim.run();

    std::vector<std::pair<Tick, unsigned>> expected{
        {3, 1}, {7, 1}, {7, 2}};
    EXPECT_EQ(order, expected);
}

/**
 * Arbitration is one merge pass: a callback that posts another
 * arbitrated send is a modeling bug (FabricLink's callbacks only
 * schedule), so the nested send panics instead of queueing a second
 * round.
 */
TEST(Arbitration, NestedSendFromACallbackPanics)
{
    ScopedThrowOnError throw_on_error;
    Simulation sim;
    ParallelSim psim(sim, /*partitions=*/2, /*lookahead=*/50, 1);
    bool arbitrated = false;
    psim.withPartition(0, [&] {
        sim.events().schedule(5, [&] {
            psim.postArbitrated(1, [&](Tick sent) {
                arbitrated = true;
                EXPECT_THROW(psim.postArbitrated(0, [](Tick) {}),
                             SimError);
                sim.events().schedule(sent + 50, [] {});
            });
        });
    });
    psim.run();
    EXPECT_TRUE(arbitrated);
}

// ---------------------------------------------------- global barrier ops

TEST(GlobalOps, RunAtBarriersInDueSourceOrder)
{
    Simulation sim;
    ParallelSim psim(sim, 2, /*lookahead=*/100, 2);

    std::vector<std::pair<Tick, unsigned>> order;
    psim.withPartition(1, [&] {
        sim.events().schedule(5, [&] {
            psim.postGlobal(205, [&] { order.emplace_back(205, 1u); });
        });
    });
    psim.withPartition(0, [&] {
        sim.events().schedule(5, [&] {
            psim.postGlobal(205, [&] { order.emplace_back(205, 0u); });
            psim.postGlobal(110, [&] { order.emplace_back(110, 0u); });
        });
    });
    psim.run();

    std::vector<std::pair<Tick, unsigned>> expected{
        {110, 0u}, {205, 0u}, {205, 1u}};
    EXPECT_EQ(order, expected);
}

// ------------------------------------------------------- worker pool

TEST(WorkerPool, EveryTaskRunsExactlyOncePerEpoch)
{
    WorkerPool pool(3);
    EXPECT_EQ(pool.threads(), 3u);
    for (int epoch = 0; epoch < 50; ++epoch) {
        constexpr std::size_t kTasks = 17; // more tasks than workers
        std::vector<std::atomic<int>> counts(kTasks);
        pool.runEpoch(kTasks, [&](std::size_t task) {
            counts[task].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t t = 0; t < kTasks; ++t)
            EXPECT_EQ(counts[t].load(), 1) << "task " << t;
    }
}

TEST(WorkerPool, SingleThreadRunsInline)
{
    WorkerPool pool(1);
    std::vector<std::size_t> ran;
    pool.runEpoch(4, [&](std::size_t task) { ran.push_back(task); });
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));
    pool.runEpoch(0, [&](std::size_t) { FAIL() << "no tasks expected"; });
}

// -------------------------------------------------- per-edge lookahead

/** The famSystem topology used by the sharded-kernel units: two nodes,
 *  two media modules, a broker; fabric edge 100, broker edge 1000. */
ParallelSim::Topology
famTopology()
{
    ParallelSim::Topology topo;
    topo.nodes = 2;
    topo.mediaModules = 2;
    topo.fabricLookahead = 100;
    topo.brokerLookahead = 1000;
    return topo;
}

TEST(PerEdgeLookahead, TopologyLaysOutNodesMediaBroker)
{
    Simulation sim;
    ParallelSim psim(sim, famTopology(), 1);
    EXPECT_EQ(psim.partitions(), 5u);
    EXPECT_EQ(psim.nodePartition(1), 1u);
    EXPECT_EQ(psim.mediaPartition(0), 2u);
    EXPECT_EQ(psim.mediaPartition(1), 3u);
    EXPECT_EQ(psim.brokerPartition(), 4u);
    EXPECT_EQ(psim.kindOf(0), ParallelSim::Kind::Node);
    EXPECT_EQ(psim.kindOf(2), ParallelSim::Kind::Media);
    EXPECT_EQ(psim.kindOf(4), ParallelSim::Kind::Broker);
    // The matrix: node<->media at the fabric latency, broker edges at
    // the service latency, same-kind pairs edgeless.
    EXPECT_EQ(psim.lookaheadBetween(0, 2), 100u);
    EXPECT_EQ(psim.lookaheadBetween(3, 1), 100u);
    EXPECT_EQ(psim.lookaheadBetween(0, 4), 1000u);
    EXPECT_EQ(psim.lookaheadBetween(4, 2), 1000u);
    EXPECT_EQ(psim.lookaheadBetween(0, 1), ParallelSim::kNever);
    EXPECT_EQ(psim.lookaheadBetween(2, 3), ParallelSim::kNever);
    // The base window width is the smallest finite edge.
    EXPECT_EQ(psim.lookahead(), 100u);
    psim.run();
}

/** Arbitrated sends ride the (src, dst) edge floor, not a single
 *  global lookahead — and panic outright on edgeless pairs. */
TEST(PerEdgeLookahead, PostsEnforceTheEdgeFloors)
{
    ScopedThrowOnError throw_on_error;
    Simulation sim;
    ParallelSim psim(sim, famTopology(), 1);
    std::vector<std::pair<std::uint32_t, Tick>> delivered;
    // Deliver at the sender's tick plus the edge floor, as FabricLink
    // does for the fabric edge.
    auto atFloor = [&](std::uint32_t dst) {
        return [&, dst](Tick sent) {
            sim.events().schedule(sent + psim.lookaheadBetween(0, dst),
                                  [&, dst] {
                                      delivered.emplace_back(
                                          dst, sim.curTick());
                                  });
        };
    };
    psim.withPartition(0, [&] {
        sim.events().schedule(10, [&] {
            // node -> media rides the fabric edge (100)...
            psim.postArbitrated(2, atFloor(2));
            // ...node -> broker the service edge (1000)...
            psim.postArbitrated(4, atFloor(4));
            // ...and node -> node has no edge at all.
            EXPECT_THROW(psim.postArbitrated(1, [](Tick) {}), SimError);
        });
    });
    psim.run();
    std::vector<std::pair<std::uint32_t, Tick>> expected{{2, 110},
                                                         {4, 1010}};
    EXPECT_EQ(delivered, expected);
}

/**
 * Every window is one smallest edge wide, whichever partition anchors
 * it: media-only work opens [7, 7 + 100), the fabric edge, even though
 * the broker edge is ten times longer.
 */
TEST(PerEdgeLookahead, WindowBoundsFollowTheMatrix)
{
    Simulation sim;
    ParallelSim psim(sim, famTopology(), 1);
    // Pending work on media module 0 only: window [7, 7 + 100).
    psim.withPartition(2, [&] { sim.events().schedule(7, [] {}); });
    psim.run();
    EXPECT_EQ(psim.epoch(), 1u);
    EXPECT_EQ(psim.queueOf(2).curTick(), 106u);
}

// ------------------------------------------------ fixed-width windows

/**
 * Windows keep their width: broker-partition work spread over 5
 * lookaheads (cheapest outgoing edge 1000) takes one window per
 * 100-tick step, and the idle gap before the node event at 900 is
 * skipped in one hop — [10, 110) ... [510, 610), then [900, 1000):
 * 7 windows.
 */
TEST(FixedWindow, IdleGapTakesOneWindowPerLookahead)
{
    Simulation sim;
    ParallelSim psim(sim, famTopology(), 1);
    std::uint64_t broker_events = 0;
    psim.withPartition(psim.brokerPartition(), [&] {
        for (Tick t = 10; t <= 510; t += 100)
            sim.events().schedule(t, [&broker_events] { ++broker_events; });
    });
    bool node_ran = false;
    psim.withPartition(0, [&] {
        sim.events().schedule(900, [&node_ran] { node_ran = true; });
    });
    psim.run();
    EXPECT_EQ(broker_events, 6u);
    EXPECT_TRUE(node_ran);
    EXPECT_EQ(psim.epoch(), 7u);
}

/** The uniform (test) topology: spacing beyond the lookahead costs
 *  one epoch per hop. */
TEST(FixedWindow, UniformTopologyKeepsFixedWidth)
{
    Simulation sim;
    ParallelSim psim(sim, /*partitions=*/2, /*lookahead=*/100, 1);
    psim.withPartition(0, [&] {
        sim.events().schedule(10, [] {});
        sim.events().schedule(250, [] {});
    });
    psim.run();
    // [10, 110) then [250, 350): the gap is skipped.
    EXPECT_EQ(psim.epoch(), 2u);
}

/**
 * An arbitrated send still in its lane at the barrier, with nothing
 * else pending anywhere, anchors the next window at its delivery tick:
 * arbitration runs before the window scan, so the scan reads the
 * delivery off the destination queue. Scanning first would see no
 * pending work and end the run with the delivery undelivered.
 */
TEST(FixedWindow, UndrainedPostAnchorsTheNextWindow)
{
    Simulation sim;
    ParallelSim psim(sim, /*partitions=*/2, /*lookahead=*/100, 1);
    Tick delivered = 0;
    psim.withPartition(0, [&] {
        sim.events().schedule(10, [&] {
            psim.postArbitrated(1, [&](Tick sent) {
                sim.events().schedule(sent + 4990, [&] {
                    delivered = sim.curTick();
                });
            });
        });
    });
    psim.run();
    // [10, 110) sends; the delivery is the only pending work, so the
    // next window is [5000, 5100).
    EXPECT_EQ(delivered, 5000u);
    EXPECT_EQ(psim.epoch(), 2u);
    EXPECT_EQ(psim.queueOf(1).curTick(), 5099u);
}

// ------------------------------------------------------- sync window

TEST(SyncWindow, OpensAtMinPendingAndTracksEpochs)
{
    SyncWindow window(450);
    EXPECT_EQ(window.lookahead(), 450u);
    EXPECT_EQ(window.epoch(), 0u);
    auto bounds = window.open(1000);
    EXPECT_EQ(bounds.start, 1000u);
    EXPECT_EQ(bounds.end, 1450u);
    bounds = window.open(5000); // idle gap skipped in one hop
    EXPECT_EQ(bounds.start, 5000u);
    EXPECT_EQ(bounds.end, 5450u);
    EXPECT_EQ(window.epoch(), 2u);
}

TEST(SyncWindow, RejectsZeroLookaheadAndBackwardWindows)
{
    ScopedThrowOnError throw_on_error;
    EXPECT_THROW(SyncWindow bad(0), SimError);
    SyncWindow window(10);
    (void)window.open(100);
    EXPECT_THROW((void)window.open(50), SimError);
}

/** A pending global op's due caps the window below the full width. */
TEST(SyncWindow, GlobalOpDueCapsTheWindow)
{
    SyncWindow window(100);
    auto bounds = window.open(10, /*cap=*/50);
    EXPECT_EQ(bounds.start, 10u);
    EXPECT_EQ(bounds.end, 50u);
    bounds = window.open(2000, /*cap=*/5000); // cap past the width
    EXPECT_EQ(bounds.end, 2100u);
    EXPECT_EQ(window.epoch(), 2u);
}

/** Near the Tick horizon the window end saturates instead of
 *  wrapping (a wrapped end would open a backwards, empty window). */
TEST(SyncWindow, WindowEndSaturatesAtTheTickHorizon)
{
    ScopedThrowOnError throw_on_error;
    EXPECT_EQ(SyncWindow::satAdd(SyncWindow::kTickMax - 5, 100),
              SyncWindow::kTickMax);
    EXPECT_EQ(SyncWindow::satAdd(7, SyncWindow::kTickMax),
              SyncWindow::kTickMax);
    EXPECT_EQ(SyncWindow::satAdd(7, 100), 107u);

    SyncWindow window(100);
    auto bounds = window.open(SyncWindow::kTickMax - 5);
    EXPECT_EQ(bounds.end, SyncWindow::kTickMax);
    // An empty (or wrapped) window is a kernel bug and must be caught.
    EXPECT_THROW((void)window.open(SyncWindow::kTickMax,
                                   SyncWindow::kTickMax),
                 SimError);
}

// ------------------------------------------------- queue-id handle

TEST(QueueHandle, PartitionQueuesCarryTheirIdAndNextTick)
{
    Simulation sim;
    ParallelSim psim(sim, 3, /*lookahead=*/10, 1);
    EXPECT_EQ(psim.brokerPartition(), 2u);
    for (std::uint32_t p = 0; p < 3; ++p)
        EXPECT_EQ(psim.queueOf(p).id(), p);

    EXPECT_EQ(psim.queueOf(1).nextTick(), EventQueue::kForever);
    psim.withPartition(1, [&] {
        EXPECT_EQ(&sim.events(), &psim.queueOf(1))
            << "events() must resolve to the entered partition";
        sim.events().schedule(42, [] {});
    });
    EXPECT_EQ(psim.queueOf(1).nextTick(), 42u);
    EXPECT_EQ(sim.serialEvents().id(), 0u);
    psim.run();
    // The window [42, 52) ran every partition through the horizon.
    EXPECT_EQ(psim.queueOf(1).curTick(), 51u);
    EXPECT_EQ(psim.queueOf(1).executed(), 1u);
}

} // namespace
} // namespace famsim
