/**
 * @file
 * TraceSink pins: the Chrome trace output must be structurally valid
 * JSON, sorted by event content (not emission order), and — for a
 * warmup-free scenario — byte-identical across `--threads {0,1,4}`
 * when restricted to packet-lifecycle events (psim window events only
 * exist under the parallel kernel). Observation must never perturb
 * the simulation: attaching a sink/profiler leaves the statistics
 * export bit-identical to an unobserved run.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/system.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/trace_sink.hh"

namespace famsim {
namespace {

/**
 * Minimal structural JSON check: string literals (with escapes)
 * respected, braces/brackets balanced and properly nested, exactly
 * one top-level value. Not a grammar-complete parser — enough to
 * catch an unterminated string or unbalanced nesting without an
 * external tool (CI additionally runs `python3 -m json.tool`).
 */
bool
jsonIsBalanced(const std::string& text)
{
    std::vector<char> stack;
    bool in_string = false;
    bool escaped = false;
    bool closed_top = false;
    for (char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            break;
          case '{':
          case '[':
            if (closed_top)
                return false; // trailing garbage after the root value
            stack.push_back(c);
            break;
          case '}':
          case ']':
            if (stack.empty())
                return false;
            if ((c == '}') != (stack.back() == '{'))
                return false;
            stack.pop_back();
            closed_top = stack.empty();
            break;
          default:
            break;
        }
    }
    return closed_top && stack.empty() && !in_string;
}

const Scenario&
baseScenario()
{
    return ScenarioRegistry::paper().byName("fig12_performance.base");
}

/** Run @p scenario once with a trace attached; return the trace text. */
std::string
runTraced(const Scenario& scenario, unsigned threads, unsigned categories)
{
    ScopedQuietLogs quiet;
    System system(scenario.config);
    TraceSink sink(system.traceLanes(), categories);
    system.attachTrace(&sink);
    system.run(threads);
    std::ostringstream os;
    sink.write(os);
    return os.str();
}

} // namespace

TEST(TraceSink, ValidatorRejectsBrokenJson)
{
    EXPECT_TRUE(jsonIsBalanced("{\"a\": [1, \"x\\\"]{\"]}"));
    EXPECT_FALSE(jsonIsBalanced("{\"a\": [1}"));
    EXPECT_FALSE(jsonIsBalanced("{\"a\": \"unterminated}"));
    EXPECT_FALSE(jsonIsBalanced("{}{}"));
    EXPECT_FALSE(jsonIsBalanced(""));
}

TEST(TraceSink, SortsByContentNotEmissionOrder)
{
    TraceSink sink(2);
    sink.setLaneName(0, "node0");
    sink.setLaneName(1, "broker");
    // Emitted out of timestamp order and across lanes; the flush must
    // order by (ts, lane, phase, name, ...) regardless.
    sink.span(TraceSink::kPacket, 1, "late", 2 * kNanosecond,
              3 * kNanosecond);
    sink.instant(TraceSink::kPsim, 0, "tick", kNanosecond);
    sink.span(TraceSink::kPacket, 0, "early", kNanosecond,
              2 * kNanosecond);
    std::ostringstream os;
    sink.write(os);
    const std::string text = os.str();
    EXPECT_EQ(sink.size(), 3u);
    EXPECT_TRUE(jsonIsBalanced(text)) << text;
    // Same tick, same lane: spans ('X') sort before instants ('i').
    EXPECT_LT(text.find("\"early\""), text.find("\"tick\"")) << text;
    EXPECT_LT(text.find("\"tick\""), text.find("\"late\"")) << text;
    EXPECT_NE(text.find("\"node0\""), std::string::npos);
    EXPECT_NE(text.find("\"broker\""), std::string::npos);
}

TEST(TraceSink, CategoryMaskDropsAtTheEmitSite)
{
    TraceSink packet_only(1, TraceSink::kPacket);
    EXPECT_TRUE(packet_only.wants(TraceSink::kPacket));
    EXPECT_FALSE(packet_only.wants(TraceSink::kPsim));
    packet_only.span(TraceSink::kPsim, 0, "dropped", 0, 10);
    packet_only.counter(TraceSink::kPsim, 0, "dropped", 0, 1);
    packet_only.span(TraceSink::kPacket, 0, "kept", 0, 10);
    EXPECT_EQ(packet_only.size(), 1u);
}

TEST(TraceSink, PacketTraceByteIdenticalAcrossKernels)
{
    // fig12_performance.base runs warmup-free, so the serial and
    // parallel kernels execute the same schedule and must produce the
    // same multiset of packet-lifecycle events — and, through the
    // content sort, the same bytes.
    const std::string serial =
        runTraced(baseScenario(), 0, TraceSink::kPacket);
    EXPECT_FALSE(serial.empty());
    EXPECT_TRUE(jsonIsBalanced(serial));
    EXPECT_EQ(runTraced(baseScenario(), 1, TraceSink::kPacket), serial);
    EXPECT_EQ(runTraced(baseScenario(), 4, TraceSink::kPacket), serial);
}

TEST(TraceSink, FullTraceByteIdenticalAcrossWorkerCounts)
{
    // With psim events included, determinism holds across worker
    // counts of the parallel kernel (the window sequence is pinned by
    // the conservative lookahead, not by the host thread interleaving).
    const std::string one = runTraced(baseScenario(), 1, TraceSink::kAll);
    EXPECT_TRUE(jsonIsBalanced(one));
    EXPECT_NE(one.find("psim.window"), std::string::npos);
    EXPECT_EQ(runTraced(baseScenario(), 4, TraceSink::kAll), one);
    // The serial kernel has no windows: its full trace is exactly its
    // packet trace.
    EXPECT_EQ(runTraced(baseScenario(), 0, TraceSink::kAll),
              runTraced(baseScenario(), 0, TraceSink::kPacket));
}

TEST(TraceSink, ObservationDoesNotPerturbTheSimulation)
{
    const Scenario& scenario = baseScenario();
    ScopedQuietLogs quiet;
    System plain(scenario.config);
    plain.run(0);
    const std::string baseline = plain.sim().stats().jsonString();
    // observability defaults off: no obs_* histograms in the export.
    EXPECT_EQ(baseline.find("obs_"), std::string::npos);

    System observed(scenario.config);
    TraceSink sink(observed.traceLanes());
    Profiler prof;
    observed.attachTrace(&sink);
    observed.attachProfiler(&prof);
    observed.run(0);
    EXPECT_GT(sink.size(), 0u);
    EXPECT_EQ(observed.sim().stats().jsonString(), baseline);
    // The profile block also carries the process footprint at run end.
    EXPECT_GT(prof.peakRssMb(), 0.0);
    EXPECT_GT(prof.minorFaults(), 0u);
    std::ostringstream profile;
    prof.writeJson(profile);
    EXPECT_NE(profile.str().find("\"peak_rss_mb\": "), std::string::npos);
    EXPECT_NE(profile.str().find("\"minflt\": "), std::string::npos);
    EXPECT_TRUE(jsonIsBalanced(profile.str()));
}

TEST(TraceSink, EmptyCategoryMaskRecordsNothingEndToEnd)
{
    // Every emit site must gate on wants(): a sink that wants no
    // category stays empty through a full system run.
    ScopedQuietLogs quiet;
    System system(baseScenario().config);
    TraceSink none(system.traceLanes(), 0);
    system.attachTrace(&none);
    system.run(4);
    EXPECT_EQ(none.size(), 0u);
    std::ostringstream os;
    none.write(os);
    EXPECT_TRUE(jsonIsBalanced(os.str()));
}

TEST(TraceSink, ObservedScenarioExportsGatedHistograms)
{
    const Scenario& scenario =
        ScenarioRegistry::paper().byName("fig12_performance.observed");
    ASSERT_TRUE(scenario.config.observability);
    ScopedQuietLogs quiet;
    System system(scenario.config);
    system.run(0);
    const std::string json = system.sim().stats().jsonString();
    for (const char* stat :
         {"node0.stu.obs_queue_wait_ns", "node0.stu.obs_translation_ns",
          "node0.translator.obs_lookup_ns", "fam.module0.obs_fabric_ns",
          "fam.module0.obs_service_ns", "node0.dram.obs_service_ns"}) {
        EXPECT_NE(json.find(stat), std::string::npos) << stat;
    }
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

} // namespace famsim
