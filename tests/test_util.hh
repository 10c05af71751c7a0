/**
 * @file
 * Shared test utilities: a fixed-latency memory stub, packet helpers
 * and the golden-file plumbing used across the unit tests.
 */

#ifndef FAMSIM_TESTS_TEST_UTIL_HH
#define FAMSIM_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mem/mem_sink.hh"
#include "sim/simulation.hh"

/** Source-tree golden directory (tests/CMakeLists.txt sets it). */
#ifndef FAMSIM_GOLDEN_DIR
#define FAMSIM_GOLDEN_DIR "tests/golden"
#endif

namespace famsim::test {

/** A memory sink that completes every access after a fixed latency. */
class StubMemory : public MemSink
{
  public:
    StubMemory(Simulation& sim, Tick latency)
        : sim_(sim), latency_(latency)
    {
    }

    void
    access(const PktPtr& pkt) override
    {
        ++accesses;
        lastAddr = pkt->npa.value();
        kinds.push_back(pkt->kind);
        sim_.events().scheduleAfter(latency_, [pkt] { pkt->complete(); });
    }

    std::uint64_t accesses = 0;
    std::uint64_t lastAddr = 0;
    std::vector<PacketKind> kinds;

  private:
    Simulation& sim_;
    Tick latency_;
};

/** Make a simple data read packet for the given NPA. */
inline PktPtr
dataRead(std::uint64_t npa, NodeId node = 0)
{
    PktPtr pkt = makePacket(node, 0, MemOp::Read, PacketKind::Data);
    pkt->npa = NPAddr(npa);
    return pkt;
}

/** Run the simulation until the event queue drains. */
inline void
drain(Simulation& sim)
{
    sim.run();
}

/**
 * True when FAMSIM_UPDATE_GOLDEN is set (and not "0"): golden tests
 * then rewrite their committed files instead of comparing.
 */
inline bool
goldenUpdateRequested()
{
    const char* env = std::getenv("FAMSIM_UPDATE_GOLDEN");
    return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/**
 * FNV-1a 64 of @p text as 16 lowercase hex digits — the scheme of
 * perfbench/digests.txt.
 */
inline std::string
fnv1aHex(const std::string& text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

} // namespace famsim::test

#endif // FAMSIM_TESTS_TEST_UTIL_HH
