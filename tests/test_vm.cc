/**
 * @file
 * Tests for the virtual-memory substrate: hierarchical page tables,
 * TLBs, PTW caches, the node walker and the node OS.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/rng.hh"
#include "test_util.hh"
#include "vm/node_os.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

namespace famsim {
namespace {

using test::StubMemory;

// ------------------------------------------------------------ page table

class PageTableTest : public ::testing::Test
{
  protected:
    PageTableTest()
        : table_([this] { return nextPage_ += kPageSize; })
    {
    }

    std::uint64_t nextPage_ = 0;
    HierarchicalPageTable table_;
};

TEST_F(PageTableTest, LookupAfterMap)
{
    table_.map(0x1234, 0x9999, Perms{true, false, false});
    auto leaf = table_.lookup(0x1234);
    ASSERT_TRUE(leaf.has_value());
    EXPECT_EQ(leaf->valuePage, 0x9999u);
    EXPECT_TRUE(leaf->perms.r);
    EXPECT_FALSE(leaf->perms.w);
    EXPECT_FALSE(table_.lookup(0x1235).has_value());
}

TEST_F(PageTableTest, WalkTouchesFourLevelsWhenMapped)
{
    table_.map(0x1234, 0x9999, Perms{});
    auto result = table_.walk(0x1234);
    ASSERT_EQ(result.steps.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(result.steps[i].level, i);
    ASSERT_TRUE(result.leaf.has_value());
    EXPECT_EQ(result.leaf->valuePage, 0x9999u);
}

TEST_F(PageTableTest, WalkStopsAtNonPresentLevel)
{
    auto result = table_.walk(0x5555);
    EXPECT_EQ(result.steps.size(), 1u); // only the root entry read
    EXPECT_FALSE(result.leaf.has_value());
}

TEST_F(PageTableTest, NeighbouringPagesShareTables)
{
    table_.map(0x1000, 1, Perms{});
    std::size_t pages_before = table_.tablePages();
    table_.map(0x1001, 2, Perms{});
    EXPECT_EQ(table_.tablePages(), pages_before); // same PTE table
    table_.map(0x1000 + 512, 3, Perms{});
    EXPECT_EQ(table_.tablePages(), pages_before + 1); // new PTE table
}

TEST_F(PageTableTest, UnmapRemovesLeafOnly)
{
    table_.map(0x42, 7, Perms{});
    EXPECT_EQ(table_.mappings(), 1u);
    EXPECT_TRUE(table_.unmap(0x42));
    EXPECT_EQ(table_.mappings(), 0u);
    EXPECT_FALSE(table_.unmap(0x42));
    EXPECT_FALSE(table_.lookup(0x42).has_value());
}

TEST_F(PageTableTest, EntryAddrMatchesWalkSteps)
{
    table_.map(0xABCDE, 11, Perms{});
    auto result = table_.walk(0xABCDE);
    for (const auto& step : result.steps) {
        auto addr = table_.entryAddr(0xABCDE, step.level);
        ASSERT_TRUE(addr.has_value());
        EXPECT_EQ(*addr, step.addr);
    }
}

TEST_F(PageTableTest, LevelIndexAndPrefixMath)
{
    std::uint64_t page = (3ull << 27) | (5ull << 18) | (7ull << 9) | 9;
    EXPECT_EQ(HierarchicalPageTable::levelIndex(page, 0), 3u);
    EXPECT_EQ(HierarchicalPageTable::levelIndex(page, 1), 5u);
    EXPECT_EQ(HierarchicalPageTable::levelIndex(page, 2), 7u);
    EXPECT_EQ(HierarchicalPageTable::levelIndex(page, 3), 9u);
    EXPECT_EQ(HierarchicalPageTable::levelPrefix(page, 3), page);
}

TEST_F(PageTableTest, ManyMappingsRoundTrip)
{
    for (std::uint64_t i = 0; i < 5000; ++i)
        table_.map(i * 977, i, Perms{});
    for (std::uint64_t i = 0; i < 5000; ++i) {
        auto leaf = table_.lookup(i * 977);
        ASSERT_TRUE(leaf.has_value());
        EXPECT_EQ(leaf->valuePage, i);
    }
}

TEST_F(PageTableTest, EveryPermsCombinationRoundTrips)
{
    // All 8 r/w/x combinations, write-only included (the paper's 2-bit
    // field cannot hold it), each at the largest allowed value page.
    for (unsigned bits = 0; bits < 8; ++bits) {
        Perms perms{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
        table_.map(bits, HierarchicalPageTable::kMaxValuePage - bits, perms);
    }
    for (unsigned bits = 0; bits < 8; ++bits) {
        Perms perms{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
        HierarchicalPageTable::Leaf expect{
            HierarchicalPageTable::kMaxValuePage - bits, perms};
        EXPECT_EQ(table_.lookup(bits), expect);
        EXPECT_EQ(table_.walk(bits).leaf, expect);
    }
}

TEST(PageTableDeathTest, ValuePageAbove61BitsPanics)
{
    std::uint64_t next = 0;
    HierarchicalPageTable table([&next] { return next += kPageSize; });
    EXPECT_DEATH(table.map(1, HierarchicalPageTable::kMaxValuePage + 1,
                           Perms{}),
                 "61 bits");
    EXPECT_DEATH(table.map(2, ~std::uint64_t{0}, Perms{}), "61 bits");
    HierarchicalPageTable::BulkMapper mapper(table);
    EXPECT_DEATH(mapper.mapIfAbsent(3, Perms{},
                                    [] { return std::uint64_t{1} << 61; }),
                 "61 bits");
}

/**
 * Random map / re-map / unmap / lookup / walk / entryAddr /
 * BulkMapper::mapIfAbsent against a std::map reference, over a dense
 * key set (one 512-page leaf range) and a scattered one (one key per
 * leaf range). Also pins the table-page side effects: pages are
 * allocated only by mapping a key under a new prefix, and a table's
 * simulated base never moves.
 */
TEST_F(PageTableTest, RandomOpsMatchReferenceModel)
{
    constexpr unsigned kLeafLevel = HierarchicalPageTable::kLevels - 1;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 512; ++i)
        keys.push_back((0x2468ull << 9) | i); // dense: one leaf range
    Rng rng(42);
    for (std::uint64_t i = 0; i < 512; ++i) // scattered: one per range
        keys.push_back((rng.below64(std::uint64_t{1} << 27) << 9) |
                       rng.below(512));

    std::map<std::uint64_t, HierarchicalPageTable::Leaf> ref;
    std::map<std::uint64_t, std::uint64_t> pteBase; // leaf prefix -> base
    std::set<std::pair<unsigned, std::uint64_t>> tables; // (level, prefix)
    auto noteTables = [&](std::uint64_t key) {
        for (unsigned level = 1; level < HierarchicalPageTable::kLevels;
             ++level) {
            tables.emplace(level,
                           HierarchicalPageTable::levelPrefix(key, level - 1));
        }
    };
    auto randomLeaf = [&] {
        std::uint64_t value = rng.chance(0.1)
                                  ? HierarchicalPageTable::kMaxValuePage
                                  : rng.below64(std::uint64_t{1} << 61);
        unsigned bits = rng.below(8);
        return HierarchicalPageTable::Leaf{
            value, Perms{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0}};
    };

    HierarchicalPageTable::BulkMapper mapper(table_);
    for (int op = 0; op < 100000; ++op) {
        std::uint64_t key = keys[rng.below(keys.size())];
        auto it = ref.find(key);
        switch (rng.below(6)) {
          case 0: { // map or re-map
            auto leaf = randomLeaf();
            table_.map(key, leaf.valuePage, leaf.perms);
            ref[key] = leaf;
            noteTables(key);
            break;
          }
          case 1: // unmap
            EXPECT_EQ(table_.unmap(key), it != ref.end());
            if (it != ref.end())
                ref.erase(it);
            break;
          case 2: { // mapIfAbsent
            auto leaf = randomLeaf();
            bool called = false;
            bool installed = mapper.mapIfAbsent(key, leaf.perms, [&] {
                called = true;
                return leaf.valuePage;
            });
            EXPECT_EQ(installed, it == ref.end());
            EXPECT_EQ(called, installed);
            if (installed) {
                ref[key] = leaf;
                noteTables(key);
            }
            break;
          }
          case 3: // lookup
            if (it == ref.end())
                EXPECT_FALSE(table_.lookup(key).has_value());
            else
                EXPECT_EQ(table_.lookup(key), it->second);
            break;
          default: { // walk + entryAddr
            auto result = table_.walk(key);
            if (it == ref.end())
                EXPECT_FALSE(result.leaf.has_value());
            else
                EXPECT_EQ(result.leaf, it->second);
            for (const auto& step : result.steps)
                EXPECT_EQ(table_.entryAddr(key, step.level), step.addr);
            auto addr = table_.entryAddr(key, kLeafLevel);
            std::uint64_t prefix =
                HierarchicalPageTable::levelPrefix(key, kLeafLevel - 1);
            ASSERT_EQ(addr.has_value(),
                      tables.count({kLeafLevel, prefix}) == 1);
            if (addr)
                ASSERT_EQ(result.steps.size(), HierarchicalPageTable::kLevels);
            else
                ASSERT_LT(result.steps.size(), HierarchicalPageTable::kLevels);
            if (addr) {
                std::uint64_t base =
                    *addr - HierarchicalPageTable::levelIndex(key, kLeafLevel) *
                                HierarchicalPageTable::kEntryBytes;
                EXPECT_EQ(pteBase.emplace(prefix, base).first->second, base);
            }
            break;
          }
        }
        ASSERT_EQ(table_.mappings(), ref.size());
        ASSERT_EQ(table_.tablePages(), tables.size() + 1);
    }
    for (std::uint64_t key : keys) {
        auto it = ref.find(key);
        if (it == ref.end())
            EXPECT_FALSE(table_.lookup(key).has_value());
        else
            EXPECT_EQ(table_.lookup(key), it->second);
    }
}

TEST_F(PageTableTest, SparseLeafTablesStayCompact)
{
    // 1024 keys, one per 512-page leaf range, so 1024 PTE tables: a
    // direct-indexed Leaf[512] array per table would cost 8 KB each
    // (~8.5 MB in all); packed, each holds one 8-byte leaf.
    for (std::uint64_t i = 0; i < 1024; ++i)
        table_.map(i * HierarchicalPageTable::kEntries + (i % 512), i,
                   Perms{});
    EXPECT_LT(table_.hostBytes(), 256u * 1024);
}

TEST_F(PageTableTest, FullLeafTableHoldsAtMostFourKB)
{
    table_.map(0, 0, Perms{});
    // Everything but the one-leaf vector: four table nodes and three
    // children arrays, which filling the PTE table does not grow.
    std::size_t tables = table_.hostBytes() - sizeof(std::uint64_t);
    for (std::uint64_t i = 1; i < HierarchicalPageTable::kEntries; ++i)
        table_.map(i, i, Perms{});
    EXPECT_EQ(table_.tablePages(), 4u);
    // 512 packed 8-byte leaves: half a 16-byte-per-entry Leaf[512].
    EXPECT_LE(table_.hostBytes() - tables, 4096u);
}

TEST(Perms, TwoBitEncodingRoundTrips)
{
    for (std::uint8_t bits = 0; bits < 4; ++bits) {
        Perms p = Perms::decode2b(bits);
        EXPECT_EQ(p.encode2b(), bits);
    }
    EXPECT_TRUE((Perms{true, true, false}.allows(false)));
    EXPECT_TRUE((Perms{true, true, false}.allows(true)));
    EXPECT_FALSE((Perms{true, false, false}.allows(true)));
    EXPECT_FALSE((Perms{false, false, false}.allows(false)));
    EXPECT_TRUE((Perms{true, true, true}.allows(false, true)));
    EXPECT_FALSE((Perms{true, true, false}.allows(false, true)));
}

// ------------------------------------------------------------------- tlb

TEST(Tlb, HitMissAndStats)
{
    Simulation sim;
    Tlb tlb(sim, "tlb", 4, 4, 500);
    EXPECT_FALSE(tlb.lookup(1).has_value());
    tlb.insert(1, TlbEntry{100, Perms{}});
    auto entry = tlb.lookup(1);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->valuePage, 100u);
    EXPECT_DOUBLE_EQ(sim.stats().get("tlb.hits"), 1.0);
    EXPECT_DOUBLE_EQ(sim.stats().get("tlb.misses"), 1.0);
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
}

TEST(Tlb, CapacityEviction)
{
    Simulation sim;
    Tlb tlb(sim, "tlb", 4, 4, 500); // fully associative, 4 entries
    for (std::uint64_t p = 0; p < 5; ++p)
        tlb.insert(p, TlbEntry{p, Perms{}});
    int present = 0;
    for (std::uint64_t p = 0; p < 5; ++p)
        present += tlb.lookup(p).has_value() ? 1 : 0;
    EXPECT_EQ(present, 4);
}

TEST(TwoLevelTlb, PromotesFromL2)
{
    Simulation sim;
    TwoLevelTlb::Params params;
    params.l1Entries = 2;
    params.l2Entries = 8;
    params.l2Ways = 2;
    TwoLevelTlb tlb(sim, "tlb", params);

    tlb.insert(1, TlbEntry{10, Perms{}});
    tlb.insert(2, TlbEntry{20, Perms{}});
    tlb.insert(3, TlbEntry{30, Perms{}}); // evicts 1 from tiny L1
    auto result = tlb.lookup(1);
    ASSERT_TRUE(result.entry.has_value());
    // L1 miss + L2 hit latency
    EXPECT_EQ(result.latency, params.l1Latency + params.l2Latency);
    // Now promoted: next lookup is an L1 hit.
    auto again = tlb.lookup(1);
    EXPECT_EQ(again.latency, params.l1Latency);
}

TEST(TwoLevelTlb, MissReturnsFullLatency)
{
    Simulation sim;
    TwoLevelTlb tlb(sim, "tlb", {});
    auto result = tlb.lookup(0x123);
    EXPECT_FALSE(result.entry.has_value());
    EXPECT_GT(result.latency, 0u);
}

TEST(TwoLevelTlb, InvalidateBothLevels)
{
    Simulation sim;
    TwoLevelTlb tlb(sim, "tlb", {});
    tlb.insert(5, TlbEntry{50, Perms{}});
    tlb.invalidate(5);
    EXPECT_FALSE(tlb.lookup(5).entry.has_value());
}

TEST(PtwCache, DeepestLevelWins)
{
    Simulation sim;
    PtwCache cache(sim, "ptw", 32, 4);
    std::uint64_t page = 0x12345678;
    EXPECT_EQ(cache.deepestCachedLevel(page), -1);
    cache.insert(page, 0);
    EXPECT_EQ(cache.deepestCachedLevel(page), 0);
    cache.insert(page, 2);
    EXPECT_EQ(cache.deepestCachedLevel(page), 2);
}

TEST(PtwCache, PrefixSharingAcrossNeighbours)
{
    Simulation sim;
    PtwCache cache(sim, "ptw", 32, 4);
    cache.insert(0x1000, 2); // PMD entry covers 512 pages
    EXPECT_EQ(cache.deepestCachedLevel(0x1001), 2);
    EXPECT_EQ(cache.deepestCachedLevel(0x1000 + 512), -1);
}

// ---------------------------------------------------------------- walker

class WalkerTest : public ::testing::Test
{
  protected:
    WalkerTest()
        : table_([this] { return nextPage_ += kPageSize; }),
          stub_(sim_, 10 * kNanosecond),
          ptwCache_(sim_, "ptw", 32, 4),
          walker_(sim_, "walker", table_, ptwCache_, stub_, 0, 0)
    {
    }

    Simulation sim_;
    std::uint64_t nextPage_ = 0;
    HierarchicalPageTable table_;
    StubMemory stub_;
    PtwCache ptwCache_;
    NodePtWalker walker_;
};

TEST_F(WalkerTest, ColdWalkIssuesFourAccesses)
{
    table_.map(0x42, 7, Perms{});
    std::optional<HierarchicalPageTable::Leaf> got;
    walker_.walk(0x42, [&](auto leaf) { got = leaf; });
    sim_.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->valuePage, 7u);
    EXPECT_EQ(stub_.accesses, 4u);
    for (auto kind : stub_.kinds)
        EXPECT_EQ(kind, PacketKind::NodePtw);
}

TEST_F(WalkerTest, WarmWalkSkipsUpperLevels)
{
    table_.map(0x42, 7, Perms{});
    walker_.walk(0x42, [](auto) {});
    sim_.run();
    std::uint64_t cold_accesses = stub_.accesses;
    // Second walk to a neighbouring page: PTW cache covers PGD..PMD.
    table_.map(0x43, 8, Perms{});
    walker_.walk(0x43, [](auto) {});
    sim_.run();
    EXPECT_EQ(stub_.accesses - cold_accesses, 1u); // only the PTE read
}

TEST_F(WalkerTest, UnmappedWalkReportsFault)
{
    bool called = false;
    walker_.walk(0x999, [&](auto leaf) {
        called = true;
        EXPECT_FALSE(leaf.has_value());
    });
    sim_.run();
    EXPECT_TRUE(called);
    EXPECT_DOUBLE_EQ(sim_.stats().get("walker.faults"), 1.0);
}

// --------------------------------------------------------------- node OS

class NodeOsTest : public ::testing::Test
{
  protected:
    NodeOsTest()
    {
        params_.localBytes = 1ull << 24;        // 16 MB
        params_.reservedLocalBytes = 1ull << 20; // 1 MB
        params_.famZoneBytes = 1ull << 28;      // 256 MB
        params_.localFraction = 0.2;
    }

    Simulation sim_;
    NodeOsParams params_;
};

TEST_F(NodeOsTest, FaultMapsThePage)
{
    NodeOs os(sim_, "os", params_, FamMode::Indirect, 0, nullptr);
    Tick latency = os.handleFault(0x1000);
    EXPECT_EQ(latency, params_.faultLatency);
    EXPECT_TRUE(os.pageTable().lookup(0x1000).has_value());
}

TEST_F(NodeOsTest, LocalFractionIsRespected)
{
    NodeOs os(sim_, "os", params_, FamMode::Indirect, 0, nullptr);
    for (std::uint64_t p = 0; p < 1000; ++p)
        os.handleFault(p);
    double total = static_cast<double>(os.localPagesAllocated() +
                                       os.famPagesAllocated());
    double local_frac =
        static_cast<double>(os.localPagesAllocated()) / total;
    EXPECT_NEAR(local_frac, 0.2, 0.02);
}

TEST_F(NodeOsTest, ZoneClassificationIsConsistent)
{
    NodeOs os(sim_, "os", params_, FamMode::Indirect, 0, nullptr);
    for (std::uint64_t p = 0; p < 500; ++p)
        os.handleFault(p);
    for (std::uint64_t p = 0; p < 500; ++p) {
        auto leaf = os.pageTable().lookup(p);
        ASSERT_TRUE(leaf.has_value());
        NPAddr addr(leaf->valuePage * kPageSize);
        if (os.isLocal(addr)) {
            EXPECT_LT(addr.value(),
                      params_.localBytes - params_.reservedLocalBytes);
        } else {
            EXPECT_GE(addr.value(), params_.localBytes);
        }
    }
}

TEST_F(NodeOsTest, ScatteredZonePagesAreUniqueAndInZone)
{
    NodeOs os(sim_, "os", params_, FamMode::Indirect, 0, nullptr);
    for (std::uint64_t p = 0; p < 2000; ++p)
        os.handleFault(p);
    std::set<std::uint64_t> seen;
    std::uint64_t zone_base = params_.localBytes / kPageSize;
    std::uint64_t zone_pages = params_.famZoneBytes / kPageSize;
    for (std::uint64_t page : os.famZonePages()) {
        EXPECT_TRUE(seen.insert(page).second) << "duplicate NPA page";
        EXPECT_GE(page, zone_base);
        EXPECT_LT(page, zone_base + zone_pages);
    }
}

TEST_F(NodeOsTest, FamDirectEncodingRoundTrips)
{
    std::uint64_t fam_page = 0x1234;
    NPAddr npa((fam_page | kFamDirectPageBit) * kPageSize + 0x88);
    EXPECT_TRUE(NodeOs::isFamDirect(npa));
    FamAddr fam = NodeOs::famDirectAddr(npa);
    EXPECT_EQ(fam.value(), fam_page * kPageSize + 0x88);
    EXPECT_FALSE(NodeOs::isFamDirect(NPAddr(0x5000)));
}

TEST_F(NodeOsTest, ExplicitMappingWorks)
{
    NodeOs os(sim_, "os", params_, FamMode::Indirect, 0, nullptr);
    std::uint64_t npa_page = os.allocFamZonePage();
    os.mapExplicit(0x7777, npa_page, Perms{true, false, false});
    auto leaf = os.pageTable().lookup(0x7777);
    ASSERT_TRUE(leaf.has_value());
    EXPECT_EQ(leaf->valuePage, npa_page);
    EXPECT_FALSE(leaf->perms.w);
}

} // namespace
} // namespace famsim
