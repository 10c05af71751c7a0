#include "vm/page_table.hh"

#include "sim/logging.hh"

namespace famsim {

namespace {

/**
 * Shared loop of both find() overloads; @p TablePtr carries the
 * caller's constness down the path.
 */
template <typename TablePtr>
TablePtr
findFrom(TablePtr table, std::uint64_t key_page, unsigned level)
{
    for (unsigned l = 0; l < level; ++l) {
        unsigned idx = HierarchicalPageTable::levelIndex(key_page, l);
        if (!table->children || !table->children[idx])
            return nullptr;
        table = table->children[idx].get();
    }
    return table;
}

} // namespace

HierarchicalPageTable::HierarchicalPageTable(AllocFn alloc)
    : alloc_(std::move(alloc))
{
    FAMSIM_ASSERT(alloc_, "page table requires an allocator");
    root_ = std::make_unique<Table>();
    root_->base = alloc_();
    ++tablePages_;
}

bool
HierarchicalPageTable::Table::setLeaf(unsigned idx, std::uint64_t packed)
{
    auto pos = leaves.begin() + leafRank(idx);
    if (leafAt(idx)) {
        *pos = packed;
        return false;
    }
    leaves.insert(pos, packed);
    leafPresent[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    return true;
}

std::uint64_t
HierarchicalPageTable::packLeaf(std::uint64_t value_page, Perms perms)
{
    FAMSIM_ASSERT(value_page <= kMaxValuePage,
                  "value page ", value_page, " does not fit in 61 bits");
    return value_page << 3 | std::uint64_t{perms.r} |
           std::uint64_t{perms.w} << 1 | std::uint64_t{perms.x} << 2;
}

const HierarchicalPageTable::Table*
HierarchicalPageTable::find(std::uint64_t key_page, unsigned level) const
{
    return findFrom<const Table*>(root_.get(), key_page, level);
}

HierarchicalPageTable::Table*
HierarchicalPageTable::find(std::uint64_t key_page, unsigned level)
{
    return findFrom<Table*>(root_.get(), key_page, level);
}

HierarchicalPageTable::Table*
HierarchicalPageTable::descend(std::uint64_t key_page)
{
    Table* table = root_.get();
    for (unsigned level = 0; level + 1 < kLevels; ++level) {
        unsigned idx = levelIndex(key_page, level);
        if (!table->children) {
            table->children =
                std::make_unique<std::unique_ptr<Table>[]>(kEntries);
        }
        std::unique_ptr<Table>& slot = table->children[idx];
        if (!slot) {
            slot = std::make_unique<Table>();
            slot->base = alloc_();
            ++tablePages_;
        }
        table = slot.get();
    }
    return table;
}

void
HierarchicalPageTable::map(std::uint64_t key_page, std::uint64_t value_page,
                           Perms perms)
{
    std::uint64_t packed = packLeaf(value_page, perms);
    Table* pte_table = descend(key_page);
    if (pte_table->setLeaf(levelIndex(key_page, kLevels - 1), packed))
        ++mappings_;
}

bool
HierarchicalPageTable::unmap(std::uint64_t key_page)
{
    Table* pte_table = find(key_page, kLevels - 1);
    if (!pte_table)
        return false;
    unsigned idx = levelIndex(key_page, kLevels - 1);
    if (!pte_table->leafAt(idx))
        return false;
    pte_table->leaves.erase(pte_table->leaves.begin() +
                            pte_table->leafRank(idx));
    pte_table->leafPresent[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    --mappings_;
    return true;
}

std::optional<HierarchicalPageTable::Leaf>
HierarchicalPageTable::lookup(std::uint64_t key_page) const
{
    const Table* pte_table = find(key_page, kLevels - 1);
    if (!pte_table)
        return std::nullopt;
    unsigned idx = levelIndex(key_page, kLevels - 1);
    if (!pte_table->leafAt(idx))
        return std::nullopt;
    return unpackLeaf(pte_table->leaves[pte_table->leafRank(idx)]);
}

HierarchicalPageTable::WalkResult
HierarchicalPageTable::walk(std::uint64_t key_page) const
{
    WalkResult result;
    const Table* table = root_.get();
    for (unsigned level = 0; level < kLevels; ++level) {
        unsigned idx = levelIndex(key_page, level);
        result.steps.push_back(
            WalkStep{table->base + idx * kEntryBytes, level});
        if (level == kLevels - 1) {
            if (table->leafAt(idx))
                result.leaf = unpackLeaf(table->leaves[table->leafRank(idx)]);
            break;
        }
        if (!table->children || !table->children[idx])
            break; // non-present intermediate entry: walk stops here
        table = table->children[idx].get();
    }
    return result;
}

std::optional<std::uint64_t>
HierarchicalPageTable::entryAddr(std::uint64_t key_page,
                                 unsigned level) const
{
    FAMSIM_ASSERT(level < kLevels, "page table level out of range");
    const Table* table = find(key_page, level);
    if (!table)
        return std::nullopt;
    return table->base + levelIndex(key_page, level) * kEntryBytes;
}

std::size_t
HierarchicalPageTable::hostBytes() const
{
    std::size_t bytes = 0;
    std::vector<const Table*> pending{root_.get()};
    while (!pending.empty()) {
        const Table* table = pending.back();
        pending.pop_back();
        bytes += sizeof(Table) +
                 table->leaves.capacity() * sizeof(std::uint64_t);
        if (!table->children)
            continue;
        bytes += kEntries * sizeof(std::unique_ptr<Table>);
        for (unsigned i = 0; i < kEntries; ++i) {
            if (table->children[i])
                pending.push_back(table->children[i].get());
        }
    }
    return bytes;
}

} // namespace famsim
