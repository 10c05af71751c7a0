#include "sim/check.hh"

#include "sim/logging.hh"

namespace famsim {
namespace check {

const char*
toString(Phase phase)
{
    switch (phase) {
      case Phase::None: return "none";
      case Phase::Barrier: return "barrier";
      case Phase::Exec: return "exec";
    }
    return "?";
}

#if FAMSIM_CHECK

namespace {

/** "partition N" or "no partition" for diagnostics. */
std::string
partitionName(std::uint32_t partition)
{
    if (partition == kUnowned)
        return "no partition";
    return "partition " + std::to_string(partition);
}

} // namespace

void
failAccess(const Tag& tag, const char* what)
{
    const Context& c = ctx();
    FAMSIM_PANIC("cross-partition stat write: ", what, " on '",
                 tag.name ? *tag.name : std::string("<unregistered>"),
                 "' owned by ", partitionName(tag.owner), ", touched by ",
                 partitionName(c.partition), " during the ",
                 toString(c.phase),
                 " phase; route it through an arbitrated send or a "
                 "barrier op, or use a SharedCounter/JobStatTable");
}

void
failQueue(std::uint32_t owner)
{
    const Context& c = ctx();
    FAMSIM_PANIC("cross-partition schedule: event queue owned by ",
                 partitionName(owner), ", scheduled on by ",
                 partitionName(c.partition), " during the ",
                 toString(c.phase),
                 " phase; route it through an arbitrated send or a "
                 "barrier op");
}

#endif // FAMSIM_CHECK

} // namespace check
} // namespace famsim
