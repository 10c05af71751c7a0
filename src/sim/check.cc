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
      case Phase::Drain: return "drain";
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
                 " phase; route it through a mailbox post or a barrier "
                 "op, or use a SharedCounter/JobStatTable");
}

void
failQueue(std::uint32_t owner)
{
    const Context& c = ctx();
    FAMSIM_PANIC("cross-partition schedule: event queue owned by ",
                 partitionName(owner), ", scheduled on by ",
                 partitionName(c.partition), " during the ",
                 toString(c.phase),
                 " phase; route it through a mailbox post or a barrier "
                 "op");
}

void
failMailbox(std::uint32_t producer)
{
    const Context& c = ctx();
    FAMSIM_PANIC("cross-partition mailbox push: lane produced by ",
                 partitionName(producer), ", pushed by ",
                 partitionName(c.partition), " during the ",
                 toString(c.phase),
                 " phase; post from the owning source partition");
}

void
failPacketPool()
{
    const Context& c = ctx();
    FAMSIM_PANIC("packet pool operation on ", partitionName(c.partition),
                 " during the drain phase; drains may move message "
                 "payloads but must never run or destroy them");
}

void
failSentMinReset(std::uint32_t owner)
{
    const Context& c = ctx();
    FAMSIM_PANIC("sent-post minimum of ", partitionName(owner),
                 " reset by ", partitionName(c.partition), " during the ",
                 toString(c.phase),
                 " phase; only the owner's own drain task may reset it");
}

#endif // FAMSIM_CHECK

} // namespace check
} // namespace famsim
