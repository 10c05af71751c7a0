#include "psim/parallel_sim.hh"

#include <algorithm>

#include "sim/profiler.hh"
#include "sim/trace_sink.hh"

namespace famsim {

ParallelSim::ParallelSim(Simulation& sim, const Topology& topo,
                         unsigned threads)
    : sim_(sim),
      window_(std::min(topo.fabricLookahead, topo.brokerLookahead)),
      // More workers than partitions can never help: every worker
      // acknowledges every epoch, so the surplus would be pure
      // barrier overhead.
      pool_(std::max(1u, std::min(threads, topo.nodes + topo.mediaModules
                                               + 1))),
      nodes_(topo.nodes),
      media_(topo.mediaModules)
{
    FAMSIM_ASSERT(topo.nodes >= 1 && topo.mediaModules >= 1,
                  "sharded topology needs nodes and media modules");
    FAMSIM_ASSERT(topo.fabricLookahead > 0 && topo.brokerLookahead > 0,
                  "per-edge lookaheads must be positive");
    auto node = static_cast<std::size_t>(Kind::Node);
    auto mediaKind = static_cast<std::size_t>(Kind::Media);
    auto broker = static_cast<std::size_t>(Kind::Broker);
    for (auto& row : edge_)
        row.fill(kNever);
    edge_[node][mediaKind] = topo.fabricLookahead;
    edge_[mediaKind][node] = topo.fabricLookahead;
    edge_[node][broker] = topo.brokerLookahead;
    edge_[broker][node] = topo.brokerLookahead;
    edge_[mediaKind][broker] = topo.brokerLookahead;
    edge_[broker][mediaKind] = topo.brokerLookahead;
    init(topo.nodes + topo.mediaModules + 1);
}

ParallelSim::ParallelSim(Simulation& sim, std::uint32_t partitions,
                         Tick lookahead, unsigned threads)
    : sim_(sim),
      window_(lookahead),
      pool_(std::max(1u, std::min(threads, partitions))),
      nodes_(partitions),
      media_(0)
{
    FAMSIM_ASSERT(partitions >= 1, "parallel kernel needs a partition");
    // Uniform peers: every pair may exchange messages at the same
    // floor, reproducing the pre-sharding single-lookahead kernel.
    for (auto& row : edge_)
        row.fill(lookahead);
    init(partitions);
}

void
ParallelSim::init(std::uint32_t partitions)
{
    FAMSIM_ASSERT(!sim_.parallel(),
                  "a parallel kernel is already bound to this simulation");
    parts_.reserve(partitions);
    for (std::uint32_t p = 0; p < partitions; ++p) {
        auto& queue = *parts_.emplace_back(std::make_unique<EventQueue>());
        queue.setId(p);
        // Ownership stamp for the FAMSIM_CHECK hooks (no-op when
        // compiled out): the queue belongs to partition p.
        queue.setCheckOwner(p);
    }
    arbIn_.resize(partitions);
    globalIn_.resize(partitions + 1);
    globalSeq_.assign(partitions + 1, 0);
    sim_.setParallel(this);
}

ParallelSim::~ParallelSim()
{
    sim_.setParallel(nullptr);
}

std::uint32_t
ParallelSim::sourceLane() const
{
    std::uint32_t current = currentPartition();
    return current == kNoPartition ? partitions() : current;
}

void
ParallelSim::postArbitrated(std::uint32_t dst, ArbFn fn)
{
    std::uint32_t src = currentPartition();
    FAMSIM_ASSERT(src != kNoPartition,
                  "arbitrated post from outside a partition");
    FAMSIM_ASSERT(!arbitrating_,
                  "arbitrated send from inside an arbitration callback");
    FAMSIM_ASSERT(dst < partitions(), "post to unknown partition ", dst);
    Tick la = lookaheadBetween(src, dst);
    FAMSIM_ASSERT(la != kNever,
                  "arbitrated send on the edgeless partition pair ", src,
                  " -> ", dst);
    Tick sent = parts_[src]->curTick();
    arbIn_[src].sends.push_back(ArbSend{sent, dst, std::move(fn)});
}

void
ParallelSim::drainArbitrated()
{
    arbScratch_.clear();
    for (std::uint32_t src = 0; src < arbIn_.size(); ++src) {
        const auto& sends = arbIn_[src].sends;
        for (std::uint32_t i = 0; i < sends.size(); ++i)
            arbScratch_.push_back({{sends[i].sent, src}, i});
    }
    if (arbScratch_.empty())
        return;
    // Merged (sent, srcPartition, seq) order across every source and
    // destination: the shared channel state is then touched by exactly
    // one thread (the coordinator), deterministically. Callbacks only
    // schedule (a nested send panics), so one pass empties the lanes,
    // which is what lets the window scan read real delivery ticks off
    // the queues.
    std::sort(arbScratch_.begin(), arbScratch_.end());
    arbitrating_ = true;
    for (const auto& [key, idx] : arbScratch_) {
        ArbSend& send = arbIn_[key.second].sends[idx];
        Scope scope(*this, send.dst, check::Phase::Barrier);
        ArbFn fn = std::move(send.fn);
        fn(send.sent);
    }
    arbitrating_ = false;
    for (auto& lane : arbIn_)
        lane.sends.clear();
}

void
ParallelSim::postGlobal(Tick due, std::function<void()> fn)
{
    std::uint32_t lane = sourceLane();
    if (lane < partitions()) {
        FAMSIM_ASSERT(due >= parts_[lane]->curTick(),
                      "global op due in the past");
    }
    globalIn_[lane].push_back(
        GlobalOp{due, lane, globalSeq_[lane]++, std::move(fn)});
}

void
ParallelSim::collectGlobalOps()
{
    bool added = false;
    for (auto& lane : globalIn_) {
        if (lane.empty())
            continue;
        added = true;
        pendingGlobal_.insert(pendingGlobal_.end(),
                              std::make_move_iterator(lane.begin()),
                              std::make_move_iterator(lane.end()));
        lane.clear();
    }
    if (added) {
        std::sort(pendingGlobal_.begin(), pendingGlobal_.end(),
                  [](const GlobalOp& a, const GlobalOp& b) {
                      if (a.due != b.due)
                          return a.due < b.due;
                      if (a.src != b.src)
                          return a.src < b.src;
                      return a.seq < b.seq;
                  });
    }
}

void
ParallelSim::runGlobalOpsThrough(Tick start)
{
    if (pendingGlobal_.empty() || pendingGlobal_.front().due > start)
        return;
    // Barrier ops run with the broker partition as scheduling context:
    // system-level bookkeeping belongs there, and the workers are
    // quiescent so touching any partition's state is safe.
    std::size_t taken = 0;
    {
        Scope scope(*this, brokerPartition(), check::Phase::Barrier);
        while (taken < pendingGlobal_.size() &&
               pendingGlobal_[taken].due <= start) {
            auto fn = std::move(pendingGlobal_[taken].fn);
            ++taken;
            fn();
        }
    }
    pendingGlobal_.erase(pendingGlobal_.begin(),
                         pendingGlobal_.begin() +
                             static_cast<std::ptrdiff_t>(taken));
}

Tick
ParallelSim::nextPending() const
{
    // The arbitration lanes are always empty here (drainArbitrated()
    // runs to empty right before), so the queue heads plus the global
    // ops are every pending tick: one O(1) read per partition.
    Tick next = EventQueue::kForever;
    for (const auto& part : parts_)
        next = std::min(next, part->nextTick());
    // pendingGlobal_ is sorted by (due, src, seq), so its minimum is
    // the first element.
    if (!pendingGlobal_.empty())
        next = std::min(next, pendingGlobal_.front().due);
    return next;
}

Tick
ParallelSim::firstDueAfter(Tick start) const
{
    // Ops due at or before the start run at this barrier; the first
    // one due later caps the window so it runs exactly at its own
    // barrier, never mid-window, and readers of the state it mutates
    // stay causally ordered.
    for (const GlobalOp& op : pendingGlobal_) {
        if (op.due > start)
            return op.due;
    }
    return SyncWindow::kTickMax;
}

std::uint64_t
ParallelSim::run()
{
    // Observability hooks, hoisted out of the loop: both resolve to
    // null pointers in the (near-universal) untraced/unprofiled case,
    // so the per-window cost when off is a handful of predictable
    // branches.
    TraceSink* trace = sim_.trace();
    if (trace && !trace->wants(TraceSink::kPsim))
        trace = nullptr;
    Profiler* prof = sim_.profiler();
    if (prof)
        prof->setPartitions(partitions());
    // Last emitted per-partition cumulative executed count, so the
    // counter track only gets a point when the value moved.
    std::vector<std::uint64_t> executedSeen;
    if (trace)
        executedSeen.assign(parts_.size(), 0);

    for (;;) {
        // The coordinator's serial sections, each charged to its own
        // profile bucket.
        Profiler::Timer coord;
        auto charge = [&](Profiler::Section section) {
            if (prof)
                prof->addCoordinator(section, coord.lap());
        };
        collectGlobalOps();
        charge(Profiler::Section::Global);
        // Arbitrate all queued fabric sends first: the deliveries land
        // on their destination queues, so the window scan below sees
        // real delivery ticks instead of conservative floors.
        drainArbitrated();
        charge(Profiler::Section::Arbitrate);
        const Tick next = nextPending();
        if (next == EventQueue::kForever) {
            charge(Profiler::Section::Bounds);
            break;
        }
        auto [start, end] = window_.open(next, firstDueAfter(next));
        charge(Profiler::Section::Bounds);
        runGlobalOpsThrough(start);
        charge(Profiler::Section::Global);
        if (trace) {
            // One span per window on the broker lane (the
            // coordinator's home).
            trace->span(TraceSink::kPsim, brokerPartition(),
                        "psim.window", start, end);
        }
        // One epoch per window: every cross-partition delivery is
        // already on its destination queue, so the workers only
        // execute.
        pool_.runEpoch(parts_.size(), [&](std::size_t p) {
            const auto part = static_cast<std::uint32_t>(p);
            Scope scope(*this, part, check::Phase::Exec);
            if (prof) {
                Profiler::Timer t;
                parts_[p]->run(end - 1);
                prof->addExec(part, t.seconds());
            } else {
                parts_[p]->run(end - 1);
            }
            if (trace) {
                const std::uint64_t total = parts_[p]->executed();
                if (total > executedSeen[p]) {
                    trace->counter(TraceSink::kPsim, part,
                                   "psim.executed", end - 1, total);
                    executedSeen[p] = total;
                }
            }
        });
    }
    std::uint64_t executed = 0;
    for (const auto& part : parts_)
        executed += part->executed();
    return executed;
}

} // namespace famsim
