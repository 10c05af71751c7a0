/**
 * @file
 * The Simulation object: event queue + statistics + seed, the context
 * every component is constructed against.
 *
 * Since the parallel kernel (src/psim/) the simulation can execute in
 * two modes. On the default serial path everything runs on the one
 * global EventQueue, exactly as before. In partitioned mode each
 * worker thread drains one partition's queue at a time and publishes
 * it in a thread-local slot; events() and curTick() then resolve to
 * the partition the calling thread is executing, so component code is
 * oblivious to the mode it runs under.
 */

#ifndef FAMSIM_SIM_SIMULATION_HH
#define FAMSIM_SIM_SIMULATION_HH

#include <cstdint>
#include <string>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace famsim {

class ParallelSim; // src/psim/parallel_sim.hh
class Profiler;    // src/sim/profiler.hh
class TraceSink;   // src/sim/trace_sink.hh

namespace detail {

/**
 * The partition queue the calling thread is currently draining, or
 * null on the serial path. A function-local thread_local with constant
 * initialization keeps the access to one TLS load — cheap enough for
 * the schedule()/curTick() hot paths.
 */
[[nodiscard]] inline EventQueue*&
tlsQueueSlot()
{
    static thread_local EventQueue* queue = nullptr;
    return queue;
}

} // namespace detail

/**
 * Owns the global simulation state. Not copyable; components hold a
 * reference and must not outlive it.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1) : seed_(seed) {}

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /**
     * The queue the caller should schedule on: the partition queue the
     * calling worker is draining (partitioned mode), else the serial
     * global queue.
     */
    [[nodiscard]] EventQueue&
    events()
    {
        EventQueue* queue = detail::tlsQueueSlot();
        return queue ? *queue : events_;
    }

    /** The serial global queue, regardless of execution context. */
    [[nodiscard]] EventQueue& serialEvents() { return events_; }

    [[nodiscard]] StatRegistry& stats() { return stats_; }
    [[nodiscard]] const StatRegistry& stats() const { return stats_; }

    /** Current tick of the calling thread's execution context. */
    [[nodiscard]] Tick
    curTick() const
    {
        const EventQueue* queue = detail::tlsQueueSlot();
        return queue ? queue->curTick() : events_.curTick();
    }

    [[nodiscard]] std::uint64_t seed() const { return seed_; }

    /**
     * The active parallel kernel, or null on the serial path. Bound by
     * ParallelSim for the duration of a partitioned System::run().
     */
    [[nodiscard]] ParallelSim* parallel() const { return parallel_; }
    void setParallel(ParallelSim* parallel) { parallel_ = parallel; }

    /**
     * The attached trace sink, or null (the near-universal case). Every
     * emit site is a null check plus an inline category test, so an
     * unattached sink costs one predictable branch (see DESIGN.md
     * "Observability layer"). Attached by System::attachTrace.
     */
    [[nodiscard]] TraceSink* trace() const { return trace_; }
    void setTrace(TraceSink* trace) { trace_ = trace; }

    /** The attached wall-clock profiler, or null. */
    [[nodiscard]] Profiler* profiler() const { return profiler_; }
    void setProfiler(Profiler* profiler) { profiler_ = profiler; }

    /**
     * Whether the latency-breakdown statistics are enabled
     * (SystemConfig::observability). Off by default so the registry —
     * and with it every pre-existing golden — is bit-identical to a
     * build without the observability layer.
     */
    [[nodiscard]] bool observability() const { return observability_; }
    void setObservability(bool on) { observability_ = on; }

    /** Run the serial event loop until it drains or @p limit. */
    std::uint64_t run(Tick limit = EventQueue::kForever)
    {
        return events_.run(limit);
    }

  private:
    std::uint64_t seed_;
    EventQueue events_;
    StatRegistry stats_;
    ParallelSim* parallel_ = nullptr;
    TraceSink* trace_ = nullptr;
    Profiler* profiler_ = nullptr;
    bool observability_ = false;
};

/**
 * Base class for named simulated components.
 *
 * Provides the hierarchical name used to register statistics and a
 * convenience statistics accessor.
 */
class Component
{
  public:
    Component(Simulation& sim, std::string name)
        : sim_(sim), name_(std::move(name))
    {
    }

    virtual ~Component() = default;

    Component(const Component&) = delete;
    Component& operator=(const Component&) = delete;

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] Simulation& sim() { return sim_; }

  protected:
    /** Register a counter under this component's name prefix. */
    Counter&
    statCounter(const std::string& leaf, const std::string& desc)
    {
        return sim_.stats().counter(name_ + "." + leaf, desc);
    }

    /** Register a thread-shared counter under this component's prefix. */
    SharedCounter&
    statSharedCounter(const std::string& leaf, const std::string& desc)
    {
        return sim_.stats().sharedCounter(name_ + "." + leaf, desc);
    }

    /** Register a scalar under this component's name prefix. */
    Scalar&
    statScalar(const std::string& leaf, const std::string& desc)
    {
        return sim_.stats().scalar(name_ + "." + leaf, desc);
    }

    /** Register a histogram under this component's name prefix. */
    Histogram&
    statHistogram(const std::string& leaf, const std::string& desc,
                  std::uint64_t bucket_width = 1, std::size_t buckets = 16)
    {
        return sim_.stats().histogram(name_ + "." + leaf, desc,
                                      bucket_width, buckets);
    }

    /**
     * Register an observability-gated latency-breakdown histogram
     * (with JSON percentiles): returns null when
     * Simulation::observability() is off, in which case nothing enters
     * the registry — sample sites guard on the pointer. Keeps every
     * pre-existing golden bit-identical with observability disabled.
     */
    Histogram*
    obsHistogram(const std::string& leaf, const std::string& desc,
                 std::uint64_t bucket_width = 1, std::size_t buckets = 16)
    {
        if (!sim_.observability())
            return nullptr;
        return &sim_.stats().histogramWithPercentiles(
            name_ + "." + leaf, desc, bucket_width, buckets);
    }

    /** Register a per-job counter table under this component's prefix. */
    JobStatTable&
    statJobTable(const std::string& leaf, const std::string& desc,
                 unsigned jobs)
    {
        return sim_.stats().jobTable(name_ + "." + leaf, desc, jobs);
    }

    Simulation& sim_;

  private:
    std::string name_;
};

} // namespace famsim

#endif // FAMSIM_SIM_SIMULATION_HH
