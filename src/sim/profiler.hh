/**
 * @file
 * Profiler — wall-clock accounting of where host time goes.
 *
 * The sim-time trace (trace_sink.hh) answers "what did the simulated
 * system do"; the profiler answers "what did the *host* spend its time
 * on": per-partition exec seconds per window epoch, the
 * coordinator's serial sections (arbitration merge, window bounds,
 * global ops), the whole run's wall clock, and the process footprint
 * (peak RSS, minor faults) when the run ends. Everything here is
 * host-timing and therefore explicitly NONDETERMINISTIC — it is
 * exported as a separate "profile" block that is never part of golden
 * comparisons (see DESIGN.md "Observability layer").
 *
 * Writer discipline mirrors the kernel's: each partition's accumulator
 * is written only by the worker that owns the partition during an
 * epoch (the epoch barrier publishes the writes), the coordinator
 * fields only between epochs, the wall clock only by the caller of
 * System::run.
 */

#ifndef FAMSIM_SIM_PROFILER_HH
#define FAMSIM_SIM_PROFILER_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

namespace famsim {

/** Wall-clock profile of one System::run. */
class Profiler
{
  public:
    /** Monotonic second-resolution stopwatch for profile sections. */
    class Timer
    {
      public:
        // lint-allow(wall-clock): host-profiling stopwatch; output goes to the profile block only, never into sim state or goldens
        Timer() : start_(std::chrono::steady_clock::now()) {}

        [[nodiscard]] double
        seconds() const
        {
            return std::chrono::duration<double>(
                       // lint-allow(wall-clock): host-profiling stopwatch; never feeds sim state
                       std::chrono::steady_clock::now() - start_)
                .count();
        }

        /** Seconds since construction or the previous lap; restarts. */
        double
        lap()
        {
            const double elapsed = seconds();
            // lint-allow(wall-clock): host-profiling stopwatch; never feeds sim state
            start_ = std::chrono::steady_clock::now();
            return elapsed;
        }

      private:
        // lint-allow(wall-clock): host-profiling stopwatch; never feeds sim state
        std::chrono::steady_clock::time_point start_;
    };

    Profiler() = default;
    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    /** Size the per-partition accumulators (parallel runs only). */
    void
    setPartitions(std::uint32_t partitions)
    {
        exec_.assign(partitions, 0.0);
    }

    void
    addExec(std::uint32_t partition, double seconds)
    {
        exec_[partition] += seconds;
    }

    /** The coordinator's serial sections between epochs. */
    enum class Section : std::uint8_t {
        Arbitrate, //!< merge + run the arbitrated fabric sends
        Bounds,    //!< the window-bounds scan and window open
        Global,    //!< collect + run the global barrier ops
    };

    void
    addCoordinator(Section section, double seconds)
    {
        coordinator_[static_cast<std::size_t>(section)] += seconds;
    }

    void setWall(double seconds) { wall_ = seconds; }
    void setThreads(unsigned threads) { threads_ = threads; }
    void setWindows(std::uint64_t windows) { windows_ = windows; }

    /**
     * Record the process's peak RSS and minor-fault count so far
     * (getrusage), i.e. construction, prefault and the run itself.
     */
    void sampleFootprint();

    [[nodiscard]] double wallSeconds() const { return wall_; }
    [[nodiscard]] double peakRssMb() const { return peakRssMb_; }
    [[nodiscard]] std::uint64_t minorFaults() const { return minflt_; }
    [[nodiscard]] std::uint64_t windows() const { return windows_; }
    [[nodiscard]] double
    coordinatorSeconds(Section section) const
    {
        return coordinator_[static_cast<std::size_t>(section)];
    }

    /** All coordinator-serial time (the three sections summed). */
    [[nodiscard]] double
    coordinatorSeconds() const
    {
        return coordinator_[0] + coordinator_[1] + coordinator_[2];
    }

    /**
     * Always 0: windows have no drain epoch any more. Kept only
     * because perfbench reads it; drop it with its probe at the next
     * benchmark change.
     */
    [[nodiscard]] double drainSeconds() const { return 0.0; }

    /** Sum of all partitions' exec-epoch seconds. */
    [[nodiscard]] double
    execSeconds() const
    {
        double total = 0.0;
        for (const double t : exec_)
            total += t;
        return total;
    }

    /**
     * The "profile" JSON block (object only, no surrounding key).
     * Nondeterministic by construction: values are host wall-clock.
     */
    void writeJson(std::ostream& os, int indent = 0) const;

  private:
    /** Per-partition event-execution seconds (exec epochs). */
    std::vector<double> exec_;
    /** Seconds per Section. */
    std::array<double, 3> coordinator_{};
    double wall_ = 0.0;
    unsigned threads_ = 0;
    std::uint64_t windows_ = 0;
    double peakRssMb_ = 0.0;
    std::uint64_t minflt_ = 0;
};

} // namespace famsim

#endif // FAMSIM_SIM_PROFILER_HH
