/**
 * @file
 * Shared pieces of famsim's end-to-end benchmark (perfbench/): the
 * span recorder, the result tally, the micro probes and the three
 * workloads. perfbench/DESIGN.md explains what each workload stresses
 * and which end-to-end metric every per-layer number should move.
 */

#ifndef FAMSIM_PERFBENCH_PERFBENCH_HH
#define FAMSIM_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
[[nodiscard]] inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of @p values (0 when empty). */
[[nodiscard]] double median(std::vector<double> values);

/**
 * In-memory span recorder for the traced run. Spans nest by call
 * order (the open span is the parent); all of one job share the job's
 * id. Disabled, every call is a no-op, so the timed runs pay nothing.
 */
class Spans
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }
    /** Start a new job id (tags the spans that follow). */
    void nextJob() { ++job_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const std::string& name);
    void close(int id);
    /**
     * Record a finished span whose duration is known but not its
     * start (executor points report only their seconds): it is placed
     * at its parent's start.
     */
    void addDuration(const std::string& name, double seconds);

    /** Write the spans as a Chrome trace ("X" events) to @p path. */
    bool writeChromeTrace(const std::string& path) const;

  private:
    struct Span {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        int parent = -1;
        std::uint64_t job = 0;
    };

    [[nodiscard]] double nowUs() const;

    bool enabled_ = false;
    std::uint64_t job_ = 0;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; stop() closes it early and returns its seconds. */
class SpanScope
{
  public:
    SpanScope(Spans& spans, const std::string& name)
        : spans_(spans), id_(spans.open(name)), start_(Clock::now())
    {
    }
    ~SpanScope() { stop(); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    double
    stop()
    {
        if (!stopped_) {
            seconds_ = secondsSince(start_);
            spans_.close(id_);
            stopped_ = true;
        }
        return seconds_;
    }

  private:
    Spans& spans_;
    int id_;
    Clock::time_point start_;
    bool stopped_ = false;
    double seconds_ = 0.0;
};

/** Operations attempted and failed (output checks, thrown points). */
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one operation; log @p what to stderr when it failed. */
    void record(bool ok, const std::string& what);
};

/** Named metric with its unit, in print order. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

/** Process high-water RSS in MB (getrusage). */
[[nodiscard]] double peakRssMb();
/** Current resident set in MB (/proc/self/statm). */
[[nodiscard]] double currentRssMb();
/** Minor page faults of the process so far (getrusage). */
[[nodiscard]] std::uint64_t minorFaults();

/** 64-bit FNV-1a, for the simulated-stats digests. */
[[nodiscard]] std::uint64_t fnv1a(const std::string& text);

// ------------------------------------------------------------ probes

/**
 * Time the public layer functions the per-layer metrics name
 * (EventQueue, SetAssocCache, TwoLevelTlb, StreamGen,
 * MultiTenantWorkload, TraceReader, makePacket, AcmStore, WorkerPool),
 * each as the median of repeats sized well above timer resolution.
 * Trace files go under @p scratch_dir. Appends to @p out.
 */
void runProbes(Spans& spans, const std::string& scratch_dir, Metrics& out);

// --------------------------------------------------------- workloads

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its Chrome trace and scratch files. */
    std::string outDir = ".bench_build/perfbench-out";
    /** Print the digests of the checked points instead of checking. */
    bool printDigests = false;
};

/** The workload names, in BENCHMARK.json order. */
[[nodiscard]] const std::vector<std::string>& workloadNames();

/**
 * Run one workload for opts.seconds: timed metrics (trace off) or the
 * per-layer metrics of the traced run (trace on). Every simulated
 * output is checked into @p tally.
 */
void runWorkload(const Options& opts, Tally& tally, Metrics& out);

} // namespace perfbench

#endif // FAMSIM_PERFBENCH_PERFBENCH_HH
