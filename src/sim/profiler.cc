#include "sim/profiler.hh"

#include <sys/resource.h>

#include <algorithm>

#include "sim/stats.hh"

namespace famsim {

void
Profiler::sampleFootprint()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KB.
    peakRssMb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    minflt_ = static_cast<std::uint64_t>(usage.ru_minflt);
}

void
Profiler::writeJson(std::ostream& os, int indent) const
{
    const std::string outer(indent, ' ');
    const std::string inner(indent + 2, ' ');
    const std::string item(indent + 4, ' ');

    os << "{\n"
       << inner
       << "\"note\": \"host wall-clock timings: nondeterministic, "
          "excluded from golden comparisons\",\n"
       << inner << "\"threads\": " << threads_ << ",\n"
       << inner << "\"windows\": " << windows_ << ",\n"
       << inner << "\"widened\": " << widened_ << ",\n"
       << inner << "\"wall_s\": ";
    json::writeNumber(os, wall_);
    os << ",\n" << inner << "\"coordinator_s\": ";
    json::writeNumber(os, coordinator_);
    os << ",\n" << inner << "\"peak_rss_mb\": ";
    json::writeNumber(os, peakRssMb_);
    os << ",\n" << inner << "\"minflt\": " << minflt_;
    os << ",\n" << inner << "\"partitions\": [";
    for (std::size_t p = 0; p < parts_.size(); ++p) {
        const PartTimes& t = parts_[p];
        // A partition is "idle" whenever the run is in flight but the
        // partition is neither draining nor executing: waiting at the
        // epoch barriers or for the coordinator. Derived, approximate.
        const double idle =
            std::max(0.0, wall_ - t.drain - t.exec);
        os << (p ? "," : "") << "\n" << item << "{\"lane\": " << p
           << ", \"drain_s\": ";
        json::writeNumber(os, t.drain);
        os << ", \"exec_s\": ";
        json::writeNumber(os, t.exec);
        os << ", \"idle_s\": ";
        json::writeNumber(os, idle);
        os << "}";
    }
    if (!parts_.empty())
        os << "\n" << inner;
    os << "]\n" << outer << "}";
}

} // namespace famsim
