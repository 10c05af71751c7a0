/**
 * @file
 * The benchmark's shared helpers: the span recorder, the tally, the
 * host-resource readers (RSS, minor faults) and the stats digest.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

#include <sys/resource.h>
#include <unistd.h>

#include "perfbench.hh"

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
Spans::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin_)
        .count();
}

int
Spans::open(const std::string& name)
{
    if (!enabled_)
        return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, nowUs(), 0.0, parent, job_});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
Spans::close(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].endUs = nowUs();
    // Spans close in LIFO order; tolerate an early stop() of an outer
    // scope by unwinding to it.
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        if (top == id)
            break;
    }
}

void
Spans::addDuration(const std::string& name, double seconds)
{
    if (!enabled_)
        return;
    const int parent = stack_.empty() ? -1 : stack_.back();
    const double start =
        parent < 0 ? nowUs()
                   : spans_[static_cast<std::size_t>(parent)].startUs;
    spans_.push_back({name, start, start + seconds * 1e6, parent, job_});
}

bool
Spans::writeChromeTrace(const std::string& path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char buf[128];
        std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f", s.startUs,
                      s.endUs - s.startUs);
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << buf
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"job\": " << s.job << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

void
Tally::record(bool ok, const std::string& what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::cerr << "perfbench: FAILED " << what << "\n";
    }
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
currentRssMb()
{
    long pages_total = 0;
    long pages_resident = 0;
    if (FILE* f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2)
            pages_resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(pages_resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::uint64_t
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_minflt);
}

std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace perfbench
