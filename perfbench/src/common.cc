#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench
{

void
Outcome::show(const std::string &name, double value,
              const std::string &unit)
{
    lines.push_back(name + " = " + fmt(value) + " " + unit);
}

void
Outcome::wrong(const std::string &what)
{
    correct = false;
    lines.push_back("CHECK FAILED: " + what);
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = p * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double logs = 0.0;
    for (const double x : xs)
        logs += std::log(x);
    return std::exp(logs / static_cast<double>(xs.size()));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

Digest &
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
    return *this;
}

Digest &
Digest::add(const std::string &s)
{
    for (const unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }
    return add(static_cast<std::uint64_t>(s.size()));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

} // namespace perfbench
