/**
 * @file
 * Shared pieces of the benchmark program: command-line options, the
 * per-run outcome every workload fills in, and small statistics and
 * hashing helpers.
 */

#ifndef CCR_PERFBENCH_COMMON_HH
#define CCR_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Tiny inputs for the smoke test (a few kernels, a two-workload
     *  sweep, two corpus workloads on the server). */
    bool tiny = false;

    /** Per-run instruction budget; 0 keeps each workload's default.
     *  A deliberately short budget makes runs fail without crashing. */
    std::uint64_t maxInsts = 0;

    /** Where the traced run writes its spans (empty: not written). */
    std::string traceOut;

    /** Worker threads or client connections of every workload: the
     *  benchmark's closed loops use at most two on a 4-core host. */
    static constexpr int jobs = 2;
};

/** One printed metric: a name, a value and its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome
{
    /** False when a check found a wrong output (not merely a failed
     *  or incomplete operation, which counts in `failed`). */
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** The machine-readable metrics of the last output line: the
     *  end-to-end set untraced, the per-layer set traced. */
    std::vector<Metric> metrics;

    /** Human-readable lines printed before the result line. */
    std::vector<std::string> lines;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Value of an added metric; 0 when absent. */
    double value(const std::string &name) const
    {
        for (const Metric &m : metrics)
            if (m.name == name)
                return m.value;
        return 0.0;
    }

    /** Print "<name> = <value> <unit>" in the report. */
    void show(const std::string &name, double value,
              const std::string &unit);

    void note(const std::string &line) { lines.push_back(line); }

    /** Record a failed check: the run is then not correct. */
    void wrong(const std::string &what);
};

/** Seconds on the monotonic clock. */
inline double
now()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated percentile of @p xs (0 <= p <= 1); 0 when
 *  empty. */
double percentile(std::vector<double> xs, double p);

inline double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 0.5);
}

/** Geometric mean of positive values; 0 when empty. */
double geomean(const std::vector<double> &xs);

/** num/den, 0 when den is 0. */
inline double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** FNV-1a digest of a stream of fields, for the deterministic
 *  simulated-statistics fingerprint each workload prints. */
class Digest
{
  public:
    Digest &add(std::uint64_t v);
    Digest &add(const std::string &s);
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Format @p v with enough digits to round-trip. */
std::string fmt(double v);

} // namespace perfbench

#endif // CCR_PERFBENCH_COMMON_HH
