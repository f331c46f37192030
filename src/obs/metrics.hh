/**
 * @file
 * MetricRegistry: the single source of truth for simulation telemetry.
 *
 * Metrics are named with dotted hierarchical paths ("crb.hits",
 * "ccr.pipe.stall.fetch.icache") and come in three kinds: counters
 * (monotonic uint64), gauges (double-valued instantaneous readings),
 * and histograms (fixed-bucket, from support/stats). Components either
 * cache a `Counter &` at attach time and bump it on the hot path, or
 * fold plain member tallies in at end of run — both end in the same
 * registry, which snapshots to deterministic JSON for SimReport.
 *
 * References returned by counter()/gauge()/histogram() stay valid for
 * the registry's lifetime (node-based storage); reset() zeroes values
 * without invalidating them.
 */

#ifndef CCR_OBS_METRICS_HH
#define CCR_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/json.hh"
#include "support/stats.hh"

namespace ccr::obs
{

/** A double-valued instantaneous metric. */
class Gauge
{
  public:
    Gauge() = default;

    void set(double v) { value_ = v; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;
    /** Moving keeps every returned reference valid: the metrics
     *  themselves are not relocated. */
    MetricRegistry(MetricRegistry &&) = default;

    /** Find-or-create. A name registered as one kind must not be
     *  re-registered as another. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** Histogram shape parameters apply only on first registration. */
    Histogram &histogram(const std::string &name, std::int64_t lo,
                         std::int64_t hi, std::size_t nbuckets);

    bool has(const std::string &name) const;

    /** Counter value by name; 0 when absent or not a counter. */
    std::uint64_t get(const std::string &name) const;
    /** Gauge value by name; 0.0 when absent or not a gauge. */
    double getGauge(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    /** Zero every metric, keeping registrations (and references). */
    void reset();
    /** Drop every metric (invalidates references). */
    void clear();

    std::size_t size() const { return metrics_.size(); }

    /**
     * Snapshot as a flat JSON object: counters as unsigned integers,
     * gauges as doubles, histograms as structured sub-objects. Key
     * order is sorted, so the output is deterministic.
     */
    Json toJson() const;

    /** Fold a snapshot of @p other in under @p prefix ("base" turns
     *  "pipe.cycles" into "base.pipe.cycles"). Counters add; gauges
     *  and histograms overwrite/merge by name. */
    void merge(const MetricRegistry &other, const std::string &prefix);

  private:
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram
    };

    struct Metric
    {
        Kind kind;
        Counter counter;
        Gauge gauge;
        std::unique_ptr<Histogram> histogram;
    };

    std::map<std::string, std::unique_ptr<Metric>> metrics_;

    Metric &findOrCreate(const std::string &name, Kind kind);
};

} // namespace ccr::obs

#endif // CCR_OBS_METRICS_HH
