/**
 * @file
 * Parallel experiment driver: executes a RunPlan — a list of
 * (workload, RunConfig) points — on a fixed-size worker pool, with the
 * config-independent stages (module build, RPS profile, base timed
 * run) shared through an ExperimentCache.
 *
 * Determinism contract: results are returned in plan order and every
 * point's computation is a pure function of its (workload, config)
 * pair, so the result vector is bit-identical for any worker count —
 * `runPlan(plan, {.jobs = 1})` and `{.jobs = 8}` agree exactly, and a
 * table built by iterating the results serially is byte-identical
 * regardless of completion order. Worker threads carry deterministic
 * per-worker RNGs (ThreadPool::currentWorkerRng) so even scheduling
 * randomness, if a policy ever wants it, stays reproducible.
 */

#ifndef CCR_WORKLOADS_DRIVER_HH
#define CCR_WORKLOADS_DRIVER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "workloads/harness.hh"

namespace ccr::workloads
{

class ExperimentCache;

/** An ordered list of experiment points to run. */
class RunPlan
{
  public:
    struct Point
    {
        std::string workload;
        RunConfig config;
    };

    /** Append one point; returns its index into the result vector. */
    std::size_t
    add(std::string workload, const RunConfig &config)
    {
        points_.push_back({std::move(workload), config});
        return points_.size() - 1;
    }

    /** Append one point per named workload with the same config. */
    void
    addSweep(const std::vector<std::string> &workloads,
             const RunConfig &config)
    {
        for (const auto &name : workloads)
            add(name, config);
    }

    const std::vector<Point> &points() const { return points_; }

    /** Override the reuse scheme of every queued point (the benches'
     *  `--scheme crb|dtm|none` switch). */
    void
    setScheme(reuse::SchemeKind kind)
    {
        for (auto &point : points_)
            point.config.scheme = kind;
    }

    std::size_t size() const { return points_.size(); }
    bool empty() const { return points_.empty(); }

  private:
    std::vector<Point> points_;
};

/** Driver knobs. */
struct DriverOptions
{
    /** Worker threads; <= 0 means defaultJobs(). 1 runs inline on the
     *  calling thread. */
    int jobs = 0;

    /** Base seed for the per-worker RNGs. */
    std::uint64_t seed = 0x5EED'0001ULL;

    /**
     * Shares module builds, profiles, and base runs across points.
     * When null, the process-wide ExperimentCache::global() is used.
     * Results do not depend on which cache serves them — only
     * wall-clock does.
     */
    ExperimentCache *cache = nullptr;

    /** Require every point's base and CCR outputs to match; a
     *  mismatch is fatal (the benches' historical behavior). */
    bool checkOutputs = true;

    /**
     * When set, bench harnesses override every plan point's reuse
     * scheme before running (see bench/common.hh;
     * `--scheme crb|dtm|none` / CCR_SCHEME). runPlan itself ignores
     * it.
     */
    std::optional<reuse::SchemeKind> scheme;

    /**
     * When non-empty, bench harnesses write the aggregated SimReport
     * JSON here after the plan completes (see bench/common.hh;
     * `--report <path>` / CCR_REPORT). runPlan itself ignores it.
     */
    std::string reportPath;
};

/**
 * Execute every point of @p plan and return the results in plan
 * order.
 */
std::vector<RunResult> runPlan(const RunPlan &plan,
                               const DriverOptions &options = {});

/**
 * Per-point completion hook for the streaming overload below:
 * invoked once per plan point, as soon as that point's result is
 * ready — possibly concurrently from several worker threads and in
 * arbitrary completion order (the index identifies the point). The
 * `ccrd` server streams each run's SimReport frame to its client
 * from here instead of waiting for the whole batch.
 */
using PointCallback =
    std::function<void(std::size_t index, const RunResult &result)>;

/** Streaming variant: like runPlan, plus @p on_point fires per
 *  completed point. The returned vector is identical to the
 *  non-streaming overload's. */
std::vector<RunResult> runPlan(const RunPlan &plan,
                               const DriverOptions &options,
                               const PointCallback &on_point);

/**
 * Aggregate the per-point RunReports of a completed plan into one
 * SimReport (runs in plan order). The report is a pure function of
 * the plan and results — independent of worker count and caching.
 */
obs::SimReport buildSimReport(const RunPlan &plan,
                              const std::vector<RunResult> &results);

/** The job count used when none is specified: the CCR_JOBS
 *  environment variable, else the hardware thread count. */
int defaultJobs();

} // namespace ccr::workloads

#endif // CCR_WORKLOADS_DRIVER_HH
