#include "workloads/driver.hh"

#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "workloads/cache.hh"

namespace ccr::workloads
{

namespace
{

RunResult
runPoint(const RunPlan::Point &point, ExperimentCache *cache,
         bool check_outputs)
{
    RunResult r = runCcrExperiment(point.workload, point.config, cache);
    if (check_outputs && !r.completed)
        ccr_fatal(point.workload, ": ", r.incompleteStage,
                  " run did not complete within its budget");
    if (check_outputs && !r.outputsMatch)
        ccr_fatal("output mismatch for ", point.workload);
    return r;
}

} // namespace

std::vector<RunResult>
runPlan(const RunPlan &plan, const DriverOptions &options)
{
    return runPlan(plan, options, PointCallback{});
}

std::vector<RunResult>
runPlan(const RunPlan &plan, const DriverOptions &options,
        const PointCallback &on_point)
{
    ExperimentCache *cache =
        options.cache ? options.cache : &ExperimentCache::global();

    std::vector<RunResult> results(plan.size());
    if (plan.empty())
        return results;

    int jobs = options.jobs > 0 ? options.jobs : defaultJobs();
    jobs = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(jobs),
                              plan.size()));

    if (jobs <= 1) {
        for (std::size_t i = 0; i < plan.size(); ++i) {
            results[i] = runPoint(plan.points()[i], cache,
                                  options.checkOutputs);
            if (on_point)
                on_point(i, results[i]);
        }
        return results;
    }

    ThreadPool pool(jobs, options.seed);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        pool.submit([&, i] {
            results[i] = runPoint(plan.points()[i], cache,
                                  options.checkOutputs);
            if (on_point)
                on_point(i, results[i]);
        });
    }
    pool.wait();
    return results;
}

obs::SimReport
buildSimReport(const RunPlan &plan,
               const std::vector<RunResult> &results)
{
    ccr_assert(plan.size() == results.size(),
               "plan/result size mismatch");
    obs::SimReport report;
    report.runs.reserve(results.size());
    for (const auto &result : results)
        report.runs.push_back(result.report);
    return report;
}

int
defaultJobs()
{
    return ThreadPool::defaultThreads();
}

} // namespace ccr::workloads
