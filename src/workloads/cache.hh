/**
 * @file
 * Experiment cache: memoizes the expensive, config-independent stages
 * of the CCR evaluation flow so that an N-point sweep pays them once
 * per workload instead of N times.
 *
 * Three stages are cached:
 *
 *  1. built (and optionally classic-optimized) workload modules,
 *     keyed by (workload, optimizeBase). The cached module is an
 *     immutable template; every consumer receives a fresh deep clone,
 *     because region formation and the optimizer rewrite modules in
 *     place. Clones preserve instruction uids, so profiles taken on
 *     one clone apply to any sibling.
 *  2. RPS training profiles, keyed by (workload, optimizeBase,
 *     profileInput, instruction budget).
 *  3. base-machine timed runs (timing result + program outputs),
 *     keyed additionally by the measured input set and the full
 *     pipeline configuration — the base machine has no CRB, so the
 *     result is independent of the CRB geometry and reuse policy
 *     being swept.
 *
 * Every experiment runs these stages through a cache: the driver and
 * the benches share one across points, and runCcrExperiment without
 * a cache builds a call-local one, so there is a single
 * implementation of the build, verify, profile and base-run stages.
 *
 * All entries are computed single-flight: concurrent requests for the
 * same key block on one computation instead of duplicating it. The
 * maps are guarded by std::shared_mutex; the values themselves are
 * immutable once published, so readers share them lock-free.
 */

#ifndef CCR_WORKLOADS_CACHE_HH
#define CCR_WORKLOADS_CACHE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "profile/profiles.hh"
#include "uarch/pipeline.hh"
#include "workloads/workload.hh"

namespace ccr::workloads
{

/** A cached base-machine run: timing, the event counts the SimReport
 *  publishes under "base.*", and the program outputs used for
 *  base-vs-CCR equivalence checking. */
struct BaseRunData
{
    uarch::TimingResult timing;

    /** Snapshots of the base pipeline's registry counters
     *  "icache.misses", "dcache.misses" and "pipe.branchMispredicts"
     *  (conditional branches only). */
    std::uint64_t icacheMisses = 0;
    std::uint64_t dcacheMisses = 0;
    std::uint64_t branchMispredicts = 0;

    std::vector<ir::Value> outputs;

    /** False when the run hit its instruction budget before halting;
     *  outputs are then unset and the timing is partial. The harness
     *  decides whether that is fatal (RunConfig::budgetFatal). */
    bool completed = true;
};

class ExperimentCache
{
  public:
    ExperimentCache() = default;
    ExperimentCache(const ExperimentCache &) = delete;
    ExperimentCache &operator=(const ExperimentCache &) = delete;

    /**
     * A ready-to-run instance of @p name: built, verified, and — when
     * @p optimized — passed through the classic optimizer pipeline.
     * The returned Workload owns a private clone of the cached module.
     */
    Workload workload(const std::string &name, bool optimized);

    /** RPS training profile of (name, optimized) on @p set. */
    std::shared_ptr<const profile::ProfileData>
    profile(const std::string &name, bool optimized, InputSet set,
            std::uint64_t max_insts);

    /** Timed base-machine (no CRB) run of (name, optimized) on
     *  @p set under @p pipe. */
    std::shared_ptr<const BaseRunData>
    baseRun(const std::string &name, bool optimized, InputSet set,
            const uarch::PipelineParams &pipe, std::uint64_t max_insts);

    /** Drop every cached entry. */
    void clear();

    /** Hit/miss counters (misses count one per computed key, not per
     *  waiter). */
    struct Stats
    {
        std::uint64_t moduleHits = 0;
        std::uint64_t moduleMisses = 0;
        std::uint64_t profileHits = 0;
        std::uint64_t profileMisses = 0;
        std::uint64_t baseRunHits = 0;
        std::uint64_t baseRunMisses = 0;
    };
    Stats stats() const;

    /** The process-wide cache shared by the driver and benches. */
    static ExperimentCache &global();

  private:
    template <typename T>
    using Slot = std::shared_future<std::shared_ptr<const T>>;

    /** The immutable (template) form of a built workload. */
    std::shared_ptr<const Workload> moduleTemplate(
        const std::string &name, bool optimized);

    mutable std::shared_mutex mu_;
    std::unordered_map<std::string, Slot<Workload>> modules_;
    std::unordered_map<std::string, Slot<profile::ProfileData>> profiles_;
    std::unordered_map<std::string, Slot<BaseRunData>> baseRuns_;

    std::atomic<std::uint64_t> moduleHits_{0}, moduleMisses_{0};
    std::atomic<std::uint64_t> profileHits_{0}, profileMisses_{0};
    std::atomic<std::uint64_t> baseRunHits_{0}, baseRunMisses_{0};
};

} // namespace ccr::workloads

#endif // CCR_WORKLOADS_CACHE_HH
