/**
 * @file
 * Experiment harness: the canonical CCR evaluation flow used by the
 * examples, tests, and figure-reproduction benches.
 *
 * Flow (matching paper §5.1): build the workload, train-profile it
 * with the RPS, run region formation with the given policy, then
 * measure base and CCR cycle counts with the timing model and check
 * that both runs produced identical program output.
 */

#ifndef CCR_WORKLOADS_HARNESS_HH
#define CCR_WORKLOADS_HARNESS_HH

#include <memory>

#include "core/former.hh"
#include "lint/crosscheck.hh"
#include "lint/lint.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "profile/reuse_potential.hh"
#include "reuse/factory.hh"
#include "uarch/pipeline.hh"
#include "workloads/workload.hh"

namespace ccr::workloads
{

/** Everything configurable about one experiment run. */
struct RunConfig
{
    core::ReusePolicy policy;
    uarch::CrbParams crb;
    uarch::PipelineParams pipe;

    /**
     * Which reuse mechanism to attach to the timed CCR run (built via
     * reuse::makeScheme). SchemeKind::None skips profiling and region
     * formation entirely and runs the untransformed module with no
     * handler — cycle-identical to the base machine.
     */
    reuse::SchemeKind scheme = reuse::SchemeKind::Crb;

    /** DTM geometry (read only when scheme == SchemeKind::Dtm). */
    reuse::DtmParams dtm;

    /** Input set used for the training/profiling pass. */
    InputSet profileInput = InputSet::Train;

    /** Input set used for the timed base and CCR runs. */
    InputSet measureInput = InputSet::Train;

    /** Run the classic optimizer (inlining, unrolling, folding, CSE,
     *  DCE) on both the base and the CCR module before measuring —
     *  the paper's "best base code" baseline. */
    bool optimizeBase = false;

    /** Safety cap on emulated instructions per run. */
    std::uint64_t maxInsts = 200'000'000ULL;

    /**
     * What happens when a run exhausts maxInsts before halting:
     * fatal (the offline driver's historical behavior — a bench
     * sweep with too small a budget should stop loudly) or, when
     * false, a structured result with RunResult::completed == false
     * and the offending stage named. The `ccrd` server runs
     * untrusted budgets and always turns this off: budget
     * exhaustion there is sandbox containment, not operator error.
     */
    bool budgetFatal = true;

    /**
     * Observability knob: when enabled, the CCR run carries an
     * event-trace ring buffer (CRB hit/miss/invalidate/evict/memo
     * events plus pipeline interval snapshots) exposed via
     * RunResult::trace. Off by default — the fast path then performs
     * no tracing work and no allocations. The SimReport metric
     * snapshot (RunResult::report) is always produced; it does not
     * affect simulated results either way.
     */
    obs::TelemetryOptions telemetry;
};

/**
 * Results of one experiment run.
 *
 * The machine-readable surface is `report` (an obs::RunReport feeding
 * SimReport JSON/CSV): every event count — CRB queries/hits, cache
 * misses, mispredicts, per-region attribution — lives in
 * `report.metrics` and `report.regions` under the names documented in
 * obs/metrics.hh. Only the cycle/instruction headlines and the
 * structural results (regions, formation stats) are mirrored as
 * struct fields for convenience.
 */
struct RunResult
{
    uarch::TimingResult base;
    uarch::TimingResult ccr;
    core::RegionTable regions;
    core::FormationStats formation;

    /** SimReport entry for this run: config snapshot, merged metric
     *  registry, derived metrics, per-region attribution. */
    obs::RunReport report;

    /** Event trace of the CCR run; non-null only when
     *  RunConfig::telemetry.enabled was set. */
    std::shared_ptr<obs::TraceSink> trace;

    bool outputsMatch = false;

    /** False when a stage ran out of instruction budget before
     *  halting (only possible with RunConfig::budgetFatal off).
     *  The timed numbers and report are then partial and
     *  outputsMatch is meaningless. */
    bool completed = true;

    /** Which stage hit the budget: "base", "profile", or "ccr"
     *  (empty when completed). */
    std::string incompleteStage;

    /** Delegates to the obs derived-metric conventions (0 when the
     *  CCR run recorded no cycles). */
    double speedup() const
    {
        return obs::speedup(base.cycles, ccr.cycles);
    }

    /** Fraction of base dynamic instructions eliminated by reuse;
     *  obs conventions (clamped to [0, 1], 0 on empty base). */
    double instsEliminated() const
    {
        return obs::fractionEliminated(base.insts, ccr.insts);
    }
};

class ExperimentCache;

/**
 * Run the full CCR experiment for one workload. The module build
 * (+ optional classic optimization and verification), the RPS training
 * profile, and the base-machine timed run come from @p cache, so
 * repeated runs of the same workload under different CRB geometries or
 * reuse policies pay those stages once. Every cached stage is a
 * deterministic function of its key, so the result does not depend on
 * what the cache already holds. A null @p cache runs on a fresh
 * ExperimentCache local to the call.
 */
RunResult runCcrExperiment(const std::string &workload_name,
                           const RunConfig &config,
                           ExperimentCache *cache);

/** runCcrExperiment on a fresh, call-local ExperimentCache. */
RunResult runCcrExperiment(const std::string &workload_name,
                           const RunConfig &config);

/** Result of lintWorkload(): the formed regions plus the static
 *  audit and (optionally) the dynamic replay cross-check. */
struct WorkloadLintResult
{
    core::RegionTable regions;
    core::FormationStats formation;
    lint::LintResult lint;

    /** Populated only when the cross-check ran. */
    lint::CrossCheckResult cross;
    bool ranCrossCheck = false;

    bool
    ok() const
    {
        return lint.ok() && (!ranCrossCheck || cross.ok());
    }
};

/**
 * Build + train-profile + form regions for @p workload_name (the same
 * compilation flow as runCcrExperiment, minus the timed runs), then
 * statically lint the transformed module against the former's claims.
 * With @p run_crosscheck the workload is additionally replayed on the
 * emulator with no reuse hardware, validating every observed region
 * execution against the claims (lint::crossCheck).
 */
WorkloadLintResult lintWorkload(const std::string &workload_name,
                                const core::ReusePolicy &policy = {},
                                bool run_crosscheck = false,
                                std::uint64_t max_insts
                                = 200'000'000ULL);

/**
 * Instance form of lintWorkload, for workloads that exist only in
 * memory and must be audited *before* they are registered anywhere —
 * the `ccrd` server's admission gate for untrusted inline `.lc`
 * submissions. @p workload's module is profiled and transformed in
 * place; pass a throwaway build.
 */
WorkloadLintResult lintWorkload(const Workload &workload,
                                const core::ReusePolicy &policy = {},
                                bool run_crosscheck = false,
                                std::uint64_t max_insts
                                = 200'000'000ULL);

/** Profile-only helper: the RPS profile of a training run. */
profile::ProfileData profileWorkload(const Workload &workload,
                                     InputSet set,
                                     std::uint64_t max_insts
                                     = 200'000'000ULL);

/** Figure 4 helper: the block/region reuse-potential limit study. */
profile::PotentialResult measurePotential(const std::string &name,
                                          InputSet set,
                                          profile::PotentialParams params
                                          = {});

} // namespace ccr::workloads

#endif // CCR_WORKLOADS_HARNESS_HH
