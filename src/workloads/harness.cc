#include "workloads/harness.hh"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "analysis/alias.hh"
#include "profile/value_profiler.hh"
#include "support/logging.hh"
#include "workloads/cache.hh"

namespace ccr::workloads
{

namespace
{

const char *
inputSetName(InputSet set)
{
    return set == InputSet::Train ? "train" : "ref";
}

/** Flattened configuration snapshot for the SimReport. */
obs::Json
configJson(const RunConfig &config)
{
    obs::Json c = obs::Json::object();
    c["scheme"] = obs::Json(reuse::schemeKindName(config.scheme));
    if (config.scheme == reuse::SchemeKind::Dtm) {
        c["dtm.maxTraces"] = obs::Json(config.dtm.maxTraces);
        c["dtm.tracesPerRegion"] = obs::Json(config.dtm.tracesPerRegion);
        c["dtm.maxRegInputs"] = obs::Json(config.dtm.maxRegInputs);
        c["dtm.maxMemInputs"] = obs::Json(config.dtm.maxMemInputs);
        c["dtm.maxOutputs"] = obs::Json(config.dtm.maxOutputs);
    }
    c["crb.entries"] = obs::Json(config.crb.entries);
    c["crb.instances"] = obs::Json(config.crb.instances);
    c["crb.assoc"] = obs::Json(config.crb.assoc);
    c["crb.bankSize"] = obs::Json(config.crb.bankSize);
    c["crb.memCapableFraction"] =
        obs::Json(config.crb.memCapableFraction);
    c["crb.nonuniformSplit"] = obs::Json(config.crb.nonuniformSplit);
    c["pipe.issueWidth"] = obs::Json(config.pipe.issueWidth);
    c["pipe.speculativeValidation"] =
        obs::Json(config.pipe.speculativeValidation);
    c["profileInput"] = obs::Json(inputSetName(config.profileInput));
    c["measureInput"] = obs::Json(inputSetName(config.measureInput));
    c["optimizeBase"] = obs::Json(config.optimizeBase);
    c["maxInsts"] = obs::Json(config.maxInsts);
    c["telemetry.enabled"] = obs::Json(config.telemetry.enabled);
    return c;
}

/**
 * A stage ran out of instruction budget before halting. Fatal under
 * the offline driver's strict default; otherwise a structured
 * incomplete result with a minimal (but schema-shaped) report, so
 * servers running untrusted budgets can report the containment
 * instead of dying.
 */
RunResult
incompleteResult(RunResult result, const std::string &workload_name,
                 const RunConfig &config, const char *stage)
{
    if (config.budgetFatal)
        ccr_fatal(workload_name, ": ", stage,
                  " run did not halt within maxInsts=",
                  config.maxInsts);
    result.completed = false;
    result.incompleteStage = stage;
    result.outputsMatch = false;
    result.report.workload = workload_name;
    result.report.config = configJson(config);
    result.report.metrics = obs::Json::object();
    result.report.metrics["run.completed"] =
        obs::Json(std::uint64_t{0});
    return result;
}

/**
 * Assemble the RunReport from the run's registries. @p ccr_pipe
 * carries the timed CCR run's full registry (stall attribution,
 * caches, predictor); the base run contributes the counter snapshots
 * carried by @p base (the cached base stage keeps no registry).
 * @p scheme may be null
 * (SchemeKind::None): the report then carries no scheme counters.
 */
void
buildRunReport(RunResult &result, const std::string &workload_name,
               const RunConfig &config, const BaseRunData &base,
               reuse::ReuseScheme *scheme, uarch::Pipeline &ccr_pipe)
{
    if (scheme != nullptr)
        scheme->snapshotOccupancy();

    obs::MetricRegistry agg;
    agg.counter("base.pipe.cycles") += result.base.cycles;
    agg.counter("base.pipe.insts") += result.base.insts;
    agg.counter("base.icache.misses") += base.icacheMisses;
    agg.counter("base.dcache.misses") += base.dcacheMisses;
    agg.counter("base.bpred.mispredicts") += base.branchMispredicts;
    agg.merge(ccr_pipe.metrics(), "ccr");
    if (scheme != nullptr)
        scheme->exportMetrics(agg);
    agg.counter("formation.cyclicFormed") += static_cast<std::uint64_t>(
        result.formation.cyclicFormed);
    agg.counter("formation.acyclicFormed") +=
        static_cast<std::uint64_t>(result.formation.acyclicFormed);
    agg.counter("formation.functionLevelFormed") +=
        static_cast<std::uint64_t>(result.formation.functionLevelFormed);
    agg.counter("formation.seedsRejected") +=
        static_cast<std::uint64_t>(result.formation.seedsRejected);
    agg.counter("formation.invalidationsPlaced") +=
        static_cast<std::uint64_t>(result.formation.invalidationsPlaced);
    // Emitted only when nonzero: the key appears exactly on workloads
    // where range claims elided an invalidation, keeping pre-range
    // reports byte-identical.
    if (result.formation.invalidationsElided != 0) {
        agg.counter("formation.invalidationsElided") +=
            static_cast<std::uint64_t>(
                result.formation.invalidationsElided);
    }
    agg.counter("formation.blocksReordered") +=
        static_cast<std::uint64_t>(result.formation.blocksReordered);
    agg.counter("regions.formed") +=
        static_cast<std::uint64_t>(result.regions.size());

    // The scheme and the pipeline count reuse events independently;
    // they must agree before the report is published.
    const std::string prefix =
        scheme != nullptr ? std::string(scheme->name()) + "." : "";
    const std::uint64_t scheme_queries =
        scheme != nullptr ? agg.get(prefix + "queries") : 0;
    const std::uint64_t scheme_hits =
        scheme != nullptr ? agg.get(prefix + "hits") : 0;
    const std::uint64_t pipe_hits = agg.get("ccr.reuse.hits");
    const std::uint64_t pipe_misses = agg.get("ccr.reuse.misses");
    ccr_assert(scheme_hits == pipe_hits
                   && scheme_queries == pipe_hits + pipe_misses,
               "telemetry registries disagree: the scheme counted ",
               scheme_hits, "/", scheme_queries,
               " hits/queries but the pipeline observed ", pipe_hits,
               " hits and ", pipe_misses, " misses");

    obs::RunReport &report = result.report;
    report.workload = workload_name;
    report.config = configJson(config);
    report.metrics = agg.toJson();

    report.derived["speedup"] =
        obs::Json(obs::speedup(result.base.cycles, result.ccr.cycles));
    report.derived["baseIpc"] = obs::Json(result.base.ipc());
    report.derived["ccrIpc"] = obs::Json(result.ccr.ipc());
    report.derived["instsEliminated"] =
        obs::Json(result.instsEliminated());
    report.derived["schemeHitRate"] = obs::Json(
        obs::ratio(static_cast<double>(scheme_hits),
                   static_cast<double>(scheme_queries)));
    report.derived["outputsMatch"] = obs::Json(result.outputsMatch);

    // Per-region attribution, sorted by region id for determinism.
    static const std::unordered_map<ir::RegionId, std::uint64_t>
        kNoHits;
    const auto &hits_by_region =
        scheme != nullptr ? scheme->hitsByRegion() : kNoHits;
    std::vector<const core::ReuseRegion *> regions;
    regions.reserve(result.regions.size());
    for (const auto &region : result.regions.regions())
        regions.push_back(&region);
    std::sort(regions.begin(), regions.end(),
              [](const auto *a, const auto *b) { return a->id < b->id; });
    for (const auto *region : regions) {
        std::uint64_t hits = 0;
        const auto it = hits_by_region.find(region->id);
        if (it != hits_by_region.end())
            hits = it->second;
        obs::Json r = obs::Json::object();
        r["id"] = obs::Json(static_cast<std::uint64_t>(region->id));
        r["staticInsts"] = obs::Json(region->staticInsts);
        r["cyclic"] = obs::Json(region->cyclic);
        r["functionLevel"] = obs::Json(region->functionLevel);
        r["loopDepth"] = obs::Json(region->loopDepth);
        r["mix.intAlu"] = obs::Json(region->instMix[0]);
        r["mix.mem"] = obs::Json(region->instMix[1]);
        r["mix.fpAlu"] = obs::Json(region->instMix[2]);
        r["mix.branch"] = obs::Json(region->instMix[3]);
        r["hits"] = obs::Json(hits);
        r["eliminatedInsts"] = obs::Json(
            hits * static_cast<std::uint64_t>(region->staticInsts));
        // Key present only on regions whose memory claims narrowed to
        // byte ranges (report stability for whole-structure regions).
        if (!region->memRanges.empty())
            r["memRanged"] = obs::Json(true);
        report.regions.push(std::move(r));
    }
}

/**
 * Translation-validation hook on the formation output: re-derive the
 * regions' legality properties with ccr_lint and panic on any Error.
 * On by default in debug builds; CCR_LINT=1 forces it on in release
 * builds and CCR_LINT=0 forces it off.
 */
void
maybeLintFormedRegions(const ir::Module &mod,
                       const core::RegionTable &regions)
{
#ifdef NDEBUG
    bool enabled = false;
#else
    bool enabled = true;
#endif
    if (const char *env = std::getenv("CCR_LINT"))
        enabled = env[0] != '0';
    if (!enabled)
        return;
    const lint::LintResult res = lint::lintModule(mod, regions);
    for (const auto &d : res.diagnostics) {
        if (d.severity == ir::Severity::Error)
            std::cerr << ir::formatDiagnostic(d) << "\n";
    }
    ccr_assert(res.ok(), "region lint found ", res.numErrors(),
               " error(s) in the former's output");
}

} // namespace

profile::ProfileData
profileWorkload(const Workload &workload, InputSet set,
                std::uint64_t max_insts)
{
    emu::Machine machine(*workload.module);
    workload.prepare(machine, set);
    profile::ValueProfiler profiler(machine);
    machine.addObserver(&profiler);
    machine.run(max_insts);
    profile::ProfileData prof = profiler.takeProfile();
    prof.completed = machine.halted();
    return prof;
}

WorkloadLintResult
lintWorkload(const std::string &workload_name,
             const core::ReusePolicy &policy, bool run_crosscheck,
             std::uint64_t max_insts)
{
    return lintWorkload(buildWorkload(workload_name), policy,
                        run_crosscheck, max_insts);
}

WorkloadLintResult
lintWorkload(const Workload &w, const core::ReusePolicy &policy,
             bool run_crosscheck, std::uint64_t max_insts)
{
    WorkloadLintResult out;
    const profile::ProfileData prof =
        profileWorkload(w, InputSet::Train, max_insts);
    if (!prof.completed) {
        // A workload that can't finish its training run inside the
        // budget is unauditable; report it as a lint error rather
        // than forming regions from a partial profile.
        out.lint.diagnostics.push_back(ir::makeError(
            "lint.budget.exhausted",
            w.name
                + ": training run did not halt within the "
                  "instruction budget ("
                + std::to_string(max_insts) + " insts)"));
        return out;
    }

    analysis::AliasAnalysis alias(*w.module);
    alias.annotateDeterminableLoads(*w.module);
    core::RegionFormer former(*w.module, prof, alias, policy);
    out.regions = former.formAll();
    out.formation = former.stats();
    out.lint = lint::lintModule(*w.module, out.regions);

    if (run_crosscheck) {
        emu::Machine machine(*w.module);
        w.prepare(machine, InputSet::Train);
        out.cross = lint::crossCheck(machine, out.regions, max_insts);
        out.ranCrossCheck = true;
    }
    return out;
}

profile::PotentialResult
measurePotential(const std::string &name, InputSet set,
                 profile::PotentialParams params)
{
    const Workload w = buildWorkload(name);
    emu::Machine machine(*w.module);
    w.prepare(machine, set);
    profile::ReusePotentialStudy study(machine, params);
    machine.addObserver(&study);
    machine.run();
    return study.result();
}

RunResult
runCcrExperiment(const std::string &workload_name,
                 const RunConfig &config)
{
    return runCcrExperiment(workload_name, config, nullptr);
}

RunResult
runCcrExperiment(const std::string &workload_name,
                 const RunConfig &config, ExperimentCache *cache)
{
    if (cache == nullptr) {
        ExperimentCache local;
        return runCcrExperiment(workload_name, config, &local);
    }

    RunResult result;

    // -- Base machine: untransformed code, no CRB ----------------------
    const std::shared_ptr<const BaseRunData> base_data =
        cache->baseRun(workload_name, config.optimizeBase,
                       config.measureInput, config.pipe,
                       config.maxInsts);
    result.base = base_data->timing;
    if (!base_data->completed)
        return incompleteResult(std::move(result), workload_name,
                                config, "base");

    // -- CCR machine: profile, form regions, run with the scheme -------
    {
        Workload ccr = cache->workload(workload_name, config.optimizeBase);

        std::unique_ptr<reuse::ReuseScheme> scheme =
            reuse::makeScheme(reuse::SchemeConfig{
                config.scheme, config.crb, config.dtm});

        // With no reuse hardware (SchemeKind::None) the compilation
        // stages are skipped entirely: the module stays untransformed
        // and the timed run below is cycle-identical to the base
        // machine.
        if (scheme != nullptr) {
            // Training pass (RPS), taken on a sibling clone of the
            // same module template; instruction uids agree.
            const std::shared_ptr<const profile::ProfileData> prof =
                cache->profile(workload_name, config.optimizeBase,
                               config.profileInput, config.maxInsts);
            if (!prof->completed)
                return incompleteResult(std::move(result),
                                        workload_name, config,
                                        "profile");

            // Compilation: alias analysis + region formation.
            analysis::AliasAnalysis alias(*ccr.module);
            alias.annotateDeterminableLoads(*ccr.module);
            core::RegionFormer former(*ccr.module, *prof, alias,
                                      config.policy);
            result.regions = former.formAll();
            result.formation = former.stats();
            maybeLintFormedRegions(*ccr.module, result.regions);
        }

        // Timed CCR run.
        emu::Machine machine(*ccr.module);
        ccr.prepare(machine, config.measureInput);
        uarch::Pipeline pipe(config.pipe);
        pipe.setScheme(scheme.get());

        // Resolve the former's per-global range claims against this
        // machine's data layout and register them with the scheme:
        // invalidates whose store misses every claimed byte range are
        // then skipped dynamically.
        if (scheme != nullptr && config.policy.rangeMemClaims) {
            for (const auto &region : result.regions.regions()) {
                if (region.memStructs.empty())
                    continue;
                std::vector<reuse::MemClaim> claims;
                claims.reserve(region.memStructs.size());
                for (std::size_t i = 0; i < region.memStructs.size();
                     ++i) {
                    const ir::GlobalId g = region.memStructs[i];
                    const emu::Addr base = machine.globalAddr(g);
                    const core::MemRange mr = region.memRange(i);
                    const std::uint64_t size =
                        ccr.module->global(g).sizeBytes;
                    reuse::MemClaim c;
                    if (mr.whole) {
                        c.lo = base;
                        c.hi = base + (size != 0 ? size - 1 : 0);
                    } else {
                        c.lo = base + mr.lo;
                        c.hi = base + mr.hi;
                    }
                    claims.push_back(c);
                }
                scheme->setMemClaims(region.id, std::move(claims));
            }
        }
        if (config.telemetry.enabled) {
            result.trace = std::make_shared<obs::TraceSink>(
                config.telemetry.traceCapacity);
            if (scheme != nullptr)
                scheme->setTraceSink(result.trace.get());
            pipe.setTelemetry(result.trace.get(),
                              config.telemetry.intervalInsts);
        }
        result.ccr = pipe.run(machine, config.maxInsts);
        if (!machine.halted())
            return incompleteResult(std::move(result),
                                    workload_name, config, "ccr");

        const auto ccr_outputs = readOutputs(machine, ccr);
        result.outputsMatch = ccr_outputs == base_data->outputs;

        buildRunReport(result, workload_name, config, *base_data,
                       scheme.get(), pipe);
    }

    return result;
}

} // namespace ccr::workloads
