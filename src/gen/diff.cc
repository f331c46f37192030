#include "gen/diff.hh"

#include <sstream>

#include "analysis/alias.hh"
#include "core/former.hh"
#include "emu/machine.hh"
#include "emu/reference.hh"
#include "ir/verifier.hh"
#include "lint/crosscheck.hh"
#include "lint/lint.hh"
#include "profile/value_profiler.hh"
#include "support/logging.hh"
#include "workloads/corpus.hh"
#include "workloads/harness.hh"

namespace ccr::gen
{

namespace
{

using workloads::InputSet;
using workloads::Workload;

/** An independent instance of @p w (the harness mutates modules in
 *  place, so every stage gets its own clone). */
Workload
cloneWorkload(const Workload &w)
{
    Workload copy = w;
    copy.module = std::shared_ptr<ir::Module>(w.module->clone());
    return copy;
}

/**
 * Stage 2: run the pre-decoded engine and the reference interpreter in
 * lockstep on the train input, comparing the full ExecInfo stream and
 * the final machine state. Returns false and fills @p why on the first
 * divergence.
 */
bool
runLockstep(const Workload &w, std::uint64_t budget, std::string &why)
{
    emu::Machine machine(*w.module);
    w.prepare(machine, InputSet::Train);
    emu::ReferenceMachine ref(*w.module);
    ref.memory() = machine.memory().clone();

    emu::ExecInfo a, b;
    for (std::uint64_t n = 0; n < budget; ++n) {
        const auto ka = machine.step(a);
        const auto kb = ref.step(b);
        const bool same =
            ka == kb && a.inst == b.inst && a.func == b.func
            && a.block == b.block && a.numSrcRegs == b.numSrcRegs
            && a.srcVals == b.srcVals && a.result == b.result
            && a.memAddr == b.memAddr && a.taken == b.taken
            && a.pc == b.pc && a.nextPc == b.nextPc;
        if (!same) {
            std::ostringstream os;
            os << "lockstep divergence at step " << n << " (pc 0x"
               << std::hex << a.pc << " vs 0x" << b.pc << ")";
            why = os.str();
            return false;
        }
        if (ka == emu::StepKind::Halted)
            break;
    }
    if (!machine.halted() || !ref.halted()) {
        why = "lockstep run did not halt within the budget";
        return false;
    }
    if (machine.instCount() != ref.instCount()) {
        why = "engines disagree on instruction count";
        return false;
    }
    if (machine.memory().contentHash() != ref.memory().contentHash()) {
        why = "engines disagree on final memory contents";
        return false;
    }
    return true;
}

std::string
firstError(const std::vector<ir::Diagnostic> &diags)
{
    for (const auto &d : diags)
        if (d.severity == ir::Severity::Error)
            return d.message;
    return "unknown";
}

} // namespace

DiffResult
diffTestSource(const std::string &lc_source, const std::string &display,
               const DiffConfig &config)
{
    DiffResult r;
    r.name = display;

    // -- Stage 1: load -------------------------------------------------
    std::vector<std::string> errors;
    const auto loaded =
        workloads::buildWorkloadFromText(lc_source, display, errors);
    if (!loaded) {
        r.failure = errors.empty() ? "load failed" : errors.front();
        return r;
    }
    const Workload &w = *loaded;
    // The emulator asserts on a missing or parameterised entry function;
    // shrunk candidates can legally produce either, so reject them here.
    const auto entry = w.module->entryFunction();
    if (entry == ir::kNoFunc) {
        r.failure = "module has no entry function";
        return r;
    }
    if (w.module->function(entry).numParams() != 0) {
        r.failure = "entry function takes parameters";
        return r;
    }
    r.loadOk = true;

    // -- Stage 2: decoded-vs-reference lockstep ------------------------
    if (!runLockstep(w, config.maxInsts, r.failure))
        return r;
    r.lockstepOk = true;

    // -- Stage 3: profile, form regions, lint + cross-check ------------
    const Workload ccr = cloneWorkload(w);
    const profile::ProfileData prof = workloads::profileWorkload(
        ccr, InputSet::Train, config.maxInsts);

    analysis::AliasAnalysis alias(*ccr.module);
    alias.annotateDeterminableLoads(*ccr.module);
    core::RegionFormer former(*ccr.module, prof, alias, config.policy);
    const core::RegionTable regions = former.formAll();
    r.regionsFormed = regions.size();

    {
        const auto verifyDiags = ir::verifyModule(*ccr.module);
        if (ir::hasErrors(verifyDiags)) {
            r.failure =
                "formed module fails verify: " + firstError(verifyDiags);
            return r;
        }
        const lint::LintResult lint = lint::lintModule(*ccr.module, regions);
        if (!lint.ok()) {
            r.failure = "region lint: " + firstError(lint.diagnostics);
            return r;
        }
    }
    r.lintOk = true;

    if (config.runCrossCheck) {
        emu::Machine machine(*ccr.module);
        w.prepare(machine, InputSet::Train);
        const lint::CrossCheckResult cross =
            lint::crossCheck(machine, regions, config.maxInsts);
        if (!cross.ok()) {
            r.failure = "cross-check: " + firstError(cross.diagnostics);
            return r;
        }
    }
    r.crossOk = true;

    // -- Stage 4: base-vs-CCR differential execution (ref input) -------
    std::vector<ir::Value> baseOutputs;
    std::uint64_t baseMemHash = 0;
    {
        emu::Machine base(*w.module);
        w.prepare(base, InputSet::Ref);
        base.run(config.maxInsts);
        if (!base.halted()) {
            r.failure = "base run did not halt within the budget";
            return r;
        }
        r.dynInsts = base.instCount();
        baseOutputs = workloads::readOutputs(base, w);
        baseMemHash = base.memory().contentHash();
    }

    const auto crb = uarch::makeCrbScheme(config.crb);
    {
        emu::Machine machine(*ccr.module);
        w.prepare(machine, InputSet::Ref);
        machine.setReuseHandler(crb.get());
        machine.run(config.maxInsts);
        if (!machine.halted()) {
            r.failure = "CCR run did not halt within the budget";
            return r;
        }
        if (workloads::readOutputs(machine, ccr) != baseOutputs) {
            r.failure = "base and CCR runs disagree on output globals";
            return r;
        }
        if (machine.memory().contentHash() != baseMemHash) {
            r.failure = "base and CCR runs disagree on final memory";
            return r;
        }
        r.baseVsCcrOk = true;

        // Counter-algebra invariants (the SimReport cross-registry
        // assertions, checked directly against the CRB and machine).
        const auto &m = crb->metrics();
        r.crbQueries = m.get("crb.queries");
        r.crbHits = m.get("crb.hits");
        r.crbInvalidates = m.get("crb.invalidates");
        const std::uint64_t misses = m.get("crb.misses");
        if (r.crbHits + misses != r.crbQueries) {
            r.failure = "CRB counter algebra: hits + misses != queries";
            return r;
        }
        if (machine.metrics().get("reuseHits") != r.crbHits
            || machine.metrics().get("reuseMisses") != misses) {
            r.failure = "machine and CRB disagree on reuse event counts";
            return r;
        }
        std::uint64_t hitSum = 0, querySum = 0;
        for (const auto &[id, n] : crb->hitsByRegion())
            hitSum += n;
        for (const auto &[id, n] : crb->queriesByRegion())
            querySum += n;
        if (hitSum != r.crbHits || querySum != r.crbQueries) {
            r.failure = "per-region attribution does not sum to totals";
            return r;
        }
    }
    r.countersOk = true;

    // -- Stage 5: cross-scheme execution (DTM on the same module) ------
    // A second, structurally different reuse scheme replaying the same
    // regions: any divergence from the base run in output globals or
    // the full memory hash flags a reuse soundness bug.
    if (config.runCrossScheme) {
        reuse::DynamicTraceMemo dtm(config.dtm);
        emu::Machine machine(*ccr.module);
        w.prepare(machine, InputSet::Ref);
        machine.setReuseHandler(&dtm);
        machine.run(config.maxInsts);
        if (!machine.halted()) {
            r.failure = "DTM run did not halt within the budget";
            return r;
        }
        if (workloads::readOutputs(machine, ccr) != baseOutputs) {
            r.failure = "base and DTM runs disagree on output globals";
            return r;
        }
        if (machine.memory().contentHash() != baseMemHash) {
            r.failure = "base and DTM runs disagree on final memory";
            return r;
        }
        const auto &dm = dtm.metrics();
        r.dtmQueries = dm.get("dtm.queries");
        r.dtmHits = dm.get("dtm.hits");
        if (r.dtmHits + dm.get("dtm.misses") != r.dtmQueries) {
            r.failure = "DTM counter algebra: hits + misses != queries";
            return r;
        }
    }
    r.crossSchemeOk = true;

    // -- Region samples for the predictor ------------------------------
    const auto &hitsBy = crb->hitsByRegion();
    const auto &queriesBy = crb->queriesByRegion();
    for (const auto &region : regions.regions()) {
        RegionSample s;
        s.regionId = region.id;
        s.staticInsts = region.staticInsts;
        s.cyclic = region.cyclic;
        s.functionLevel = region.functionLevel;
        s.liveIns = static_cast<int>(region.liveIns.size());
        s.memStructs = static_cast<int>(region.memStructs.size());

        s.loopDepth = region.loopDepth;

        if (const auto it = queriesBy.find(region.id);
            it != queriesBy.end())
            s.queries = it->second;
        if (const auto it = hitsBy.find(region.id); it != hitsBy.end())
            s.hits = it->second;
        r.regions.push_back(s);
    }
    return r;
}

DiffResult
diffTestKernel(const GeneratedKernel &kernel, const DiffConfig &config)
{
    return diffTestSource(kernel.text, kernel.name, config);
}

} // namespace ccr::gen
