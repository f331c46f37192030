/**
 * @file
 * The `sweep` workload: the Figure 8(a) and 8(b) plans joined, 13
 * built-in workloads times {CRB 128 entries x 4/8/16 CIs, CRB 32 and
 * 64 entries x 8 CIs, DTM default}, 78 points through
 * workloads::runPlan with a fresh ExperimentCache per pass. This is the
 * paper's experiment, and the timing model, the reuse scheme and the
 * emulator do most of its work. The plan is fixed, so the seed is
 * unused. The held-out variant profiles on train and measures on ref,
 * as Figure 11 does.
 *
 * The traced run rebuilds runCcrExperiment from public calls, with a
 * span around each one, and checks that every point reproduces the
 * untraced run's base and CCR cycles and instructions exactly.
 */

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "analysis/alias.hh"
#include "ir/verifier.hh"
#include "support/thread_pool.hh"
#include "trace.hh"
#include "workloads.hh"
#include "workloads/cache.hh"
#include "workloads/driver.hh"

namespace perfbench
{

namespace
{

using namespace ccr;
using workloads::InputSet;
using workloads::RunConfig;
using workloads::RunPlan;
using workloads::RunResult;

struct Geometry
{
    reuse::SchemeKind scheme;
    int entries;
    int instances;
};

/** Figure 8(a) (128 entries x 4/8/16 CIs) joined with Figure 8(b)
 *  (32/64/128 entries x 8 CIs), plus the DTM at its defaults. */
const Geometry kGeometries[] = {
    {reuse::SchemeKind::Crb, 128, 4}, {reuse::SchemeKind::Crb, 128, 8},
    {reuse::SchemeKind::Crb, 128, 16}, {reuse::SchemeKind::Crb, 32, 8},
    {reuse::SchemeKind::Crb, 64, 8},   {reuse::SchemeKind::Dtm, 0, 0},
};
constexpr std::size_t kGeometryCount = std::size(kGeometries);

/** (untraced, traced) replay pairs behind trace.overhead_ratio. */
constexpr int kOverheadPairs = 3;

/** Set-ups averaged in one setup_s sample. */
constexpr int kSetupRounds = 5;

/** The point whose uncached replay feeds trace.closure_ratio. */
constexpr std::size_t kClosureGeometry = 1;

/** The built-in workloads, heaviest first by the traced split of one
 *  pass (gcc takes about a quarter of it). Two workers taking points
 *  longest-first finish within the cost of the lightest point of each
 *  other, so a pass's wall time does not hinge on which worker draws
 *  gcc last. */
const char *const kHeaviestFirst[] = {
    "gcc",      "compress", "yacc", "vortex", "m88ksim",  "go",       "espresso",
    "ijpeg",    "sc",       "li",   "mpeg2enc", "pgpencode", "lex",
};

std::vector<std::string>
sweepWorkloads(const Options &o)
{
    // Every built-in workload exactly once: the listed ones in cost
    // order, any the list does not know at the end.
    std::vector<std::string> names;
    const std::vector<std::string> all = workloads::workloadNames();
    for (const char *name : kHeaviestFirst)
        if (std::find(all.begin(), all.end(), name) != all.end())
            names.push_back(name);
    for (const auto &name : all)
        if (std::find(names.begin(), names.end(), name) == names.end())
            names.push_back(name);
    if (o.tiny)
        names.resize(2);
    return names;
}

RunPlan
makePlan(const std::vector<std::string> &names, bool held_out,
         std::uint64_t max_insts)
{
    // Geometry-major order: the two workers start on different
    // workloads instead of queueing behind one workload's shared
    // stages.
    RunPlan plan;
    for (const Geometry &g : kGeometries) {
        for (const auto &name : names) {
            RunConfig config;
            config.scheme = g.scheme;
            if (g.scheme == reuse::SchemeKind::Crb) {
                config.crb.entries = g.entries;
                config.crb.instances = g.instances;
            }
            if (held_out)
                config.measureInput = InputSet::Ref;
            if (max_insts != 0)
                config.maxInsts = max_insts;
            config.budgetFatal = false;
            plan.add(name, config);
        }
    }
    return plan;
}

std::uint64_t
schemeCount(const RunResult &r, const RunConfig &config,
            const char *counter)
{
    return r.report.metric(std::string(reuse::schemeKindName(config.scheme))
                           + "." + counter);
}

/** Count failed points and check every completed one; returns the
 *  digest of the simulated statistics. */
std::string
checkPass(const RunPlan &plan, const std::vector<RunResult> &results,
          Outcome &out, std::uint64_t &failed)
{
    Digest digest;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &point = plan.points()[i];
        const RunResult &r = results[i];
        const std::uint64_t queries = schemeCount(r, point.config, "queries");
        const std::uint64_t hits = schemeCount(r, point.config, "hits");
        const std::uint64_t misses = schemeCount(r, point.config, "misses");
        digest.add(point.workload)
            .add(std::string(reuse::schemeKindName(point.config.scheme)))
            .add(static_cast<std::uint64_t>(point.config.crb.entries))
            .add(static_cast<std::uint64_t>(point.config.crb.instances))
            .add(static_cast<std::uint64_t>(r.completed))
            .add(r.base.cycles).add(r.base.insts)
            .add(r.ccr.cycles).add(r.ccr.insts)
            .add(hits).add(queries)
            .add(static_cast<std::uint64_t>(r.regions.size()));
        if (!r.completed) {
            ++failed;
            continue;
        }
        if (!r.outputsMatch) {
            ++failed;
            out.wrong(point.workload + ": base and CCR outputs differ");
        } else if (hits + misses != queries) {
            ++failed;
            out.wrong(point.workload + ": hits + misses != queries");
        }
    }
    return digest.hex();
}

struct Pass
{
    std::vector<RunResult> results;
    std::vector<double> pointSeconds;
    double wall = 0.0;
    workloads::ExperimentCache::Stats cache;
};

/** One pass of the plan through runPlan with a fresh ExperimentCache.
 *  A point's latency runs from the previous completion on the same
 *  worker (or the pass start) to its own completion, so it includes
 *  any wait on a stage another worker is computing. */
Pass
runPass(const RunPlan &plan, int jobs)
{
    workloads::ExperimentCache cache;
    workloads::DriverOptions opts;
    opts.jobs = jobs;
    opts.cache = &cache;
    opts.checkOutputs = false;

    Pass pass;
    std::mutex mu;
    std::map<int, double> last;
    const double t0 = now();
    pass.results = workloads::runPlan(
        plan, opts, [&](std::size_t, const RunResult &) {
            const double t = now();
            std::lock_guard lock(mu);
            auto [it, fresh] =
                last.try_emplace(ThreadPool::currentWorkerId(), t0);
            (void)fresh;
            pass.pointSeconds.push_back(t - it->second);
            it->second = t;
        });
    pass.wall = now() - t0;
    pass.cache = cache.stats();
    return pass;
}

/** Build and verify every module of the plan, then load it into a
 *  machine with its train and ref inputs: the set-up a sweep pays
 *  before the first instruction of a workload runs. */
double
setupOnce(const std::vector<std::string> &names)
{
    const double t0 = now();
    for (const auto &name : names) {
        const workloads::Workload w = workloads::buildWorkload(name);
        ir::verifyOrDie(*w.module);
        for (const InputSet set : {InputSet::Train, InputSet::Ref}) {
            emu::Machine machine(*w.module);
            w.prepare(machine, set);
        }
    }
    return now() - t0;
}

// -- Traced replay ----------------------------------------------------

/** What the replay of one point produced. */
struct ReplayPoint
{
    uarch::TimingResult base;
    uarch::TimingResult ccr;
    std::uint64_t hits = 0;
    std::uint64_t queries = 0;
    std::size_t regions = 0;
    int seedsRejected = 0;
    bool completed = true;
    bool outputsMatch = false;

    /** Kept for the reuse-only probe after the pass. */
    workloads::Workload transformed;
    core::RegionTable table;
};

/** Register the former's range claims with @p scheme, resolved
 *  against @p machine's data layout (as runCcrExperiment does). */
void
registerClaims(reuse::ReuseScheme &scheme, const core::RegionTable &table,
               const emu::Machine &machine, const ir::Module &mod)
{
    for (const auto &region : table.regions()) {
        if (region.memStructs.empty())
            continue;
        std::vector<reuse::MemClaim> claims;
        claims.reserve(region.memStructs.size());
        for (std::size_t i = 0; i < region.memStructs.size(); ++i) {
            const ir::GlobalId g = region.memStructs[i];
            const emu::Addr base = machine.globalAddr(g);
            const core::MemRange mr = region.memRange(i);
            const std::uint64_t size = mod.global(g).sizeBytes;
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
        scheme.setMemClaims(region.id, std::move(claims));
    }
}

struct BaseStage
{
    uarch::TimingResult timing;
    std::vector<ir::Value> outputs;
    bool completed = false;
};

BaseStage
tracedBaseRun(Tracer *tr, std::uint64_t group, const workloads::Workload &w,
              const RunConfig &config)
{
    Span span(tr, "uarch.base_run", group);
    emu::Machine machine(*w.module);
    w.prepare(machine, config.measureInput);
    uarch::Pipeline pipe(config.pipe);
    BaseStage out;
    out.timing = pipe.run(machine, config.maxInsts);
    out.completed = machine.halted();
    if (out.completed)
        out.outputs = workloads::readOutputs(machine, w);
    return out;
}

profile::ProfileData
tracedProfile(Tracer *tr, std::uint64_t group,
              const workloads::Workload &w, const RunConfig &config)
{
    Span span(tr, "profile.run", group);
    return workloads::profileWorkload(w, config.profileInput,
                                      config.maxInsts);
}

/** Alias analysis, formation and the timed CCR run of one point on
 *  @p ccr (a fresh clone it transforms in place). */
void
tracedCcrPoint(Tracer *tr, std::uint64_t group, workloads::Workload ccr,
               const RunConfig &config, const profile::ProfileData &prof,
               const BaseStage &base, ReplayPoint &out)
{
    std::unique_ptr<reuse::ReuseScheme> scheme = reuse::makeScheme(
        reuse::SchemeConfig{config.scheme, config.crb, config.dtm});
    {
        Span span(tr, "analysis.alias", group);
        analysis::AliasAnalysis alias(*ccr.module);
        alias.annotateDeterminableLoads(*ccr.module);
        span.close();
        Span form(tr, "core.form", group);
        core::RegionFormer former(*ccr.module, prof, alias, config.policy);
        out.table = former.formAll();
        out.seedsRejected = former.stats().seedsRejected;
    }
    out.regions = out.table.size();

    Span span(tr, "uarch.ccr_run", group);
    emu::Machine machine(*ccr.module);
    ccr.prepare(machine, config.measureInput);
    uarch::Pipeline pipe(config.pipe);
    pipe.setScheme(scheme.get());
    if (config.policy.rangeMemClaims)
        registerClaims(*scheme, out.table, machine, *ccr.module);
    out.ccr = pipe.run(machine, config.maxInsts);
    out.completed = machine.halted();
    if (out.completed)
        out.outputsMatch =
            workloads::readOutputs(machine, ccr) == base.outputs;
    span.close();

    const std::string prefix = std::string(scheme->name()) + ".";
    out.hits = scheme->metrics().get(prefix + "hits");
    out.queries = scheme->metrics().get(prefix + "queries");
    out.transformed = std::move(ccr);
}

/** Replay the 6 points of workload @p w (of @p count): module,
 *  profile and base run once, then each geometry on its own clone. */
void
replayWorkload(Tracer *tr, const RunPlan &plan, std::size_t w,
               std::size_t count, std::vector<ReplayPoint> &points,
               std::atomic<std::uint64_t> &profiled_insts)
{
    const auto &p0 = plan.points()[w];
    const std::uint64_t group = w;
    workloads::Workload tmpl;
    {
        Span span(tr, "workloads.build", group);
        tmpl = workloads::buildWorkload(p0.workload);
    }
    {
        Span span(tr, "ir.verify", group);
        ir::verifyOrDie(*tmpl.module);
    }
    const auto clone = [&](std::uint64_t g) {
        Span span(tr, "workloads.build", g);
        workloads::Workload copy = tmpl;
        copy.module = tmpl.module->clone();
        return copy;
    };
    const BaseStage base = tracedBaseRun(tr, group, clone(group), p0.config);
    const profile::ProfileData prof =
        tracedProfile(tr, group, clone(group), p0.config);
    profiled_insts += prof.totalDynamicInsts;

    for (std::size_t k = 0; k < kGeometryCount; ++k) {
        const std::size_t i = k * count + w;
        ReplayPoint &out = points[i];
        out.base = base.timing;
        if (!base.completed || !prof.completed) {
            out.completed = false;
            continue;
        }
        tracedCcrPoint(tr, i, clone(i), plan.points()[i].config, prof,
                       base, out);
    }
}

/** The transformed module on a Machine with the scheme as its reuse
 *  handler and no timing model: the scheme's own host cost. */
std::uint64_t
reuseOnlyRun(Tracer *tr, std::uint64_t group, const ReplayPoint &p,
             const RunConfig &config, std::uint64_t &hits)
{
    std::unique_ptr<reuse::ReuseScheme> scheme = reuse::makeScheme(
        reuse::SchemeConfig{config.scheme, config.crb, config.dtm});
    Span span(tr, "reuse.run", group);
    emu::Machine machine(*p.transformed.module);
    p.transformed.prepare(machine, config.measureInput);
    if (config.policy.rangeMemClaims)
        registerClaims(*scheme, p.table, machine, *p.transformed.module);
    machine.setReuseHandler(scheme.get());
    const std::uint64_t insts = machine.run(config.maxInsts);
    span.close();
    hits = scheme->metrics().get(std::string(scheme->name()) + ".hits");
    return insts;
}

/** runCcrExperiment without a cache, rebuilt from public calls with a
 *  span per stage. Returns the summed stage time. */
double
uncachedReplay(std::uint64_t group, const std::string &name,
               const RunConfig &config, ReplayPoint &out)
{
    Tracer tr;
    workloads::Workload base_w;
    {
        Span span(&tr, "workloads.build", group);
        base_w = workloads::buildWorkload(name);
    }
    {
        Span span(&tr, "ir.verify", group);
        ir::verifyOrDie(*base_w.module);
    }
    const BaseStage base = tracedBaseRun(&tr, group, base_w, config);
    workloads::Workload ccr;
    {
        Span span(&tr, "workloads.build", group);
        ccr = workloads::buildWorkload(name);
    }
    const profile::ProfileData prof = tracedProfile(&tr, group, ccr, config);
    tracedCcrPoint(&tr, group, std::move(ccr), config, prof, base, out);
    out.base = base.timing;
    double sum = 0.0;
    for (const auto &[span_name, seconds] : tr.totals())
        sum += seconds;
    return sum;
}

double
hitRatio(std::uint64_t hits, std::uint64_t lookups)
{
    return ratio(static_cast<double>(hits), static_cast<double>(lookups));
}

void
tracedSweep(const Options &o, const RunPlan &plan,
            const std::vector<std::string> &names, Outcome &out)
{
    // Untraced reference pass: the results every replayed point must
    // reproduce, the ExperimentCache hit ratios and the wall time the
    // traced pass is compared against.
    const Pass ref = runPass(plan, o.jobs);
    std::uint64_t failed = 0;
    checkPass(plan, ref.results, out, failed);
    out.attempted += plan.size();
    out.failed += failed;

    Tracer tracer;
    {
        Span span(&tracer, "obs.report");
        const obs::SimReport report =
            workloads::buildSimReport(plan, ref.results);
        const std::string json = report.toJsonString();
        span.close();
        out.note("obs: SimReport JSON of " + std::to_string(plan.size())
                 + " points is " + std::to_string(json.size()) + " bytes");
    }

    // The replay, one task per workload on as many workers as runPlan
    // uses, in kOverheadPairs (untraced, traced) pairs. The tracing
    // overhead is the median of the pairs' traced/untraced wall-time
    // ratios; the first traced replay gives the per-layer numbers.
    std::vector<ReplayPoint> points(plan.size());
    std::atomic<std::uint64_t> profiled_insts{0};
    const auto replay = [&](Tracer *tr) {
        const double t0 = now();
        ThreadPool pool(o.jobs);
        for (std::size_t w = 0; w < names.size(); ++w)
            pool.submit([&, w] {
                replayWorkload(tr, plan, w, names.size(), points,
                               profiled_insts);
            });
        pool.wait();
        return now() - t0;
    };
    std::vector<double> untraced_walls, traced_walls, overheads;
    std::uint64_t traced_insts = 0;
    for (int k = 0; k < kOverheadPairs; ++k) {
        Tracer discarded;
        untraced_walls.push_back(replay(nullptr));
        profiled_insts = 0;
        traced_walls.push_back(replay(k == 0 ? &tracer : &discarded));
        if (k == 0)
            traced_insts = profiled_insts;
        overheads.push_back(traced_walls.back() / untraced_walls.back());
    }
    profiled_insts = traced_insts;

    std::uint64_t mismatches = 0;
    std::uint64_t base_cycles = 0, ccr_cycles = 0, ccr_insts = 0;
    std::uint64_t regions = 0, seeds_rejected = 0;
    std::map<reuse::SchemeKind, std::pair<std::uint64_t, std::uint64_t>>
        by_scheme; // hits, queries
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const RunResult &r = ref.results[i];
        const ReplayPoint &p = points[i];
        const auto &config = plan.points()[i].config;
        if (!r.completed || !p.completed) {
            if (r.completed != p.completed)
                ++mismatches;
            continue;
        }
        if (p.base.cycles != r.base.cycles || p.base.insts != r.base.insts
            || p.ccr.cycles != r.ccr.cycles || p.ccr.insts != r.ccr.insts
            || p.hits != schemeCount(r, config, "hits")
            || p.queries != schemeCount(r, config, "queries")
            || !p.outputsMatch)
            ++mismatches;
        if (i < names.size())
            base_cycles += p.base.cycles;
        ccr_cycles += p.ccr.cycles;
        ccr_insts += p.ccr.insts;
        regions += p.regions;
        seeds_rejected += static_cast<std::uint64_t>(p.seedsRejected);
        by_scheme[config.scheme].first += p.hits;
        by_scheme[config.scheme].second += p.queries;
    }
    if (mismatches != 0)
        out.wrong(std::to_string(mismatches)
                  + " replayed points differ from runCcrExperiment");
    out.note("trace: replay reproduces runCcrExperiment on "
             + std::to_string(plan.size() - mismatches) + "/"
             + std::to_string(plan.size()) + " points");

    // Probes outside the timed pass: the scheme alone on the
    // emulator, and the bare emulator.
    std::uint64_t probe_mismatch = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const ReplayPoint &p = points[i];
        if (!p.completed)
            continue;
        std::uint64_t hits = 0;
        reuseOnlyRun(&tracer, i, p, plan.points()[i].config, hits);
        if (hits != p.hits)
            ++probe_mismatch;
    }
    if (probe_mismatch != 0)
        out.wrong(std::to_string(probe_mismatch)
                  + " reuse-only runs disagree with the timed run's hits");
    std::uint64_t emu_insts = 0;
    double emu_seconds = 0.0;
    for (const auto &name : names) {
        const workloads::Workload w = workloads::buildWorkload(name);
        emu::Machine machine(*w.module);
        w.prepare(machine, plan.points()[0].config.measureInput);
        const double t = now();
        emu_insts += machine.run(plan.points()[0].config.maxInsts);
        emu_seconds += now() - t;
    }

    // Closure: one uncached point per workload, timed as a whole by
    // runCcrExperiment and replayed stage by stage, in alternating
    // order so neither side always runs on warmer caches.
    double closure_spans = 0.0, closure_wall = 0.0;
    {
        for (std::size_t w = 0; w < names.size(); ++w) {
            const std::size_t first = kClosureGeometry * names.size() + w;
            const auto &point = plan.points()[first];
            ReplayPoint p;
            RunResult r;
            const auto whole = [&] {
                const double t = now();
                r = workloads::runCcrExperiment(point.workload, point.config);
                closure_wall += now() - t;
            };
            if (w % 2 == 0)
                whole();
            closure_spans +=
                uncachedReplay(first, point.workload, point.config, p);
            if (w % 2 == 1)
                whole();
            if (r.completed
                && (p.ccr.cycles != r.ccr.cycles
                    || p.base.cycles != r.base.cycles))
                out.wrong(point.workload
                          + ": uncached replay differs from runCcrExperiment");
        }
    }

    const auto totals = tracer.totals();
    const auto ms = [&](const char *name) { return totalMs(totals, name); };
    const auto &c = ref.cache;
    out.add("workloads.build_ms", ms("workloads.build"), "ms");
    out.add("workloads.cache.module_hit_ratio",
            hitRatio(c.moduleHits, c.moduleHits + c.moduleMisses), "ratio");
    out.add("workloads.cache.profile_hit_ratio",
            hitRatio(c.profileHits, c.profileHits + c.profileMisses),
            "ratio");
    out.add("workloads.cache.base_hit_ratio",
            hitRatio(c.baseRunHits, c.baseRunHits + c.baseRunMisses),
            "ratio");
    out.note("workloads.cache: module " + std::to_string(c.moduleHits)
             + " hits / " + std::to_string(c.moduleHits + c.moduleMisses)
             + " lookups, profile " + std::to_string(c.profileHits) + " / "
             + std::to_string(c.profileHits + c.profileMisses) + ", base "
             + std::to_string(c.baseRunHits) + " / "
             + std::to_string(c.baseRunHits + c.baseRunMisses));
    out.add("ir.verify_ms", ms("ir.verify"), "ms");
    const double profile_ms = ms("profile.run");
    out.add("profile.run_ms", profile_ms, "ms");
    out.add("profile.minst_per_s",
            ratio(static_cast<double>(profiled_insts.load()) / 1e6,
                  profile_ms / 1e3),
            "Minst/s");
    out.add("analysis.alias_ms", ms("analysis.alias"), "ms");
    out.add("core.form_ms", ms("core.form"), "ms");
    out.add("core.regions_formed", static_cast<double>(regions), "count");
    out.add("core.seeds_rejected", static_cast<double>(seeds_rejected),
            "count");
    out.add("emu.run_minst_per_s",
            ratio(static_cast<double>(emu_insts) / 1e6, emu_seconds),
            "Minst/s");
    const double reuse_ms = ms("reuse.run");
    out.add("reuse.run_ms", reuse_ms, "ms");
    const auto &crb = by_scheme[reuse::SchemeKind::Crb];
    const auto &dtm = by_scheme[reuse::SchemeKind::Dtm];
    out.add("reuse.crb.queries", static_cast<double>(crb.second), "count");
    out.add("reuse.crb.hit_ratio", hitRatio(crb.first, crb.second), "ratio");
    out.add("reuse.dtm.queries", static_cast<double>(dtm.second), "count");
    out.add("reuse.dtm.hit_ratio", hitRatio(dtm.first, dtm.second), "ratio");
    const double base_ms = ms("uarch.base_run");
    const double ccr_ms = ms("uarch.ccr_run");
    out.add("uarch.base_run_ms", base_ms, "ms");
    out.add("uarch.ccr_run_ms", ccr_ms, "ms");
    out.add("uarch.model_ns_per_inst",
            ratio((ccr_ms - reuse_ms) * 1e6, static_cast<double>(ccr_insts)),
            "ns");
    out.add("uarch.base_cycles", static_cast<double>(base_cycles), "count");
    out.add("uarch.ccr_cycles", static_cast<double>(ccr_cycles), "count");
    out.add("obs.report_ms", ms("obs.report"), "ms");
    out.add("trace.closure_ratio", ratio(closure_spans, closure_wall),
            "ratio");
    out.add("trace.overhead_ratio", median(overheads), "ratio");
    out.note("trace: closure = " + fmt(closure_spans) + " s of stage spans / "
             + fmt(closure_wall) + " s of runCcrExperiment over "
             + std::to_string(names.size()) + " uncached points");
    out.note("trace: overhead = median of traced/untraced replay wall "
             "time over " + std::to_string(kOverheadPairs) + " pairs; medians "
             + fmt(median(traced_walls)) + " s / "
             + fmt(median(untraced_walls)) + " s (runPlan pass: "
             + fmt(ref.wall) + " s)");

    // Where a sweep pass's host time goes. The base run is emulator
    // plus timing model; the CCR run is emulator plus scheme plus
    // timing model. The bare-emulator probe covers the base modules
    // once per workload, as the shared base run does.
    const double emu_ms = emu_seconds * 1e3;
    const double model_ms = (base_ms - emu_ms) + (ccr_ms - reuse_ms);
    const double form_ms =
        ms("analysis.alias") + ms("core.form");
    const double build_ms =
        ms("workloads.build") + ms("ir.verify");
    const double pass_ms = model_ms + emu_ms + reuse_ms + profile_ms
                           + form_ms + build_ms;
    const auto share = [&](const char *what, double part) {
        out.note(std::string("split: ") + what + " "
                 + fmt(100.0 * ratio(part, pass_ms)) + "% ("
                 + fmt(part) + " ms)");
    };
    share("timing model (uarch runs minus emulator and scheme)", model_ms);
    share("emulator + scheme (bare base runs + reuse-only runs)",
          emu_ms + reuse_ms);
    share("RPS profiling (ValueProfiler + emulator)", profile_ms);
    share("alias analysis + formation", form_ms);
    share("module build + verify", build_ms);

    if (!o.traceOut.empty()) {
        if (!tracer.write(o.traceOut))
            out.wrong("cannot write trace to " + o.traceOut);
        else
            out.note("trace: " + std::to_string(tracer.size())
                     + " spans written to " + o.traceOut);
    }
}

} // namespace

Outcome
runSweep(const Options &o, bool held_out)
{
    Outcome out;
    const std::string label = held_out ? "sweep-ref" : "sweep";
    const std::vector<std::string> names = sweepWorkloads(o);
    const RunPlan plan = makePlan(names, held_out, o.maxInsts);
    if (o.trace) {
        tracedSweep(o, plan, names, out);
        return out;
    }

    // One set-up takes about 10 ms, and the host's speed drifts over
    // seconds, so a sample averages kSetupRounds set-ups and the
    // samples are spread over the run: one before the warm-up pass,
    // one after each timed pass.
    std::vector<double> setups;
    const auto setup_sample = [&] {
        double total = 0.0;
        for (int k = 0; k < kSetupRounds; ++k)
            total += setupOnce(names);
        setups.push_back(total / kSetupRounds);
    };
    setup_sample();

    // A warm-up pass, not timed: the first pass in a process runs on
    // cold allocator arenas and caches and is much noisier than the
    // rest. Its digest is the reference the timed passes must match.
    std::vector<double> walls, speedups;
    std::vector<Repetition> reps;
    std::uint64_t failed = 0;
    const Pass warm = runPass(plan, o.jobs);
    const std::string first_digest = checkPass(plan, warm.results, out, failed);
    for (const auto &r : warm.results)
        if (r.completed && r.ccr.cycles != 0)
            speedups.push_back(r.speedup());

    const double t0 = now();
    do {
        const Pass pass = runPass(plan, o.jobs);
        failed = 0;
        if (checkPass(plan, pass.results, out, failed) != first_digest)
            out.wrong("pass " + std::to_string(walls.size() + 1)
                      + " simulated statistics differ from the warm-up");
        out.attempted += plan.size();
        out.failed += failed;
        walls.push_back(pass.wall);
        reps.push_back({static_cast<double>(plan.size()) / pass.wall,
                        pass.pointSeconds});
        setup_sample();
    } while (now() - t0 < o.seconds);

    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    addRepetitions(out, reps);

    out.show(label + ".wall_s", median(walls), "s");
    out.show(label + ".sim_speedup_geomean", geomean(speedups), "x");
    out.show(label + ".fail_ratio",
             ratio(static_cast<double>(out.failed),
                   static_cast<double>(out.attempted)),
             "ratio");
    std::string pass_walls;
    for (const double w : walls)
        pass_walls += " " + fmt(w);
    out.note(label + ".digest = " + first_digest + " (" +
             std::to_string(plan.size()) + " points, " +
             std::to_string(walls.size()) + " passes)");
    out.note(label + ".pass_walls_s =" + pass_walls);
    std::string setup_samples;
    for (const double s : setups)
        setup_samples += " " + fmt(s);
    out.note(label + ".setup_samples_s =" + setup_samples);
    return out;
}

} // namespace perfbench
