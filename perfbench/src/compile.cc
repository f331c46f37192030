/**
 * @file
 * The `compile` workload: a seeded population of generated kernels
 * plus the corpus `.lc` files, each taken through the compile side of
 * CCR that ccrgen and ccrd's inline admission pay: build from text,
 * the classic optimizer, verify, RPS profile, alias analysis, region
 * formation, region lint and the dynamic lint cross-check. There is no
 * timed pipeline run, so text, opt, profile, analysis, core and lint
 * do nearly all the work and uarch none. No work is shared between
 * kernels.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/alias.hh"
#include "core/former.hh"
#include "gen/gen.hh"
#include "ir/verifier.hh"
#include "lint/crosscheck.hh"
#include "lint/lint.hh"
#include "opt/passes.hh"
#include "text/parser.hh"
#include "trace.hh"
#include "workloads.hh"
#include "workloads/corpus.hh"
#include "workloads/harness.hh"

namespace perfbench
{

namespace
{

using namespace ccr;

/** Generated kernels per pass (the corpus files come on top). */
constexpr std::size_t kPopulation = 1200;
constexpr std::size_t kTinyPopulation = 3;

/** (untraced, traced) pass pairs behind trace.overhead_ratio. */
constexpr int kOverheadPairs = 3;

/** Instruction budget of the profile and cross-check runs. */
constexpr std::uint64_t kMaxInsts = 50'000'000ULL;

struct Kernel
{
    std::string name;
    std::string text;

    bool operator==(const Kernel &) const = default;
};

std::vector<Kernel>
makeKernels(const Options &o)
{
    gen::GenKnobs knobs;
    knobs.seed = o.seed;
    std::vector<Kernel> kernels;
    for (auto &k : gen::generatePopulation(
             knobs, o.tiny ? kTinyPopulation : kPopulation, o.jobs))
        kernels.push_back({std::move(k.name), std::move(k.text)});

    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(workloads::corpusDir()))
        if (entry.path().extension() == ".lc")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    if (o.tiny && files.size() > 1)
        files.resize(1);
    for (const auto &path : files) {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        kernels.push_back({path.filename().string(), text.str()});
    }
    return kernels;
}

/** What one kernel's compile produced: the deterministic part goes
 *  into the digest, `failure` names the first stage that failed. */
struct KernelResult
{
    std::string failure;
    std::uint64_t instsRemoved = 0;
    std::uint64_t profiledInsts = 0;
    std::uint64_t regions = 0;
    std::uint64_t seedsRejected = 0;
    std::uint64_t lintErrors = 0;
    std::uint64_t regionEntries = 0;
    std::uint64_t sourceBytes = 0;

    void
    digest(Digest &d) const
    {
        d.add(failure).add(instsRemoved).add(profiledInsts).add(regions)
            .add(seedsRejected).add(lintErrors).add(regionEntries);
    }
};

KernelResult
compileKernel(Tracer *tr, std::uint64_t group, const Kernel &k,
              std::uint64_t max_insts)
{
    KernelResult r;
    r.sourceBytes = k.text.size();
    std::vector<std::string> errors;
    std::optional<workloads::Workload> w;
    {
        Span span(tr, "workloads.build", group);
        w = workloads::buildWorkloadFromText(k.text, k.name, errors);
    }
    if (!w) {
        r.failure = "build";
        return r;
    }
    if (tr != nullptr) {
        // Probe: the parse buildWorkloadFromText just did, timed on
        // its own. Outside the kernel's stage sum.
        Span span(tr, "probe.text.parse", group);
        text::parseModule(k.text);
    }

    const std::size_t before = w->module->numInsts();
    {
        Span span(tr, "opt.pipeline", group);
        opt::runStandardPipeline(*w->module);
    }
    const std::size_t after = w->module->numInsts();
    r.instsRemoved = before > after ? before - after : 0;
    {
        Span span(tr, "ir.verify", group);
        if (ir::hasErrors(ir::verifyModule(*w->module))) {
            r.failure = "verify";
            return r;
        }
    }

    profile::ProfileData prof;
    {
        Span span(tr, "profile.run", group);
        prof = workloads::profileWorkload(*w, workloads::InputSet::Train,
                                          max_insts);
    }
    r.profiledInsts = prof.totalDynamicInsts;
    if (!prof.completed) {
        r.failure = "profile-budget";
        return r;
    }

    core::RegionTable regions;
    {
        Span span(tr, "analysis.alias", group);
        analysis::AliasAnalysis alias(*w->module);
        alias.annotateDeterminableLoads(*w->module);
        span.close();
        Span form(tr, "core.form", group);
        core::RegionFormer former(*w->module, prof, alias);
        regions = former.formAll();
        r.seedsRejected =
            static_cast<std::uint64_t>(former.stats().seedsRejected);
    }
    r.regions = regions.size();

    {
        Span span(tr, "lint.module", group);
        r.lintErrors += lint::lintModule(*w->module, regions).numErrors();
    }
    {
        Span span(tr, "lint.crosscheck", group);
        emu::Machine machine(*w->module);
        w->prepare(machine, workloads::InputSet::Train);
        const lint::CrossCheckResult cross =
            lint::crossCheck(machine, regions, max_insts);
        r.lintErrors += ir::countErrors(cross.diagnostics);
        r.regionEntries = cross.regionEntries;
        if (!machine.halted())
            r.failure = "crosscheck-budget";
    }
    if (r.failure.empty() && r.lintErrors != 0)
        r.failure = "lint";
    return r;
}

struct Pass
{
    std::vector<KernelResult> results;
    std::vector<double> latencies;
    double wall = 0.0;
};

/** Compile every kernel once, on o.jobs worker threads pulling the
 *  next kernel as they finish one (closed loop). */
Pass
runPass(const Options &o, const std::vector<Kernel> &kernels, Tracer *tr,
        std::uint64_t max_insts)
{
    Pass pass;
    pass.results.resize(kernels.size());
    pass.latencies.resize(kernels.size());
    std::atomic<std::size_t> next{0};
    const double t0 = now();
    std::vector<std::thread> workers;
    for (int j = 0; j < o.jobs; ++j)
        workers.emplace_back([&] {
            for (std::size_t i = next++; i < kernels.size(); i = next++) {
                const double t = now();
                pass.results[i] = compileKernel(tr, i, kernels[i], max_insts);
                pass.latencies[i] = now() - t;
            }
        });
    for (auto &t : workers)
        t.join();
    pass.wall = now() - t0;
    return pass;
}

std::string
digestOf(const std::vector<KernelResult> &results)
{
    Digest d;
    for (const auto &r : results)
        r.digest(d);
    return d.hex();
}

void
tracedCompile(const Options &o, const std::vector<Kernel> &kernels,
              std::uint64_t max_insts, Outcome &out)
{
    // A warm-up pass, then kOverheadPairs (untraced, traced) pairs. The
    // tracing overhead is the median of the pairs' traced/untraced
    // wall-time ratios, the parse probe excluded; the first traced pass
    // gives the per-layer numbers.
    runPass(o, kernels, nullptr, max_insts);
    const Pass ref = runPass(o, kernels, nullptr, max_insts);
    Tracer tracer;
    const Pass traced = runPass(o, kernels, &tracer, max_insts);
    const auto probe_s = [&](const Tracer &t) {
        return totalMs(t.totals(), "probe.text.parse") / 1e3 / o.jobs;
    };
    std::vector<double> overheads{(traced.wall - probe_s(tracer)) / ref.wall};
    for (int k = 1; k < kOverheadPairs; ++k) {
        Tracer discarded;
        const double u = runPass(o, kernels, nullptr, max_insts).wall;
        const double t = runPass(o, kernels, &discarded, max_insts).wall;
        overheads.push_back((t - probe_s(discarded)) / u);
    }
    out.attempted += kernels.size();
    for (const auto &r : traced.results)
        out.failed += r.failure.empty() ? 0 : 1;
    if (digestOf(ref.results) != digestOf(traced.results))
        out.wrong("traced compile results differ from untraced");

    const auto totals = tracer.totals();
    const auto ms = [&](const char *name) { return totalMs(totals, name); };
    std::uint64_t removed = 0, profiled = 0, regions = 0, rejected = 0,
                  lint_errors = 0, bytes = 0;
    for (const auto &r : traced.results) {
        removed += r.instsRemoved;
        profiled += r.profiledInsts;
        regions += r.regions;
        rejected += r.seedsRejected;
        lint_errors += r.lintErrors;
        bytes += r.sourceBytes;
    }
    const double parse_ms = ms("probe.text.parse");
    const double profile_ms = ms("profile.run");
    out.add("workloads.build_ms", ms("workloads.build"), "ms");
    out.add("text.parse_ms", parse_ms, "ms");
    out.add("text.parse_mb_per_s",
            ratio(static_cast<double>(bytes) / 1e6, parse_ms / 1e3), "MB/s");
    out.add("ir.verify_ms", ms("ir.verify"), "ms");
    out.add("opt.pipeline_ms", ms("opt.pipeline"), "ms");
    out.add("opt.insts_removed", static_cast<double>(removed), "count");
    out.add("profile.run_ms", profile_ms, "ms");
    out.add("profile.minst_per_s",
            ratio(static_cast<double>(profiled) / 1e6, profile_ms / 1e3),
            "Minst/s");
    out.add("analysis.alias_ms", ms("analysis.alias"), "ms");
    out.add("core.form_ms", ms("core.form"), "ms");
    out.add("core.regions_formed", static_cast<double>(regions), "count");
    out.add("core.seeds_rejected", static_cast<double>(rejected), "count");
    out.add("lint.module_ms", ms("lint.module"), "ms");
    out.add("lint.crosscheck_ms", ms("lint.crosscheck"), "ms");
    out.add("lint.errors", static_cast<double>(lint_errors), "count");

    // Closure: the stage spans of each kernel against its measured
    // latency (the parse probe is outside both).
    double stages = 0.0, kernels_wall = 0.0;
    for (const auto &[name, seconds] : totals)
        if (name.rfind("probe.", 0) != 0)
            stages += seconds;
    for (const double l : traced.latencies)
        kernels_wall += l;
    kernels_wall -= parse_ms / 1e3;
    out.add("trace.closure_ratio", ratio(stages, kernels_wall), "ratio");
    out.add("trace.overhead_ratio", median(overheads), "ratio");
    out.note("trace: closure = " + fmt(stages) + " s of stage spans / "
             + fmt(kernels_wall) + " s of kernel latency");
    out.note("trace: overhead = median of traced/untraced pass wall time "
             "over " + std::to_string(kOverheadPairs)
             + " pairs, parse probe excluded; first pair " + fmt(traced.wall)
             + " s / " + fmt(ref.wall) + " s");
    for (const auto &[name, seconds] : tracer.selfTotals())
        out.note("split: " + name + " " + fmt(100.0 * ratio(seconds, stages))
                 + "% (" + fmt(seconds * 1e3) + " ms)");
    if (!o.traceOut.empty() && !tracer.write(o.traceOut))
        out.wrong("cannot write trace to " + o.traceOut);
}

} // namespace

Outcome
runCompile(const Options &o)
{
    Outcome out;
    const std::uint64_t max_insts = o.maxInsts != 0 ? o.maxInsts : kMaxInsts;

    // Set-up: generate the population and read the corpus. It is done
    // again after every timed pass, so the reported median samples the
    // host's drifting speed over the whole run; every repeat must give
    // the same kernels.
    std::vector<double> setups;
    const auto setup = [&] {
        const double t = now();
        std::vector<Kernel> made = makeKernels(o);
        setups.push_back(now() - t);
        return made;
    };
    const std::vector<Kernel> kernels = setup();

    if (o.trace) {
        tracedCompile(o, kernels, max_insts, out);
        return out;
    }

    // A warm-up pass, not timed, as in the sweep; its digest is the
    // reference every timed pass must reproduce.
    const Pass warm = runPass(o, kernels, nullptr, max_insts);
    const std::string first_digest = digestOf(warm.results);
    for (std::size_t i = 0; i < kernels.size(); ++i)
        if (!warm.results[i].failure.empty())
            out.note("failed: " + kernels[i].name + " ("
                     + warm.results[i].failure + ")");

    std::vector<double> walls;
    std::vector<Repetition> reps;
    const double t0 = now();
    do {
        const Pass pass = runPass(o, kernels, nullptr, max_insts);
        out.attempted += kernels.size();
        for (const auto &r : pass.results)
            out.failed += r.failure.empty() ? 0 : 1;
        if (digestOf(pass.results) != first_digest)
            out.wrong("pass " + std::to_string(walls.size() + 1)
                      + " compile results differ from the warm-up");
        walls.push_back(pass.wall);
        reps.push_back({static_cast<double>(kernels.size()) / pass.wall,
                        pass.latencies});
        if (setup() != kernels)
            out.wrong("set-up generated different kernels");
    } while (now() - t0 < o.seconds);

    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    addRepetitions(out, reps);
    const double kernels_per_s =
        static_cast<double>(kernels.size()) / median(walls);
    out.show("compile.kernels_per_s", kernels_per_s, "1/s");
    std::vector<double> pooled;
    for (const Repetition &r : reps)
        pooled.insert(pooled.end(), r.latencies.begin(), r.latencies.end());
    out.show("compile.kernel_p90_ms", percentile(pooled, 0.9) * 1e3, "ms");
    out.show("compile.fail_ratio",
             ratio(static_cast<double>(out.failed),
                   static_cast<double>(out.attempted)),
             "ratio");
    std::string pass_walls;
    for (const double w : walls)
        pass_walls += " " + fmt(w);
    out.note("compile.pass_walls_s =" + pass_walls);
    out.note("compile.digest = " + first_digest + " ("
             + std::to_string(kernels.size()) + " kernels, "
             + std::to_string(walls.size()) + " timed passes)");
    return out;
}

} // namespace perfbench
