/**
 * @file
 * Determinism and correctness tests for the parallel experiment
 * driver, the experiment cache, and the support-layer thread pool.
 *
 * The driver's core contract: a RunPlan produces bit-identical
 * results (and therefore byte-identical tables) for any worker count,
 * any cache configuration, and across repeated runs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>

#include "support/table.hh"
#include "support/thread_pool.hh"
#include "workloads/cache.hh"
#include "workloads/driver.hh"

namespace
{

using namespace ccr;
using namespace ccr::workloads;

/** A small but non-trivial plan: three workloads x two geometries. */
RunPlan
smallPlan()
{
    RunPlan plan;
    for (const auto &name : {"espresso", "li", "compress"}) {
        for (const int ci : {2, 8}) {
            RunConfig config;
            config.crb.entries = 32;
            config.crb.instances = ci;
            plan.add(name, config);
        }
    }
    return plan;
}

/** Everything observable about a RunResult, flattened for equality
 *  comparison. The report's metric snapshot covers the base and CCR
 *  counters; its per-region array is already sorted by id. */
std::string
fingerprint(const RunResult &r)
{
    std::ostringstream os;
    os << r.base.cycles << '/' << r.base.insts << '/'
       << r.report.metric("base.icache.misses") << '/'
       << r.report.metric("base.dcache.misses") << '/'
       << r.report.metric("base.bpred.mispredicts") << '|'
       << r.ccr.cycles << '/' << r.ccr.insts << '/'
       << r.report.metric("ccr.reuse.hits") << '/'
       << r.report.metric("ccr.reuse.misses") << '|'
       << r.report.metric("crb.queries") << '/'
       << r.report.metric("crb.hits") << '/'
       << r.report.metric("crb.invalidates") << '|'
       << r.regions.size() << '|' << r.outputsMatch;
    for (const auto &region : r.report.regions.items()) {
        if (region.at("hits").asUint() == 0)
            continue;
        os << '|' << region.at("id").asUint() << ':'
           << region.at("hits").asUint();
    }
    return os.str();
}

std::vector<std::string>
fingerprints(const std::vector<RunResult> &results)
{
    std::vector<std::string> fps;
    fps.reserve(results.size());
    for (const auto &r : results)
        fps.push_back(fingerprint(r));
    return fps;
}

/** Render a plan's results the way the benches do. */
std::string
renderTable(const RunPlan &plan, const std::vector<RunResult> &results)
{
    Table t("speedup");
    t.setHeader({"workload", "entries", "instances", "speedup",
                 "hit rate"});
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const auto &p = plan.points()[i];
        const auto &r = results[i];
        const double rate = obs::ratio(
            static_cast<double>(r.report.metric("crb.hits")),
            static_cast<double>(r.report.metric("crb.queries")));
        t.addRow({p.workload, std::to_string(p.config.crb.entries),
                  std::to_string(p.config.crb.instances),
                  Table::fmt(r.speedup(), 3), Table::pct(rate, 1)});
    }
    std::ostringstream os;
    t.print(os);
    return os.str();
}

TEST(ParallelDriver, WorkerCountDoesNotChangeResults)
{
    const RunPlan plan = smallPlan();

    DriverOptions opts;
    opts.jobs = 1;
    ExperimentCache cache1;
    opts.cache = &cache1;
    const auto r1 = runPlan(plan, opts);

    opts.jobs = 2;
    ExperimentCache cache2;
    opts.cache = &cache2;
    const auto r2 = runPlan(plan, opts);

    opts.jobs = 8;
    ExperimentCache cache8;
    opts.cache = &cache8;
    const auto r8 = runPlan(plan, opts);

    ASSERT_EQ(r1.size(), plan.size());
    EXPECT_EQ(fingerprints(r1), fingerprints(r2));
    EXPECT_EQ(fingerprints(r1), fingerprints(r8));

    // Byte-identical table output regardless of completion order.
    EXPECT_EQ(renderTable(plan, r1), renderTable(plan, r2));
    EXPECT_EQ(renderTable(plan, r1), renderTable(plan, r8));
}

TEST(ParallelDriver, CachedMatchesUncached)
{
    RunPlan plan;
    RunConfig config;
    config.crb.entries = 32;
    config.crb.instances = 4;
    plan.add("li", config);
    config.optimizeBase = true;
    plan.add("li", config);

    DriverOptions cached;
    cached.jobs = 1;
    ExperimentCache cache;
    cached.cache = &cache;

    // One call-local cache per point: nothing is shared between the
    // plain and the optimized module.
    std::vector<RunResult> uncached;
    for (const auto &point : plan.points())
        uncached.push_back(runCcrExperiment(point.workload, point.config));

    EXPECT_EQ(fingerprints(runPlan(plan, cached)),
              fingerprints(uncached));
}

TEST(ParallelDriver, RepeatedRunsAreStable)
{
    const RunPlan plan = smallPlan();
    DriverOptions opts;
    opts.jobs = 4;
    ExperimentCache cacheA, cacheB;

    opts.cache = &cacheA;
    const auto first = fingerprints(runPlan(plan, opts));
    // Same cache again: everything served from cache.
    const auto again = fingerprints(runPlan(plan, opts));
    // Fresh cache: everything recomputed.
    opts.cache = &cacheB;
    const auto fresh = fingerprints(runPlan(plan, opts));

    EXPECT_EQ(first, again);
    EXPECT_EQ(first, fresh);
}

TEST(ParallelDriver, ResultsArriveInPlanOrder)
{
    RunPlan plan;
    RunConfig small, large;
    small.crb.entries = 8;
    small.crb.instances = 1;
    large.crb.entries = 128;
    large.crb.instances = 16;
    const auto i0 = plan.add("espresso", large);
    const auto i1 = plan.add("espresso", small);
    EXPECT_EQ(i0, 0u);
    EXPECT_EQ(i1, 1u);

    ExperimentCache cache;
    DriverOptions opts;
    opts.jobs = 2;
    opts.cache = &cache;
    const auto results = runPlan(plan, opts);
    ASSERT_EQ(results.size(), 2u);
    // The larger CRB can only do at least as well on hits.
    EXPECT_GE(results[0].report.metric("crb.hits"),
              results[1].report.metric("crb.hits"));
}

TEST(ExperimentCache, SharesExpensiveStagesAcrossPoints)
{
    ExperimentCache cache;
    RunPlan plan;
    for (const int ci : {1, 2, 4, 8}) {
        RunConfig config;
        config.crb.entries = 32;
        config.crb.instances = ci;
        plan.add("espresso", config);
    }
    DriverOptions opts;
    opts.jobs = 2;
    opts.cache = &cache;
    runPlan(plan, opts);

    const auto stats = cache.stats();
    // One module template, one profile, one base run for 4 points.
    EXPECT_EQ(stats.profileMisses, 1u);
    EXPECT_EQ(stats.baseRunMisses, 1u);
    EXPECT_EQ(stats.profileHits, 3u);
    EXPECT_EQ(stats.baseRunHits, 3u);
}

TEST(ExperimentCache, ClonesAreIndependent)
{
    ExperimentCache cache;
    const Workload a = cache.workload("li", false);
    const Workload b = cache.workload("li", false);
    ASSERT_NE(a.module.get(), b.module.get());
    EXPECT_EQ(a.module->numInsts(), b.module->numInsts());
    EXPECT_EQ(a.module->numFunctions(), b.module->numFunctions());

    // Mutating one clone must not leak into the next.
    const auto before = b.module->numInsts();
    a.module->function(0).blocks().front().insts().clear();
    const Workload c = cache.workload("li", false);
    EXPECT_EQ(c.module->numInsts(), before);
}

TEST(ExperimentCache, DistinguishesOptimizedModules)
{
    ExperimentCache cache;
    const Workload plain = cache.workload("espresso", false);
    const Workload optimized = cache.workload("espresso", true);
    // The classic pipeline (inlining, unrolling) changes the module.
    EXPECT_NE(plain.module->numInsts(), optimized.module->numInsts());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.moduleMisses, 2u);
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);

    // The pool stays usable after a wait().
    for (int i = 0; i < 10; ++i)
        pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 110);
}

TEST(ThreadPool, WorkerRngsAreDeterministic)
{
    const auto collect = [] {
        ThreadPool pool(3, 0xFEED);
        std::vector<std::uint64_t> draws(3);
        for (int w = 0; w < 3; ++w) {
            pool.submit([&draws] {
                const int id = ThreadPool::currentWorkerId();
                ASSERT_GE(id, 0);
                // First draw of this worker's Rng; tasks land on
                // arbitrary workers, so record by worker id.
                if (draws[static_cast<std::size_t>(id)] == 0) {
                    draws[static_cast<std::size_t>(id)] =
                        ThreadPool::currentWorkerRng()->next();
                }
            });
        }
        pool.wait();
        return draws;
    };
    const auto a = collect();
    const auto b = collect();
    // Per-worker streams are reproducible across pool instances.
    for (std::size_t w = 0; w < a.size(); ++w) {
        if (a[w] != 0 && b[w] != 0)
            EXPECT_EQ(a[w], b[w]);
    }
    EXPECT_EQ(ThreadPool::currentWorkerRng(), nullptr);
    EXPECT_EQ(ThreadPool::currentWorkerId(), -1);
}

TEST(ThreadPool, PropagatesTaskExceptions)
{
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    pool.submit([] { throw std::runtime_error("task failed"); });
    for (int i = 0; i < 8; ++i)
        pool.submit([&] { ++completed; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The remaining tasks still drained.
    EXPECT_EQ(completed.load(), 8);
    // The error does not stick to the next batch.
    pool.submit([&] { ++completed; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(completed.load(), 9);
}

TEST(ModuleClone, PreservesStructureAndUids)
{
    const Workload w = buildWorkload("compress");
    const auto copy = w.module->clone();

    ASSERT_EQ(copy->numFunctions(), w.module->numFunctions());
    ASSERT_EQ(copy->numGlobals(), w.module->numGlobals());
    EXPECT_EQ(copy->numInsts(), w.module->numInsts());
    EXPECT_EQ(copy->entryFunction(), w.module->entryFunction());
    EXPECT_EQ(copy->regionIdBound(), w.module->regionIdBound());

    for (std::size_t f = 0; f < w.module->numFunctions(); ++f) {
        const auto &orig = w.module->function(static_cast<ir::FuncId>(f));
        const auto &dup = copy->function(static_cast<ir::FuncId>(f));
        ASSERT_EQ(dup.numBlocks(), orig.numBlocks());
        EXPECT_EQ(dup.numRegs(), orig.numRegs());
        EXPECT_EQ(dup.uidBound(), orig.uidBound());
        for (std::size_t bb = 0; bb < orig.numBlocks(); ++bb) {
            const auto &ob = orig.block(static_cast<ir::BlockId>(bb));
            const auto &db = dup.block(static_cast<ir::BlockId>(bb));
            ASSERT_EQ(db.size(), ob.size());
            for (std::size_t i = 0; i < ob.size(); ++i) {
                EXPECT_EQ(db.inst(i).uid, ob.inst(i).uid);
                EXPECT_EQ(db.inst(i).op, ob.inst(i).op);
            }
        }
    }
}

} // namespace
