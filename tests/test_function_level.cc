/**
 * @file
 * Tests for function-level reuse (paper §6): purity analysis, call
 * site selection, CRB call-depth memoization, correctness under
 * invalidation, and end-to-end equivalence on the workload suite.
 */

#include <gtest/gtest.h>

#include "analysis/alias.hh"
#include "core/former.hh"
#include "emu/machine.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "profile/value_profiler.hh"
#include "reuse/dtm.hh"
#include "uarch/crb.hh"
#include "workloads/harness.hh"

namespace
{

using namespace ccr;
using namespace ccr::ir;

/**
 * Module: main loops over a stream, calling square_plus(x) — a pure
 * function — and occasionally poke() which stores into a table read
 * by table_sum(x).
 */
struct FnFixture
{
    Module m{"t"};
    GlobalId stream, nreq, out, table;
    Function *square = nullptr;
    Function *tsum = nullptr;
    Function *poke = nullptr;
    Function *mainf = nullptr;

    FnFixture()
    {
        stream = m.addGlobal("stream", 512 * 8).id;
        nreq = m.addGlobal("n", 8).id;
        out = m.addGlobal("out", 8).id;
        table = m.addGlobal("table", 16 * 8).id;

        square = &m.addFunction("square_plus", 1);
        {
            IRBuilder b(*square);
            b.setInsertPoint(b.newBlock());
            const Reg x = 0;
            const Reg sq = b.mul(x, x);
            const Reg r = b.addI(sq, 7);
            const Reg f = b.xorR(r, b.shrI(r, 3));
            b.ret(f);
        }

        tsum = &m.addFunction("table_sum", 1);
        {
            IRBuilder b(*tsum);
            b.setInsertPoint(b.newBlock());
            const Reg x = 0;
            const Reg base = b.movGA(table);
            const Reg v0 = b.load(b.add(base, b.shlI(b.andI(x, 15), 3)),
                                  0);
            const Reg v1 = b.load(base, 0);
            const Reg s = b.add(v0, v1);
            b.ret(s);
        }

        poke = &m.addFunction("poke", 1);
        {
            IRBuilder b(*poke);
            b.setInsertPoint(b.newBlock());
            const Reg x = 0;
            const Reg base = b.movGA(table);
            b.store(b.add(base, b.shlI(b.andI(x, 15), 3)), 0, x);
            b.ret();
        }

        mainf = &m.addFunction("main", 0);
        m.setEntryFunction(mainf->id());
        IRBuilder b(*mainf);
        const BlockId entry = b.newBlock();
        const BlockId header = b.newBlock();
        const BlockId body = b.newBlock();
        const BlockId c1 = b.newBlock();
        const BlockId c2 = b.newBlock();
        const BlockId do_poke = b.newBlock();
        const BlockId latch = b.newBlock();
        const BlockId exit = b.newBlock();
        const Reg i = b.reg();
        const Reg acc = b.reg();

        b.setInsertPoint(entry);
        const Reg n = b.load(b.movGA(nreq), 0);
        const Reg sbase = b.movGA(stream);
        b.movITo(i, 0);
        b.movITo(acc, 0);
        b.jump(header);

        b.setInsertPoint(header);
        const Reg more = b.cmpLt(i, n);
        b.br(more, body, exit);

        b.setInsertPoint(body);
        const Reg x = b.load(b.add(sbase, b.shlI(i, 3)), 0);
        const Reg sq = b.call(square->id(), {x}, c1);

        b.setInsertPoint(c1);
        const Reg ts = b.call(tsum->id(), {x}, c2);

        b.setInsertPoint(c2);
        b.binOpTo(acc, Opcode::Add, acc, b.add(sq, ts));
        const Reg pokep = b.cmpEqI(b.andI(i, 127), 127);
        b.br(pokep, do_poke, latch);

        b.setInsertPoint(do_poke);
        b.callVoid(poke->id(), {i}, latch);

        b.setInsertPoint(latch);
        b.binOpITo(i, Opcode::Add, i, 1);
        b.jump(header);

        b.setInsertPoint(exit);
        b.store(b.movGA(out), 0, acc);
        b.halt();
    }

    void
    prepare(emu::Machine &machine, int n) const
    {
        for (int k = 0; k < n; ++k) {
            machine.memory().write(
                machine.globalAddr(stream) + 8 * k, MemSize::Dword,
                (k * 7) % 5); // 5 recurring values
        }
        machine.memory().write(machine.globalAddr(nreq),
                               MemSize::Dword, n);
    }
};

TEST(FnLevel, PuritySummary)
{
    FnFixture fx;
    analysis::AliasAnalysis alias(fx.m);
    EXPECT_TRUE(alias.funcPure(fx.square->id()));
    EXPECT_TRUE(alias.funcPure(fx.tsum->id()));
    EXPECT_FALSE(alias.funcPure(fx.poke->id()));  // stores
    EXPECT_FALSE(alias.funcPure(fx.mainf->id())); // calls poke + halt
    EXPECT_TRUE(alias.funcReads(fx.square->id()).empty());
    EXPECT_TRUE(alias.funcReads(fx.tsum->id())
                    .globals.count(fx.table));
}

TEST(FnLevel, FormsRegionsForPureCallSites)
{
    FnFixture fx;
    profile::ProfileData prof;
    {
        emu::Machine machine(fx.m);
        fx.prepare(machine, 400);
        profile::ValueProfiler vp(machine);
        machine.addObserver(&vp);
        machine.run();
        prof = vp.takeProfile();
    }
    analysis::AliasAnalysis alias(fx.m);
    core::ReusePolicy policy;
    policy.enableFunctionLevel = true;
    core::RegionFormer former(fx.m, prof, alias, policy);
    const auto table = former.formAll();

    EXPECT_EQ(former.stats().functionLevelFormed, 2);
    int fn_regions = 0, md_fn = 0;
    for (const auto &r : table.regions()) {
        if (!r.functionLevel)
            continue;
        ++fn_regions;
        EXPECT_EQ(r.liveIns.size(), 1u);
        EXPECT_EQ(r.liveOuts.size(), 1u);
        md_fn += !r.memStructs.empty();
    }
    EXPECT_EQ(fn_regions, 2); // square_plus and table_sum sites
    EXPECT_EQ(md_fn, 1);      // table_sum reads the mutable table
    // poke stores into the table: invalidations must cover the
    // table_sum region.
    EXPECT_GE(former.stats().invalidationsPlaced, 1);
    EXPECT_TRUE(verifyModule(fx.m).empty());
}

TEST(FnLevel, SemanticsPreservedWithAndWithoutCrb)
{
    FnFixture base;
    emu::Machine bm(base.m);
    base.prepare(bm, 500);
    bm.run();
    const auto expect = bm.memory().read(bm.globalAddr(base.out),
                                         MemSize::Dword, false);

    FnFixture fx;
    profile::ProfileData prof;
    {
        emu::Machine machine(fx.m);
        fx.prepare(machine, 500);
        profile::ValueProfiler vp(machine);
        machine.addObserver(&vp);
        machine.run();
        prof = vp.takeProfile();
    }
    analysis::AliasAnalysis alias(fx.m);
    core::ReusePolicy policy;
    policy.enableFunctionLevel = true;
    core::RegionFormer former(fx.m, prof, alias, policy);
    former.formAll();

    // Without a CRB (always miss):
    emu::Machine m1(fx.m);
    fx.prepare(m1, 500);
    m1.run();
    EXPECT_EQ(m1.memory().read(m1.globalAddr(fx.out), MemSize::Dword,
                               false),
              expect);

    // With a CRB:
    emu::Machine m2(fx.m);
    fx.prepare(m2, 500);
    const auto crb = uarch::makeCrbScheme();
    m2.setReuseHandler(crb.get());
    m2.run();
    EXPECT_EQ(m2.memory().read(m2.globalAddr(fx.out), MemSize::Dword,
                               false),
              expect);
    EXPECT_GT(crb->metrics().get("crb.hits"), 100u);
    // The mutator invalidates the table_sum region's instances.
    EXPECT_GT(crb->metrics().get("crb.invalidates"), 0u);
    // Hits skip entire calls: far fewer dynamic instructions.
    EXPECT_LT(m2.instCount(), m1.instCount());
}

TEST(FnLevel, DtmRevalidatesCalleeLoadsAcrossMutation)
{
    // The same program under the dynamic trace-memoization scheme.
    // DTM treats invalidate instructions as no-ops: a hit on the
    // table_sum region is legal only because the query re-reads every
    // recorded callee load address and compares values, so poke()'s
    // table mutations must be caught by query-time validation instead.
    FnFixture base;
    emu::Machine bm(base.m);
    base.prepare(bm, 500);
    bm.run();
    const auto expect = bm.memory().read(bm.globalAddr(base.out),
                                         MemSize::Dword, false);

    FnFixture fx;
    profile::ProfileData prof;
    {
        emu::Machine machine(fx.m);
        fx.prepare(machine, 500);
        profile::ValueProfiler vp(machine);
        machine.addObserver(&vp);
        machine.run();
        prof = vp.takeProfile();
    }
    analysis::AliasAnalysis alias(fx.m);
    core::ReusePolicy policy;
    policy.enableFunctionLevel = true;
    core::RegionFormer former(fx.m, prof, alias, policy);
    former.formAll();

    // The stream recurs over 5 argument values; the default 4-way
    // per-region trace cache would LRU-thrash on the cyclic pattern.
    reuse::DtmParams params;
    params.tracesPerRegion = 8;
    reuse::DynamicTraceMemo dtm(params);
    emu::Machine m2(fx.m);
    fx.prepare(m2, 500);
    m2.setReuseHandler(&dtm);
    m2.run();
    EXPECT_EQ(m2.memory().read(m2.globalAddr(fx.out), MemSize::Dword,
                               false),
              expect);
    // Function-level traces replay: the pure square_plus site and the
    // table-reading table_sum site both hit on recurring arguments.
    EXPECT_GT(dtm.metrics().get("dtm.hits"), 100u);
    // The invalidate instructions the former placed for poke() still
    // execute; DTM counts and ignores them.
    EXPECT_GT(dtm.metrics().get("dtm.invalidates"), 0u);
    EXPECT_EQ(dtm.metrics().get("dtm.hits")
                  + dtm.metrics().get("dtm.misses"),
              dtm.metrics().get("dtm.queries"));
}

TEST(FnLevel, WholeSuiteCorrectAndNotSlower)
{
    for (const auto &name : {"espresso", "li", "vortex", "m88ksim"}) {
        workloads::RunConfig cfg;
        cfg.policy.enableFunctionLevel = true;
        const auto r = workloads::runCcrExperiment(name, cfg);
        EXPECT_TRUE(r.outputsMatch) << name;
        EXPECT_GT(r.speedup(), 0.95) << name;
    }
}

} // namespace
