/**
 * @file
 * Tests for the remaining extension points: the value-speculation
 * timing mode, the heap-scan/dispatch workload generators, and the
 * compiler's region-identifier reassignment.
 */

#include <gtest/gtest.h>

#include "analysis/alias.hh"
#include "core/former.hh"
#include "emu/machine.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "profile/value_profiler.hh"
#include "workloads/dispatch.hh"
#include "workloads/harness.hh"
#include "workloads/heapscan.hh"

namespace
{

using namespace ccr;
using namespace ccr::ir;

TEST(ValueSpec, CorrectAndAtLeastAsFast)
{
    for (const auto &name : {"espresso", "m88ksim", "lex"}) {
        workloads::RunConfig base;
        workloads::RunConfig spec;
        spec.pipe.speculativeValidation = true;
        const auto rb = workloads::runCcrExperiment(name, base);
        const auto rs = workloads::runCcrExperiment(name, spec);
        EXPECT_TRUE(rs.outputsMatch) << name;
        // Speculation is a timing-only feature: identical functional
        // behaviour...
        EXPECT_EQ(rs.report.metric("crb.hits"),
                  rb.report.metric("crb.hits"))
            << name;
        EXPECT_EQ(rs.ccr.insts, rb.ccr.insts) << name;
        // ... and it never loses cycles on these reuse-heavy programs.
        EXPECT_LE(rs.ccr.cycles, rb.ccr.cycles + 16) << name;
    }
}

TEST(HeapScan, KernelsAreAnonymousToTheCompiler)
{
    Module m("t");
    m.addGlobal("out", 8);
    workloads::addHeapScan(m, "tab", 64, 8, 0x1234);
    EXPECT_NE(m.findFunction("tab_init"), nullptr);
    EXPECT_NE(m.findFunction("tab_scan"), nullptr);
    EXPECT_NE(m.findGlobal("tab_ptr"), nullptr);

    // Give the module an entry so the verifier is happy.
    Function &f = m.addFunction("main", 0);
    m.setEntryFunction(f.id());
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId b1 = b.newBlock();
    const BlockId b2 = b.newBlock();
    b.setInsertPoint(b0);
    b.callVoid(m.findFunction("tab_init")->id(), {}, b1);
    b.setInsertPoint(b1);
    const Reg x = b.movI(3);
    b.call(m.findFunction("tab_scan")->id(), {x}, b2);
    b.setInsertPoint(b2);
    b.halt();
    EXPECT_TRUE(verifyModule(m).empty());

    analysis::AliasAnalysis alias(m);
    // scan loads through a loaded pointer: not pure, not determinable.
    const auto scan_id = m.findFunction("tab_scan")->id();
    EXPECT_FALSE(alias.funcPure(scan_id));
    int nondeterminable_loads = 0;
    for (const auto &bb : m.function(scan_id).blocks()) {
        for (const auto &inst : bb.insts()) {
            if (inst.isLoad()
                && !alias.loadDeterminable(scan_id, inst)) {
                ++nondeterminable_loads;
            }
        }
    }
    EXPECT_GE(nondeterminable_loads, 1);

    // Functional check: scans return stable values for equal inputs.
    emu::Machine machine(m);
    machine.run(100000);
    EXPECT_TRUE(machine.halted());
}

TEST(Dispatch, LeavesAreDistinctAndDeterministic)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 24).id;
    workloads::addDispatchKernel(m, "dsp", 4, 0, 0x77);
    Function &f = m.addFunction("main", 0);
    m.setEntryFunction(f.id());
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId b1 = b.newBlock();
    const BlockId b2 = b.newBlock();
    const BlockId b3 = b.newBlock();
    b.setInsertPoint(b0);
    const Reg sel_a = b.movI(3);
    const Reg sel_b = b.movI(9);
    const Reg x = b.movI(1000);
    const FuncId dsp = m.findFunction("dsp")->id();
    const Reg r1 = b.call(dsp, {sel_a, x}, b1);
    b.setInsertPoint(b1);
    const Reg r2 = b.call(dsp, {sel_b, x}, b2);
    b.setInsertPoint(b2);
    const Reg r3 = b.call(dsp, {sel_a, x}, b3);
    b.setInsertPoint(b3);
    const Reg obase = b.movGA(out);
    b.store(obase, 0, r1);
    b.store(obase, 8, r2);
    b.store(obase, 16, r3);
    b.halt();
    EXPECT_TRUE(verifyModule(m).empty());

    emu::Machine machine(m);
    machine.run(100000);
    const auto v1 = machine.memory().read(machine.globalAddr(out),
                                          MemSize::Dword, false);
    const auto v2 = machine.memory().read(machine.globalAddr(out) + 8,
                                          MemSize::Dword, false);
    const auto v3 = machine.memory().read(machine.globalAddr(out) + 16,
                                          MemSize::Dword, false);
    EXPECT_NE(v1, v2); // different selectors, different leaf folds
    EXPECT_EQ(v1, v3); // same (selector, x) => same result
}

TEST(Renumber, IdsAreDenseAndWeightOrdered)
{
    auto w = workloads::buildWorkload("gcc");
    const auto prof =
        workloads::profileWorkload(w, workloads::InputSet::Train);
    analysis::AliasAnalysis alias(*w.module);
    core::RegionFormer former(*w.module, prof, alias, {});
    const auto table = former.formAll();
    ASSERT_GE(table.size(), 10u);

    std::vector<bool> seen(table.size(), false);
    std::vector<std::uint64_t> weight_by_id(table.size(), 0);
    for (const auto &r : table.regions()) {
        ASSERT_LT(r.id, table.size());
        EXPECT_FALSE(seen[r.id]);
        seen[r.id] = true;
        weight_by_id[r.id] = r.profileWeight;
    }
    for (std::size_t i = 1; i < weight_by_id.size(); ++i)
        EXPECT_GE(weight_by_id[i - 1], weight_by_id[i]);

    // Every reuse instruction in the module names a table region.
    for (std::size_t f = 0; f < w.module->numFunctions(); ++f) {
        const auto &func = w.module->function(static_cast<FuncId>(f));
        for (const auto &bb : func.blocks()) {
            for (const auto &inst : bb.insts()) {
                if (inst.op == Opcode::Reuse)
                    EXPECT_NE(table.find(inst.regionId), nullptr);
            }
        }
    }
}

TEST(OptimizedBaseline, HarnessFlagWorks)
{
    workloads::RunConfig cfg;
    cfg.optimizeBase = true;
    const auto r = workloads::runCcrExperiment("li", cfg);
    EXPECT_TRUE(r.outputsMatch);
    EXPECT_GT(r.speedup(), 0.95);
}

} // namespace
