/**
 * @file
 * Unit tests for the core CCR compiler: eligibility heuristics, the
 * reorder pass, region formation (cyclic and acyclic), the code
 * transformation invariants, invalidation placement, and computation
 * group classification.
 */

#include <gtest/gtest.h>

#include "analysis/alias.hh"
#include "core/former.hh"
#include "core/reorder.hh"
#include "core/transform.hh"
#include "emu/machine.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "profile/value_profiler.hh"
#include "workloads/harness.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ccr;
using namespace ccr::ir;

TEST(Region, GroupClassification)
{
    core::ReuseRegion r;
    r.id = 0;
    r.liveIns = {1, 2};
    EXPECT_EQ(r.group(), "SL_4");
    r.liveIns = {1, 2, 3, 4, 5};
    EXPECT_EQ(r.group(), "SL_6");
    r.liveIns = {1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(r.group(), "SL_8");
    r.memStructs = {0};
    r.liveIns = {1, 2, 3};
    EXPECT_EQ(r.group(), "MD_3_1");
    r.liveIns = {1, 2, 3, 4, 5};
    EXPECT_EQ(r.group(), "MD_6_1");
    r.memStructs = {0, 1};
    r.liveIns = {1, 2};
    EXPECT_EQ(r.group(), "MD_2_2");
    r.memStructs = {0, 1, 2};
    EXPECT_EQ(r.group(), "MD_2_3");
    r.memStructs = {0, 1, 2, 3};
    EXPECT_EQ(r.group(), "OTHER");
}

TEST(RegionTable, AddAndFind)
{
    core::RegionTable t;
    core::ReuseRegion r;
    r.id = 5;
    t.add(r);
    EXPECT_NE(t.find(5), nullptr);
    EXPECT_EQ(t.find(6), nullptr);
    EXPECT_EQ(t.size(), 1u);
}

TEST(Transform, SplitBlockMovesSuffix)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    b.movI(1);
    b.movI(2);
    b.movI(3);
    b.halt();
    const BlockId fresh = core::splitBlock(f, 0, 2);
    EXPECT_EQ(f.block(0).size(), 2u);
    EXPECT_EQ(f.block(fresh).size(), 2u);
    EXPECT_EQ(f.block(fresh).inst(0).imm, 3);
    EXPECT_FALSE(f.block(0).isTerminated());
    EXPECT_TRUE(f.block(fresh).isTerminated());
}

TEST(Transform, RedirectTargetRewritesAllRefs)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId b1 = b.newBlock();
    const BlockId b2 = b.newBlock();
    b.setInsertPoint(b0);
    const Reg c = b.movI(1);
    b.br(c, b1, b1);
    b.setInsertPoint(b1);
    b.halt();
    b.setInsertPoint(b2);
    b.jump(b1);
    core::redirectTarget(f, b1, b2);
    EXPECT_EQ(f.block(b0).terminator().target, b2);
    EXPECT_EQ(f.block(b0).terminator().target2, b2);
    // b2's own jump must NOT become a self-loop (to==b2 is skipped).
    EXPECT_EQ(f.block(b2).terminator().target, b1);
}

TEST(Transform, TrampolineMarks)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    b.halt();
    const BlockId t1 = core::makeTrampoline(f, 0, true, false);
    const BlockId t2 = core::makeTrampoline(f, 0, false, true);
    EXPECT_TRUE(f.block(t1).terminator().ext.regionEnd);
    EXPECT_TRUE(f.block(t2).terminator().ext.regionExit);
    EXPECT_EQ(f.block(t1).terminator().target, 0u);
}

TEST(Reorder, ClustersEligibleWhenLegal)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    const Reg a = b.movI(1);     // eligible
    const Reg x = b.allocI(8);   // not eligible (alloc)
    const Reg c = b.addI(a, 2);  // eligible, depends on a
    (void)x;
    (void)c;
    b.halt();
    const bool changed = core::clusterReorder(
        f, 0, [](const Inst &inst) {
            return inst.op != Opcode::Alloc && !inst.isControlInst();
        });
    EXPECT_TRUE(changed);
    // The alloc (non-eligible, independent of the eligible cluster) is
    // hoisted ahead so the eligible instructions become contiguous.
    const auto &bb = f.block(0);
    EXPECT_EQ(bb.inst(0).op, Opcode::Alloc);
    EXPECT_EQ(bb.inst(1).op, Opcode::MovI);
    EXPECT_EQ(bb.inst(2).op, Opcode::Add);
    EXPECT_EQ(bb.inst(3).op, Opcode::Halt);
}

TEST(Reorder, RespectsDataDependences)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    const Reg p = b.allocI(8);        // not eligible
    const Reg v = b.load(p, 0);       // eligible but depends on alloc
    const Reg w = b.addI(v, 1);       // eligible
    (void)w;
    b.halt();
    core::clusterReorder(f, 0, [](const Inst &inst) {
        return inst.op != Opcode::Alloc && !inst.isControlInst();
    });
    // Legality: alloc must still precede the load.
    const auto &bb = f.block(0);
    std::size_t alloc_pos = 99, load_pos = 99;
    for (std::size_t i = 0; i < bb.size(); ++i) {
        if (bb.inst(i).op == Opcode::Alloc)
            alloc_pos = i;
        if (bb.inst(i).op == Opcode::Load)
            load_pos = i;
    }
    EXPECT_LT(alloc_pos, load_pos);
}

TEST(Reorder, KeepsStoreLoadOrder)
{
    Module m("t");
    const GlobalId g = m.addGlobal("g", 8).id;
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    const Reg base = b.movGA(g);
    const Reg one = b.movI(1);
    b.store(base, 0, one);
    const Reg v = b.load(base, 0); // must stay after the store
    (void)v;
    b.halt();
    core::clusterReorder(f, 0, [](const Inst &inst) {
        return !inst.isStore() && !inst.isControlInst();
    });
    const auto &bb = f.block(0);
    std::size_t store_pos = 99, load_pos = 0;
    for (std::size_t i = 0; i < bb.size(); ++i) {
        if (bb.inst(i).isStore())
            store_pos = i;
        if (bb.inst(i).isLoad())
            load_pos = i;
    }
    EXPECT_LT(store_pos, load_pos);
}

/**
 * End-to-end formation fixture: straight-line reusable kernel called
 * in a loop (acyclic region), plus a deterministic inner loop over a
 * rarely-written table (cyclic region).
 */
struct FormationFixture
{
    workloads::Workload w;
    profile::ProfileData prof;
    std::unique_ptr<analysis::AliasAnalysis> alias;

    explicit FormationFixture(const std::string &name)
    {
        w = workloads::buildWorkload(name);
        prof = workloads::profileWorkload(w,
                                          workloads::InputSet::Train);
        alias = std::make_unique<analysis::AliasAnalysis>(*w.module);
    }
};

TEST(Former, FormsAcyclicRegionsOnEspresso)
{
    FormationFixture fx("espresso");
    core::RegionFormer former(*fx.w.module, fx.prof, *fx.alias, {});
    const auto table = former.formAll();
    EXPECT_GE(former.stats().acyclicFormed, 1);
    bool found_count_ones = false;
    bool found_sl = false;
    for (const auto &r : table.regions()) {
        EXPECT_FALSE(r.cyclic);
        EXPECT_LE(r.liveIns.size(), 8u);
        EXPECT_LE(r.liveOuts.size(), 8u);
        found_sl |= r.memStructs.empty();
        // count_ones: the paper's Figure 2 block, ~17 instructions.
        found_count_ones |=
            r.staticInsts >= 15 && r.memStructs.empty();
    }
    EXPECT_TRUE(found_sl);
    EXPECT_TRUE(found_count_ones);
    EXPECT_TRUE(verifyModule(*fx.w.module).empty());
}

TEST(Former, FormsCyclicRegionOnM88ksim)
{
    FormationFixture fx("m88ksim");
    core::RegionFormer former(*fx.w.module, fx.prof, *fx.alias, {});
    const auto table = former.formAll();
    EXPECT_GE(former.stats().cyclicFormed, 1);
    bool found_md_cyclic = false;
    for (const auto &r : table.regions()) {
        if (r.cyclic) {
            EXPECT_FALSE(r.memStructs.empty());
            found_md_cyclic = true;
        }
    }
    EXPECT_TRUE(found_md_cyclic);
    // The mutators store into brktable: invalidations must be placed.
    EXPECT_GE(former.stats().invalidationsPlaced, 1);
    EXPECT_TRUE(verifyModule(*fx.w.module).empty());
}

TEST(Former, TransformedModuleStillComputesSameOutputs)
{
    // Without any CRB handler, the transformed code must take every
    // miss path and produce identical results.
    for (const auto &name : {"espresso", "m88ksim", "li"}) {
        workloads::Workload base = workloads::buildWorkload(name);
        emu::Machine bm(*base.module);
        base.prepare(bm, workloads::InputSet::Train);
        bm.run();
        const auto expect = workloads::readOutputs(bm, base);

        FormationFixture fx(name);
        core::RegionFormer former(*fx.w.module, fx.prof, *fx.alias,
                                  {});
        former.formAll();
        emu::Machine tm(*fx.w.module);
        fx.w.prepare(tm, workloads::InputSet::Train);
        tm.run();
        EXPECT_EQ(workloads::readOutputs(tm, fx.w), expect)
            << "divergence in " << name;
    }
}

TEST(Former, RegionStructureInvariants)
{
    FormationFixture fx("gcc");
    core::RegionFormer former(*fx.w.module, fx.prof, *fx.alias, {});
    const auto table = former.formAll();
    ASSERT_GE(table.size(), 1u);
    for (const auto &r : table.regions()) {
        const auto &func = fx.w.module->function(r.func);
        // The inception block ends with the reuse instruction wired to
        // body and join.
        const auto &reuse = func.block(r.inception).terminator();
        EXPECT_EQ(reuse.op, Opcode::Reuse);
        EXPECT_EQ(reuse.regionId, r.id);
        EXPECT_EQ(reuse.target, r.join);
        EXPECT_EQ(reuse.target2, r.bodyEntry);
        EXPECT_LE(static_cast<int>(r.memStructs.size()), 4);
    }
}

TEST(Former, LiveOutMarksMatchRegionMetadata)
{
    FormationFixture fx("espresso");
    core::RegionFormer former(*fx.w.module, fx.prof, *fx.alias, {});
    const auto table = former.formAll();
    for (const auto &r : table.regions()) {
        const auto &func = fx.w.module->function(r.func);
        // Every liveOut-marked instruction defines a register in the
        // region's live-out set.
        for (const auto &bb : func.blocks()) {
            for (const auto &inst : bb.insts()) {
                if (!inst.ext.liveOut)
                    continue;
                // Marked instructions exist only inside some region;
                // check membership in at least one live-out set.
                bool in_some = false;
                for (const auto &r2 : table.regions()) {
                    for (const auto lo : r2.liveOuts)
                        in_some |= lo == inst.dst;
                }
                EXPECT_TRUE(in_some);
            }
        }
    }
}

TEST(Former, PolicyDisableCyclic)
{
    FormationFixture fx("m88ksim");
    core::ReusePolicy policy;
    policy.enableCyclic = false;
    core::RegionFormer former(*fx.w.module, fx.prof, *fx.alias,
                              policy);
    const auto table = former.formAll();
    for (const auto &r : table.regions())
        EXPECT_FALSE(r.cyclic);
}

TEST(Former, PolicyDisableMemoryDependent)
{
    FormationFixture fx("vortex");
    core::ReusePolicy policy;
    policy.enableMemoryDependent = false;
    core::RegionFormer former(*fx.w.module, fx.prof, *fx.alias,
                              policy);
    const auto table = former.formAll();
    for (const auto &r : table.regions())
        EXPECT_TRUE(r.memStructs.empty());
    EXPECT_EQ(former.stats().invalidationsPlaced, 0);
}

TEST(Former, StricterThresholdFormsFewerRegions)
{
    FormationFixture loose("gcc");
    core::RegionFormer f1(*loose.w.module, loose.prof, *loose.alias,
                          {});
    const auto t1 = f1.formAll();

    FormationFixture strict("gcc");
    core::ReusePolicy policy;
    policy.instReuseThreshold = 0.999;
    core::RegionFormer f2(*strict.w.module, strict.prof,
                          *strict.alias, policy);
    const auto t2 = f2.formAll();
    EXPECT_LE(t2.size(), t1.size());
}

TEST(Eligibility, NonDeterminableLoadRejectedBeforeProfile)
{
    // A load whose address cannot be resolved to named globals is
    // rejected as NotDeterminable even with no profile data at all:
    // determinability is a hard legality condition, not a heuristic.
    Module m("t");
    m.addGlobal("g", 8, false);
    Function &f = m.addFunction("main", 0);
    std::size_t heap_load_idx;
    {
        IRBuilder b(f);
        b.setInsertPoint(b.newBlock());
        const Reg hp = b.allocI(32);
        const Reg lv = b.load(hp, 0);
        (void)lv;
        heap_load_idx = 1;
        b.halt();
    }
    profile::ProfileData prof; // deliberately empty
    analysis::AliasAnalysis alias(m);
    core::Eligibility elig(m, prof, alias, {});
    EXPECT_EQ(elig.classify(f.id(), f.block(0).inst(heap_load_idx)),
              core::Ineligible::NotDeterminable);
}

TEST(Former, RegionsRespectMaxLiveInsBoundary)
{
    // The CRB input bank has a fixed number of register slots; the
    // former must never emit a block region claiming more live-ins
    // than policy.maxLiveIns (boundary checked in both the cyclic
    // and acyclic growth paths).
    for (const std::string name : {"gcc", "compress", "go"}) {
        FormationFixture fx(name);
        core::ReusePolicy policy;
        core::RegionFormer former(*fx.w.module, fx.prof, *fx.alias,
                                  policy);
        const auto table = former.formAll();
        for (const auto &r : table.regions()) {
            if (r.functionLevel)
                continue;
            EXPECT_LE(static_cast<int>(r.liveIns.size()),
                      policy.maxLiveIns)
                << name << " region " << r.id;
        }
    }
}

TEST(Former, TightMaxLiveInsShrinksRegionInputs)
{
    FormationFixture fx("gcc");
    core::ReusePolicy policy;
    policy.maxLiveIns = 1;
    core::RegionFormer former(*fx.w.module, fx.prof, *fx.alias,
                              policy);
    const auto table = former.formAll();
    for (const auto &r : table.regions()) {
        if (r.functionLevel)
            continue;
        EXPECT_LE(r.liveIns.size(), 1u) << "region " << r.id;
    }
}

TEST(Eligibility, RejectsStoresAndCalls)
{
    FormationFixture fx("espresso");
    core::ReusePolicy policy;
    core::Eligibility elig(*fx.w.module, fx.prof, *fx.alias, policy);
    for (std::size_t f = 0; f < fx.w.module->numFunctions(); ++f) {
        const auto &func =
            fx.w.module->function(static_cast<FuncId>(f));
        for (const auto &bb : func.blocks()) {
            for (const auto &inst : bb.insts()) {
                if (inst.isStore() || inst.op == Opcode::Call
                    || inst.op == Opcode::Ret
                    || inst.op == Opcode::Halt) {
                    EXPECT_EQ(elig.classify(static_cast<FuncId>(f),
                                            inst),
                              core::Ineligible::BadOpcode);
                }
            }
        }
    }
}

} // namespace
