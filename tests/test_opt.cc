/**
 * @file
 * Unit tests for the classic optimizer: constant folding, CSE, DCE,
 * branch simplification, inlining, unrolling — and the key property
 * that every pass preserves program semantics on the full workload
 * suite.
 */

#include <gtest/gtest.h>

#include "emu/machine.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "opt/passes.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ccr;
using namespace ccr::ir;

/** Run a module and return the value stored in global "out". */
std::int64_t
runOut(Module &m)
{
    emu::Machine machine(m);
    machine.run(10'000'000);
    EXPECT_TRUE(machine.halted());
    const auto *g = m.findGlobal("out");
    EXPECT_NE(g, nullptr);
    return machine.memory().read(machine.globalAddr(g->id),
                                 MemSize::Dword, false);
}

TEST(ConstFold, FoldsChains)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    const Reg two = b.movI(2);
    const Reg three = b.movI(3);
    const Reg five = b.add(two, three);
    const Reg ten = b.mulI(five, 2);
    b.store(b.movGA(out), 0, ten);
    b.halt();

    const int changed = opt::foldConstants(f);
    EXPECT_GT(changed, 0);
    // The adds/muls must now be MovI.
    int movis = 0;
    for (const auto &inst : f.block(0).insts())
        movis += inst.op == Opcode::MovI;
    EXPECT_GE(movis, 4);
    EXPECT_EQ(runOut(m), 10);
}

TEST(ConstFold, StopsAtRedefinition)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    const GlobalId in = m.addGlobal("in", 8).id;
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    const Reg x = b.reg();
    b.movITo(x, 7);
    b.loadTo(x, b.movGA(in), 0); // x no longer 7
    const Reg y = b.addI(x, 1);
    b.store(b.movGA(out), 0, y);
    b.halt();
    opt::foldConstants(f);
    // The add must NOT have been folded to 8.
    bool folded_to_8 = false;
    for (const auto &inst : f.block(0).insts())
        folded_to_8 |= inst.op == Opcode::MovI && inst.imm == 8;
    EXPECT_FALSE(folded_to_8);
}

TEST(Cse, RemovesDuplicateExpressions)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    const Reg a = b.movI(6);
    const Reg c = b.movI(7);
    const Reg p1 = b.mul(a, c);
    const Reg p2 = b.mul(a, c); // identical
    const Reg s = b.add(p1, p2);
    b.store(b.movGA(out), 0, s);
    b.halt();

    EXPECT_EQ(opt::eliminateCommonSubexpressions(f), 1);
    EXPECT_EQ(runOut(m), 84);
    int muls = 0;
    for (const auto &inst : f.block(0).insts())
        muls += inst.op == Opcode::Mul;
    EXPECT_EQ(muls, 1);
}

TEST(Cse, StoreKillsLoads)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    const GlobalId g = m.addGlobal("g", 8).id;
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    const Reg base = b.movGA(g);
    const Reg v1 = b.load(base, 0);
    const Reg one = b.movI(1);
    b.store(base, 0, one);
    const Reg v2 = b.load(base, 0); // must reload after the store
    const Reg s = b.add(v1, v2);
    b.store(b.movGA(out), 0, s);
    b.halt();

    opt::eliminateCommonSubexpressions(f);
    EXPECT_EQ(runOut(m), 1); // 0 (initial) + 1 (stored)
}

TEST(Cse, RedefinedOperandBlocksReuse)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    const Reg a = b.reg();
    b.movITo(a, 5);
    const Reg p1 = b.addI(a, 1);
    b.movITo(a, 9);
    const Reg p2 = b.addI(a, 1); // same shape, different a
    const Reg s = b.add(p1, p2);
    b.store(b.movGA(out), 0, s);
    b.halt();
    opt::eliminateCommonSubexpressions(f);
    EXPECT_EQ(runOut(m), 16);
}

TEST(Dce, RemovesUnusedPureCode)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    const Reg used = b.movI(42);
    const Reg dead1 = b.movI(1);
    const Reg dead2 = b.addI(dead1, 2); // chain of dead code
    (void)dead2;
    b.store(b.movGA(out), 0, used);
    b.halt();

    const std::size_t before = f.numInsts();
    EXPECT_EQ(opt::eliminateDeadCode(f), 2);
    EXPECT_EQ(f.numInsts(), before - 2);
    EXPECT_EQ(runOut(m), 42);
}

TEST(Dce, KeepsStoresAndCalls)
{
    Module m("t");
    m.addGlobal("out", 8);
    const GlobalId g = m.addGlobal("g", 8).id;
    Function &callee = m.addFunction("sideeffect", 0);
    {
        IRBuilder b(callee);
        b.setInsertPoint(b.newBlock());
        const Reg one = b.movI(1);
        b.store(b.movGA(g), 0, one);
        b.ret();
    }
    Function &f = m.addFunction("main", 0);
    m.setEntryFunction(f.id());
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId b1 = b.newBlock();
    b.setInsertPoint(b0);
    b.callVoid(callee.id(), {}, b1);
    b.setInsertPoint(b1);
    b.halt();
    EXPECT_EQ(opt::eliminateDeadCode(f), 0);
    EXPECT_EQ(opt::eliminateDeadCode(callee), 0);
}

TEST(Simplify, EqualTargetBranchBecomesJump)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId b1 = b.newBlock();
    b.setInsertPoint(b0);
    const Reg c = b.movI(1);
    b.br(c, b1, b1);
    b.setInsertPoint(b1);
    b.halt();
    EXPECT_GT(opt::simplifyBranches(f), 0);
    // The branch becomes a jump, then block merging folds b1 into b0,
    // so b0 now ends in b1's halt.
    EXPECT_EQ(f.block(b0).terminator().op, Opcode::Halt);
    EXPECT_TRUE(verifyModule(m).empty());
}

TEST(Simplify, ConstantConditionResolved)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId yes = b.newBlock();
    const BlockId no = b.newBlock();
    b.setInsertPoint(b0);
    const Reg c = b.movI(0);
    b.br(c, yes, no);
    b.setInsertPoint(yes);
    b.store(b.movGA(out), 0, b.movI(111));
    b.halt();
    b.setInsertPoint(no);
    b.store(b.movGA(out), 0, b.movI(222));
    b.halt();
    EXPECT_GT(opt::simplifyBranches(f), 0);
    // Constant condition picks the not-taken side; merging then folds
    // the `no` block into b0 entirely.
    EXPECT_EQ(f.block(b0).terminator().op, Opcode::Halt);
    EXPECT_EQ(runOut(m), 222);
}

TEST(Simplify, ThreadsForwardingBlocks)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId fwd = b.newBlock();
    const BlockId dst = b.newBlock();
    b.setInsertPoint(b0);
    b.jump(fwd);
    b.setInsertPoint(fwd);
    b.jump(dst);
    b.setInsertPoint(dst);
    b.halt();
    EXPECT_GT(opt::simplifyBranches(f), 0);
    EXPECT_EQ(f.block(b0).terminator().target, dst);
}

TEST(Simplify, KeepsCcrTrampolines)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId tramp = b.newBlock();
    const BlockId dst = b.newBlock();
    b.setInsertPoint(b0);
    b.jump(tramp);
    b.setInsertPoint(tramp);
    {
        Inst j;
        j.op = Opcode::Jump;
        j.target = dst;
        j.ext.regionEnd = true; // CCR marker: must not be threaded
        b.emit(j);
    }
    b.setInsertPoint(dst);
    b.halt();
    opt::simplifyBranches(f);
    EXPECT_EQ(f.block(b0).terminator().target, tramp);
}

TEST(Inline, LeafFunctionInlined)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    Function &callee = m.addFunction("twice_plus", 2);
    {
        IRBuilder b(callee);
        b.setInsertPoint(b.newBlock());
        const Reg t = b.shlI(0, 1);
        const Reg r = b.add(t, 1);
        b.ret(r);
    }
    Function &f = m.addFunction("main", 0);
    m.setEntryFunction(f.id());
    {
        IRBuilder b(f);
        const BlockId b0 = b.newBlock();
        const BlockId b1 = b.newBlock();
        b.setInsertPoint(b0);
        const Reg x = b.movI(20);
        const Reg y = b.movI(2);
        const Reg r = b.call(callee.id(), {x, y}, b1);
        b.setInsertPoint(b1);
        b.store(b.movGA(out), 0, r);
        b.halt();
    }
    EXPECT_EQ(opt::inlineFunctions(m), 1);
    EXPECT_TRUE(verifyModule(m).empty());
    // main no longer calls.
    for (const auto &bb : f.blocks()) {
        for (const auto &inst : bb.insts())
            EXPECT_NE(inst.op, Opcode::Call);
    }
    EXPECT_EQ(runOut(m), 42);
}

TEST(Inline, LargeFunctionsStay)
{
    Module m("t");
    m.addGlobal("out", 8);
    Function &callee = m.addFunction("big", 1);
    {
        IRBuilder b(callee);
        b.setInsertPoint(b.newBlock());
        Reg x = 0;
        for (int i = 0; i < 40; ++i)
            x = b.addI(x, 1);
        b.ret(x);
    }
    Function &f = m.addFunction("main", 0);
    m.setEntryFunction(f.id());
    {
        IRBuilder b(f);
        const BlockId b0 = b.newBlock();
        const BlockId b1 = b.newBlock();
        b.setInsertPoint(b0);
        const Reg x = b.movI(1);
        b.call(callee.id(), {x}, b1);
        b.setInsertPoint(b1);
        b.halt();
    }
    EXPECT_EQ(opt::inlineFunctions(m, 24), 0);
}

TEST(Unroll, DoublesLoopBody)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    const BlockId entry = b.newBlock();
    const BlockId header = b.newBlock();
    const BlockId body = b.newBlock();
    const BlockId exit = b.newBlock();
    const Reg i = b.reg();
    const Reg sum = b.reg();
    b.setInsertPoint(entry);
    b.movITo(i, 0);
    b.movITo(sum, 0);
    b.jump(header);
    b.setInsertPoint(header);
    const Reg c = b.cmpLtI(i, 37); // odd trip count exercises the test
    b.br(c, body, exit);
    b.setInsertPoint(body);
    b.binOpTo(sum, Opcode::Add, sum, i);
    b.binOpITo(i, Opcode::Add, i, 1);
    b.jump(header);
    b.setInsertPoint(exit);
    b.store(b.movGA(out), 0, sum);
    b.halt();

    const std::size_t blocks_before = f.numBlocks();
    EXPECT_EQ(opt::unrollLoops(f), 1);
    EXPECT_GT(f.numBlocks(), blocks_before);
    EXPECT_TRUE(verifyModule(m).empty());
    EXPECT_EQ(runOut(m), 36 * 37 / 2);
}

TEST(Pipeline, WholeSuiteSemanticsPreserved)
{
    // The heavyweight property: optimizing every workload must not
    // change its output.
    for (const auto &name : workloads::workloadNames()) {
        auto plain = workloads::buildWorkload(name);
        emu::Machine pm(*plain.module);
        plain.prepare(pm, workloads::InputSet::Train);
        pm.run();
        const auto expect = workloads::readOutputs(pm, plain);

        auto optimized = workloads::buildWorkload(name);
        const auto stats = opt::runStandardPipeline(*optimized.module);
        EXPECT_TRUE(verifyModule(*optimized.module).empty()) << name;
        emu::Machine om(*optimized.module);
        optimized.prepare(om, workloads::InputSet::Train);
        om.run();
        EXPECT_EQ(workloads::readOutputs(om, optimized), expect)
            << name;
        EXPECT_GE(stats.total(), 0);
    }
}

TEST(Pipeline, OptimizerReducesDynamicInstructions)
{
    // Inlining alone should cut call/ret overhead measurably.
    auto plain = workloads::buildWorkload("espresso");
    emu::Machine pm(*plain.module);
    plain.prepare(pm, workloads::InputSet::Train);
    pm.run();

    auto optimized = workloads::buildWorkload("espresso");
    const auto stats = opt::runStandardPipeline(*optimized.module);
    EXPECT_GT(stats.callsInlined, 0);
    emu::Machine om(*optimized.module);
    optimized.prepare(om, workloads::InputSet::Train);
    om.run();
    EXPECT_LT(om.instCount(), pm.instCount());
}

TEST(Pipeline, IdempotentSecondRun)
{
    auto w = workloads::buildWorkload("li");
    opt::runStandardPipeline(*w.module);
    const auto second = opt::runStandardPipeline(
        *w.module, /*enable_unroll=*/false);
    // A second run without unrolling finds (almost) nothing new.
    EXPECT_EQ(second.callsInlined, 0);
    EXPECT_EQ(second.deadRemoved + second.cseRemoved
                  + second.constantsFolded,
              0);
}

} // namespace
