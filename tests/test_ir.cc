/**
 * @file
 * Unit tests for the IR: opcode properties, instruction construction
 * via IRBuilder, module structure, printing, and the verifier.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "ir/builder.hh"
#include "ir/module.hh"
#include "ir/opcode.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"

namespace
{

using namespace ccr::ir;

TEST(Opcode, ControlClassification)
{
    EXPECT_TRUE(isControl(Opcode::Br));
    EXPECT_TRUE(isControl(Opcode::Jump));
    EXPECT_TRUE(isControl(Opcode::Call));
    EXPECT_TRUE(isControl(Opcode::Ret));
    EXPECT_TRUE(isControl(Opcode::Halt));
    EXPECT_TRUE(isControl(Opcode::Reuse));
    EXPECT_FALSE(isControl(Opcode::Invalidate));
    EXPECT_FALSE(isControl(Opcode::Add));
    EXPECT_FALSE(isControl(Opcode::Load));
}

TEST(Opcode, MemoryClassification)
{
    EXPECT_TRUE(isMemory(Opcode::Load));
    EXPECT_TRUE(isMemory(Opcode::Store));
    EXPECT_FALSE(isMemory(Opcode::Alloc));
    EXPECT_FALSE(isMemory(Opcode::Add));
}

TEST(Opcode, WritesDst)
{
    EXPECT_TRUE(writesDst(Opcode::Add));
    EXPECT_TRUE(writesDst(Opcode::Load));
    EXPECT_TRUE(writesDst(Opcode::MovGA));
    EXPECT_FALSE(writesDst(Opcode::Store));
    EXPECT_FALSE(writesDst(Opcode::Br));
    EXPECT_FALSE(writesDst(Opcode::Reuse));
    EXPECT_FALSE(writesDst(Opcode::Invalidate));
}

TEST(Opcode, FuClasses)
{
    EXPECT_EQ(fuClass(Opcode::Add), FuClass::IntAlu);
    EXPECT_EQ(fuClass(Opcode::Load), FuClass::Mem);
    EXPECT_EQ(fuClass(Opcode::Store), FuClass::Mem);
    EXPECT_EQ(fuClass(Opcode::FMul), FuClass::FpAlu);
    EXPECT_EQ(fuClass(Opcode::Br), FuClass::Branch);
    EXPECT_EQ(fuClass(Opcode::Reuse), FuClass::Branch);
    EXPECT_EQ(fuClass(Opcode::Nop), FuClass::None);
}

TEST(Opcode, Latencies)
{
    EXPECT_EQ(opLatency(Opcode::Add), 1);  // PA-7100 int ALU
    EXPECT_EQ(opLatency(Opcode::Load), 2); // PA-7100 load-use
    EXPECT_GT(opLatency(Opcode::Div), opLatency(Opcode::Mul));
    EXPECT_GT(opLatency(Opcode::Mul), opLatency(Opcode::Add));
}

TEST(Opcode, AllOpcodesHaveNames)
{
    for (int i = 0; i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        const auto name = opcodeName(static_cast<Opcode>(i));
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "<bad-op>");
    }
}

TEST(Inst, SourceEnumeration)
{
    Inst add;
    add.op = Opcode::Add;
    add.src1 = 1;
    add.src2 = 2;
    EXPECT_EQ(add.numRegSources(), 2);
    EXPECT_EQ(add.regSource(0), 1);
    EXPECT_EQ(add.regSource(1), 2);

    Inst addi;
    addi.op = Opcode::Add;
    addi.src1 = 1;
    addi.srcImm = true;
    addi.imm = 5;
    EXPECT_EQ(addi.numRegSources(), 1);

    Inst store;
    store.op = Opcode::Store;
    store.src1 = 3;
    store.src2 = 4;
    EXPECT_EQ(store.numRegSources(), 2);
    EXPECT_EQ(store.regSource(0), 3);
    EXPECT_EQ(store.regSource(1), 4);

    Inst ret;
    ret.op = Opcode::Ret;
    EXPECT_EQ(ret.numRegSources(), 0);
    ret.src1 = 7;
    EXPECT_EQ(ret.numRegSources(), 1);
}

TEST(Inst, ToStringForms)
{
    Inst i;
    i.op = Opcode::Add;
    i.dst = 3;
    i.src1 = 1;
    i.src2 = 2;
    EXPECT_EQ(i.toString(), "add r3, r1, r2");

    i.srcImm = true;
    i.imm = 42;
    EXPECT_EQ(i.toString(), "add r3, r1, 42");

    i.ext.liveOut = true;
    EXPECT_NE(i.toString().find("<live-out>"), std::string::npos);
}

TEST(Builder, SimpleFunction)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    const BlockId entry = b.newBlock();
    b.setInsertPoint(entry);
    const Reg x = b.movI(40);
    const Reg y = b.addI(x, 2);
    (void)y;
    b.halt();

    EXPECT_EQ(f.numBlocks(), 1u);
    EXPECT_EQ(f.block(entry).size(), 3u);
    EXPECT_TRUE(f.block(entry).isTerminated());
    EXPECT_TRUE(verifyModule(m).empty());
}

TEST(Builder, AssignsUniqueUids)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    b.movI(1);
    b.movI(2);
    b.halt();
    const auto &bb = f.block(0);
    EXPECT_NE(bb.inst(0).uid, bb.inst(1).uid);
    EXPECT_NE(bb.inst(1).uid, bb.inst(2).uid);
}

TEST(Builder, BlockSuccessors)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId b1 = b.newBlock();
    const BlockId b2 = b.newBlock();
    b.setInsertPoint(b0);
    const Reg c = b.movI(1);
    b.br(c, b1, b2);
    b.setInsertPoint(b1);
    b.jump(b2);
    b.setInsertPoint(b2);
    b.halt();

    const auto s0 = f.block(b0).successors();
    EXPECT_EQ(s0.size(), 2u);
    EXPECT_EQ(f.block(b1).successors(), std::vector<BlockId>{b2});
    EXPECT_TRUE(f.block(b2).successors().empty());
}

TEST(Builder, BrSameTargetsDeduplicated)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId b1 = b.newBlock();
    b.setInsertPoint(b0);
    const Reg c = b.movI(0);
    b.br(c, b1, b1);
    b.setInsertPoint(b1);
    b.halt();
    EXPECT_EQ(f.block(b0).successors().size(), 1u);
}

TEST(Module, FunctionAndGlobalLookup)
{
    Module m("t");
    m.addFunction("foo", 2);
    m.addGlobal("table", 64, true);
    EXPECT_NE(m.findFunction("foo"), nullptr);
    EXPECT_EQ(m.findFunction("bar"), nullptr);
    EXPECT_NE(m.findGlobal("table"), nullptr);
    EXPECT_TRUE(m.findGlobal("table")->isConst);
    EXPECT_EQ(m.findGlobal("nope"), nullptr);
}

TEST(Module, RegionIds)
{
    Module m("t");
    EXPECT_EQ(m.newRegionId(), 0u);
    EXPECT_EQ(m.newRegionId(), 1u);
    EXPECT_EQ(m.regionIdBound(), 2u);
}

TEST(Module, FindInstByUid)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    b.movI(1);
    const InstUid target_uid = f.block(0).inst(0).uid;
    b.halt();
    BlockId bb;
    std::size_t idx;
    EXPECT_TRUE(f.findInst(target_uid, bb, idx));
    EXPECT_EQ(bb, 0u);
    EXPECT_EQ(idx, 0u);
    EXPECT_FALSE(f.findInst(9999, bb, idx));
}

TEST(Verifier, CleanModulePasses)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    b.halt();
    EXPECT_TRUE(verifyModule(m).empty());
}

TEST(Verifier, CatchesUnterminatedBlock)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    b.movI(1);
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, CatchesBadBranchTarget)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    f.newBlock();
    Inst j;
    j.op = Opcode::Jump;
    j.target = 99;
    j.uid = f.newUid();
    f.block(0).insts().push_back(j);
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, CatchesBadRegister)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    f.newBlock();
    Inst a;
    a.op = Opcode::Add;
    a.dst = 100; // never allocated
    a.src1 = 0;
    a.srcImm = true;
    a.uid = f.newUid();
    f.block(0).insts().push_back(a);
    Inst h;
    h.op = Opcode::Halt;
    h.uid = f.newUid();
    f.block(0).insts().push_back(h);
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, CatchesCallArityMismatch)
{
    Module m("t");
    m.addFunction("callee", 2);
    Function &f = m.addFunction("main", 0);
    m.setEntryFunction(f.id());
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId b1 = b.newBlock();
    b.setInsertPoint(b0);
    const Reg x = b.movI(1);
    b.call(0, {x}, b1); // callee wants 2 args
    b.setInsertPoint(b1);
    b.halt();
    // callee itself has no blocks, also an error; look for arity msg.
    bool found = false;
    for (const auto &d : verifyModule(m))
        found |= d.message.find("argument count") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Verifier, CatchesMidBlockControl)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    f.newBlock();
    Inst h;
    h.op = Opcode::Halt;
    h.uid = f.newUid();
    f.block(0).insts().push_back(h);
    Inst n;
    n.op = Opcode::Nop;
    n.uid = f.newUid();
    f.block(0).insts().push_back(n);
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, CatchesBadExtensions)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    Inst &mi = b.emit([] {
        Inst i;
        i.op = Opcode::Nop;
        i.ext.regionEnd = true; // illegal on non-control
        return i;
    }());
    (void)mi;
    b.halt();
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, CatchesLiveOutWithoutDst)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    Inst i;
    i.op = Opcode::Nop;
    i.ext.liveOut = true;
    b.emit(i);
    b.halt();
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Printer, ContainsStructure)
{
    Module m("demo");
    m.addGlobal("tab", 16, true);
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    b.movI(5);
    b.halt();
    const auto s = moduleToString(m);
    EXPECT_NE(s.find("module \"demo\""), std::string::npos);
    EXPECT_NE(s.find("global @\"tab\" [16 bytes] const"), std::string::npos);
    EXPECT_NE(s.find("func @\"main\""), std::string::npos);
    EXPECT_NE(s.find("movi"), std::string::npos);
}

TEST(Printer, QuotesAndEscapesNames)
{
    EXPECT_EQ(quoteName("plain"), "\"plain\"");
    EXPECT_EQ(quoteName("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(quoteName(std::string("x\n\t\r\x01", 5)),
              "\"x\\n\\t\\r\\x01\"");
}

TEST(Printer, EmitsEntryAndInitBytes)
{
    Module m("demo");
    Global &g = m.addGlobal("tab", 4, true);
    g.init = {0x00, 0xab, 0xff};
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    b.halt();
    m.setEntryFunction(f.id());
    const auto s = moduleToString(m);
    EXPECT_NE(s.find("entry @\"main\""), std::string::npos);
    EXPECT_NE(s.find("init=x\"00abff\""), std::string::npos);
}

} // namespace
