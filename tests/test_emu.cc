/**
 * @file
 * Unit tests for the emulator: sparse memory semantics, instruction
 * execution for every opcode class, call/return frames, observers,
 * the reuse-handler hook, and the code layout.
 */

#include <gtest/gtest.h>

#include <functional>

#include "emu/machine.hh"
#include "emu/reference.hh"
#include "ir/builder.hh"

namespace
{

using namespace ccr;
using namespace ccr::ir;

TEST(Memory, ZeroInitialized)
{
    emu::Memory mem;
    EXPECT_EQ(mem.read(0x1234, MemSize::Dword, false), 0);
    EXPECT_EQ(mem.numPages(), 0u);
}

TEST(Memory, RoundTripAllSizes)
{
    emu::Memory mem;
    for (const auto size : {MemSize::Byte, MemSize::Half, MemSize::Word,
                            MemSize::Dword}) {
        mem.write(0x100, size, 0x1122334455667788LL);
        const auto v = mem.read(0x100, size, true);
        const int bytes = memSizeBytes(size);
        const std::uint64_t mask =
            bytes == 8 ? ~0ULL : ((1ULL << (8 * bytes)) - 1);
        EXPECT_EQ(static_cast<std::uint64_t>(v),
                  0x1122334455667788ULL & mask);
    }
}

TEST(Memory, SignExtension)
{
    emu::Memory mem;
    mem.write(0x200, MemSize::Byte, 0xff);
    EXPECT_EQ(mem.read(0x200, MemSize::Byte, false), -1);
    EXPECT_EQ(mem.read(0x200, MemSize::Byte, true), 0xff);
    mem.write(0x300, MemSize::Half, 0x8000);
    EXPECT_EQ(mem.read(0x300, MemSize::Half, false), -32768);
    mem.write(0x400, MemSize::Word, 0x80000000LL);
    EXPECT_EQ(mem.read(0x400, MemSize::Word, false),
              -2147483648LL);
}

TEST(Memory, CrossPageAccess)
{
    emu::Memory mem;
    const emu::Addr addr = emu::Memory::kPageSize - 4;
    mem.write(addr, MemSize::Dword, 0x0102030405060708LL);
    EXPECT_EQ(mem.read(addr, MemSize::Dword, false),
              0x0102030405060708LL);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(Memory, LittleEndianLayout)
{
    emu::Memory mem;
    mem.write(0x10, MemSize::Word, 0x11223344);
    EXPECT_EQ(mem.read(0x10, MemSize::Byte, true), 0x44);
    EXPECT_EQ(mem.read(0x13, MemSize::Byte, true), 0x11);
}

TEST(Memory, BulkBytes)
{
    emu::Memory mem;
    const std::uint8_t data[] = {1, 2, 3, 4, 5};
    mem.writeBytes(0x777, data, 5);
    std::uint8_t back[5] = {};
    mem.readBytes(0x777, back, 5);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(back[i], data[i]);
    mem.zero(0x777, 2);
    mem.readBytes(0x777, back, 5);
    EXPECT_EQ(back[0], 0);
    EXPECT_EQ(back[2], 3);
}

/** Build a single-function module, run it, return final value of the
 *  global "out". */
std::int64_t
runProgram(const std::function<void(Module &, IRBuilder &, GlobalId)>
               &body)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    body(m, b, out);
    emu::Machine machine(m);
    machine.run(1'000'000);
    EXPECT_TRUE(machine.halted());
    return machine.memory().read(machine.globalAddr(out),
                                 MemSize::Dword, false);
}

TEST(Machine, MovAndStore)
{
    const auto v = runProgram([](Module &, IRBuilder &b, GlobalId out) {
        const Reg x = b.movI(1234);
        const Reg y = b.mov(x);
        b.store(b.movGA(out), 0, y);
        b.halt();
    });
    EXPECT_EQ(v, 1234);
}

/** One ALU case: opcode + operands + expected result. */
struct AluCase
{
    Opcode op;
    std::int64_t a;
    std::int64_t b;
    std::int64_t expect;
};

/** Operand spelling for test names: INT64_MAX/INT64_MIN by name,
 *  negatives with an "m" prefix (so "-7" reads "m7"). */
std::string
operandName(std::int64_t v)
{
    if (v == INT64_MAX)
        return "INT64_MAX";
    if (v == INT64_MIN)
        return "INT64_MIN";
    return v < 0 ? "m" + std::to_string(-v) : std::to_string(v);
}

/** Names each case after its opcode and operands ("add_INT64_MAX_1")
 *  instead of gtest's byte dump, which includes the struct's
 *  uninitialised padding and so changes from build to build. */
void
PrintTo(const AluCase &c, std::ostream *os)
{
    *os << opcodeName(c.op) << "_" << operandName(c.a) << "_"
        << operandName(c.b);
}

class AluSemantics : public ::testing::TestWithParam<AluCase>
{};

TEST_P(AluSemantics, MatchesHost)
{
    const AluCase c = GetParam();
    const auto v = runProgram(
        [&](Module &, IRBuilder &b, GlobalId out) {
            const Reg x = b.movI(c.a);
            const Reg y = b.movI(c.b);
            const Reg r = b.binOp(c.op, x, y);
            b.store(b.movGA(out), 0, r);
            b.halt();
        });
    EXPECT_EQ(v, c.expect) << opcodeName(c.op) << " " << c.a << ", "
                           << c.b;
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, AluSemantics,
    ::testing::Values(
        AluCase{Opcode::Add, 2, 3, 5},
        AluCase{Opcode::Add, INT64_MAX, 1, INT64_MIN}, // wraps
        AluCase{Opcode::Sub, 2, 3, -1},
        AluCase{Opcode::Mul, -4, 3, -12},
        AluCase{Opcode::Div, 7, 2, 3},
        AluCase{Opcode::Div, -7, 2, -3},
        AluCase{Opcode::Div, 7, 0, 0},            // defined: 0
        AluCase{Opcode::Div, INT64_MIN, -1, INT64_MIN},
        AluCase{Opcode::Rem, 7, 3, 1},
        AluCase{Opcode::Rem, 7, 0, 0},
        AluCase{Opcode::Rem, INT64_MIN, -1, 0}));

INSTANTIATE_TEST_SUITE_P(
    Logical, AluSemantics,
    ::testing::Values(
        AluCase{Opcode::And, 0xf0f, 0x0ff, 0x00f},
        AluCase{Opcode::Or, 0xf00, 0x00f, 0xf0f},
        AluCase{Opcode::Xor, 0xff, 0x0f, 0xf0},
        AluCase{Opcode::Shl, 1, 8, 256},
        AluCase{Opcode::Shl, 1, 64, 1},          // shift masked to 6b
        AluCase{Opcode::Shr, -1, 60, 15},        // logical shift
        AluCase{Opcode::Sra, -16, 2, -4},        // arithmetic shift
        AluCase{Opcode::Shr, 256, 4, 16}));

INSTANTIATE_TEST_SUITE_P(
    Compare, AluSemantics,
    ::testing::Values(
        AluCase{Opcode::CmpEq, 3, 3, 1}, AluCase{Opcode::CmpEq, 3, 4, 0},
        AluCase{Opcode::CmpNe, 3, 4, 1}, AluCase{Opcode::CmpLt, -1, 0, 1},
        AluCase{Opcode::CmpLe, 5, 5, 1}, AluCase{Opcode::CmpGt, 6, 5, 1},
        AluCase{Opcode::CmpGe, 5, 6, 0},
        AluCase{Opcode::CmpLtU, -1, 0, 0}, // unsigned: ~0 is max
        AluCase{Opcode::CmpGeU, -1, 0, 1}));

TEST(Machine, ImmediateForm)
{
    const auto v = runProgram([](Module &, IRBuilder &b, GlobalId out) {
        const Reg x = b.movI(40);
        const Reg r = b.addI(x, 2);
        b.store(b.movGA(out), 0, r);
        b.halt();
    });
    EXPECT_EQ(v, 42);
}

TEST(Machine, FloatingPoint)
{
    const auto v = runProgram([](Module &, IRBuilder &b, GlobalId out) {
        const Reg two = b.movI(2);
        const Reg three = b.movI(3);
        const Reg fa = b.i2f(two);
        const Reg fb = b.i2f(three);
        const Reg fm = b.binOp(Opcode::FMul, fa, fb);
        const Reg fd = b.binOp(Opcode::FDiv, fm, fa);
        const Reg i = b.f2i(fd);
        b.store(b.movGA(out), 0, i);
        b.halt();
    });
    EXPECT_EQ(v, 3); // (2.0 * 3.0) / 2.0 = 3.0
}

TEST(Machine, BranchDirections)
{
    const auto v = runProgram([](Module &m, IRBuilder &b, GlobalId out) {
        (void)m;
        const BlockId taken = b.newBlock();
        const BlockId not_taken = b.newBlock();
        const Reg c = b.movI(1);
        b.br(c, taken, not_taken);
        b.setInsertPoint(taken);
        b.store(b.movGA(out), 0, b.movI(111));
        b.halt();
        b.setInsertPoint(not_taken);
        b.store(b.movGA(out), 0, b.movI(222));
        b.halt();
    });
    EXPECT_EQ(v, 111);
}

TEST(Machine, LoopExecution)
{
    // sum 0..9 = 45
    const auto v = runProgram([](Module &m, IRBuilder &b, GlobalId out) {
        (void)m;
        const BlockId header = b.newBlock();
        const BlockId body = b.newBlock();
        const BlockId exit = b.newBlock();
        const Reg i = b.reg();
        const Reg sum = b.reg();
        b.movITo(i, 0);
        b.movITo(sum, 0);
        b.jump(header);
        b.setInsertPoint(header);
        const Reg c = b.cmpLtI(i, 10);
        b.br(c, body, exit);
        b.setInsertPoint(body);
        b.binOpTo(sum, Opcode::Add, sum, i);
        b.binOpITo(i, Opcode::Add, i, 1);
        b.jump(header);
        b.setInsertPoint(exit);
        b.store(b.movGA(out), 0, sum);
        b.halt();
    });
    EXPECT_EQ(v, 45);
}

TEST(Machine, CallReturnAndArgs)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    Function &callee = m.addFunction("addmul", 2);
    {
        IRBuilder b(callee);
        b.setInsertPoint(b.newBlock());
        const Reg s = b.add(0, 1);
        const Reg r = b.mulI(s, 10);
        b.ret(r);
    }
    Function &f = m.addFunction("main", 0);
    m.setEntryFunction(f.id());
    {
        IRBuilder b(f);
        const BlockId b0 = b.newBlock();
        const BlockId b1 = b.newBlock();
        b.setInsertPoint(b0);
        const Reg a = b.movI(3);
        const Reg c = b.movI(4);
        const Reg r = b.call(callee.id(), {a, c}, b1);
        b.setInsertPoint(b1);
        b.store(b.movGA(out), 0, r);
        b.halt();
    }
    emu::Machine machine(m);
    machine.run();
    EXPECT_TRUE(machine.halted());
    EXPECT_EQ(machine.memory().read(machine.globalAddr(out),
                                    MemSize::Dword, false),
              70);
}

TEST(Machine, RecursionDepth)
{
    // fact(10) via recursion exercises deep frames.
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    Function &fact = m.addFunction("fact", 1);
    {
        IRBuilder b(fact);
        const BlockId entry = b.newBlock();
        const BlockId base = b.newBlock();
        const BlockId rec = b.newBlock();
        const BlockId post = b.newBlock();
        b.setInsertPoint(entry);
        const Reg le1 = b.cmpLeI(0, 1);
        b.br(le1, base, rec);
        b.setInsertPoint(base);
        b.ret(b.movI(1));
        b.setInsertPoint(rec);
        const Reg nm1 = b.subI(0, 1);
        const Reg sub = b.call(fact.id(), {nm1}, post);
        b.setInsertPoint(post);
        const Reg r = b.mul(0, sub);
        b.ret(r);
    }
    Function &f = m.addFunction("main", 0);
    m.setEntryFunction(f.id());
    {
        IRBuilder b(f);
        const BlockId b0 = b.newBlock();
        const BlockId b1 = b.newBlock();
        b.setInsertPoint(b0);
        const Reg n = b.movI(10);
        const Reg r = b.call(fact.id(), {n}, b1);
        b.setInsertPoint(b1);
        b.store(b.movGA(out), 0, r);
        b.halt();
    }
    emu::Machine machine(m);
    machine.run();
    EXPECT_EQ(machine.memory().read(machine.globalAddr(out),
                                    MemSize::Dword, false),
              3628800);
}

TEST(Machine, AllocReturnsDistinctBlocks)
{
    const auto v = runProgram([](Module &m, IRBuilder &b, GlobalId out) {
        (void)m;
        const Reg p1 = b.allocI(64);
        const Reg p2 = b.allocI(64);
        const Reg diff = b.sub(p2, p1);
        b.store(b.movGA(out), 0, diff);
        b.halt();
    });
    EXPECT_GE(v, 64);
}

TEST(Machine, GlobalsInitialized)
{
    Module m("t");
    Global &g = m.addGlobal("tab", 16, true);
    g.init = {0xEF, 0xBE, 0xAD, 0xDE};
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    b.halt();
    emu::Machine machine(m);
    EXPECT_EQ(machine.memory().read(machine.globalAddr(g.id),
                                    MemSize::Word, true),
              0xDEADBEEF);
}

TEST(Machine, InstCountAndStats)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    b.movI(1);
    b.movI(2);
    b.halt();
    emu::Machine machine(m);
    machine.run();
    EXPECT_EQ(machine.instCount(), 3u);
    EXPECT_EQ(machine.metrics().get("insts"), 3u);
}

TEST(Machine, RunBudgetStopsEarly)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    b.setInsertPoint(b0);
    b.jump(b0); // infinite loop
    emu::Machine machine(m);
    const auto executed = machine.run(1000);
    EXPECT_EQ(executed, 1000u);
    EXPECT_FALSE(machine.halted());
}

TEST(Machine, RestartPreservesMemoryResetClearsIt)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    const Reg base = b.movGA(out);
    const Reg old = b.load(base, 0);
    const Reg inc = b.addI(old, 1);
    b.store(base, 0, inc);
    b.halt();
    emu::Machine machine(m);
    machine.run();
    machine.restart();
    machine.run();
    EXPECT_EQ(machine.memory().read(machine.globalAddr(out),
                                    MemSize::Dword, false),
              2);
    machine.reset();
    machine.run();
    EXPECT_EQ(machine.memory().read(machine.globalAddr(out),
                                    MemSize::Dword, false),
              1);
}

/** Observer recording the executed opcode sequence. */
class OpRecorder : public emu::Observer
{
  public:
    std::vector<Opcode> ops;
    void
    onInst(const emu::ExecInfo &info) override
    {
        ops.push_back(info.inst->op);
    }
};

TEST(Machine, ObserverSeesEveryInst)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    b.movI(1);
    b.halt();
    emu::Machine machine(m);
    OpRecorder rec;
    machine.addObserver(&rec);
    machine.run();
    ASSERT_EQ(rec.ops.size(), 2u);
    EXPECT_EQ(rec.ops[0], Opcode::MovI);
    EXPECT_EQ(rec.ops[1], Opcode::Halt);
}

/** Reuse handler that always hits and writes one register. */
class AlwaysHit : public emu::ReuseHandler
{
  public:
    Reg target_reg;
    ir::Value value;
    int queries = 0;

    emu::ReuseOutcome
    onReuse(RegionId, emu::Machine &machine) override
    {
        ++queries;
        machine.writeReg(target_reg, value);
        emu::ReuseOutcome o;
        o.hit = true;
        o.outputRegs.push_back(target_reg);
        return o;
    }
    void observe(const emu::ExecInfo &) override {}
    void onInvalidate(RegionId, emu::Addr, unsigned) override {}
    bool memoActive() const override { return false; }
};

TEST(Machine, ReuseHitSkipsBody)
{
    Module m("t");
    const GlobalId out = m.addGlobal("out", 8).id;
    const RegionId region = m.newRegionId();
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId body = b.newBlock();
    const BlockId join = b.newBlock();
    const Reg r = f.newReg();
    b.setInsertPoint(b0);
    b.reuse(region, join, body);
    b.setInsertPoint(body);
    b.movITo(r, 1); // would produce 1 if executed
    b.jump(join);
    b.setInsertPoint(join);
    b.store(b.movGA(out), 0, r);
    b.halt();

    // Without a handler: miss path executes the body.
    emu::Machine machine(m);
    machine.run();
    EXPECT_EQ(machine.memory().read(machine.globalAddr(out),
                                    MemSize::Dword, false),
              1);
    EXPECT_EQ(machine.metrics().get("reuseMisses"), 1u);

    // With an always-hit handler: body is skipped, outputs injected.
    emu::Machine machine2(m);
    AlwaysHit handler;
    handler.target_reg = r;
    handler.value = 99;
    machine2.setReuseHandler(&handler);
    machine2.run();
    EXPECT_EQ(handler.queries, 1);
    EXPECT_EQ(machine2.memory().read(machine2.globalAddr(out),
                                     MemSize::Dword, false),
              99);
    EXPECT_EQ(machine2.metrics().get("reuseHits"), 1u);
}

TEST(CodeLayout, DistinctAddresses)
{
    Module m("t");
    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);
    const BlockId b0 = b.newBlock();
    const BlockId b1 = b.newBlock();
    b.setInsertPoint(b0);
    b.movI(1);
    b.jump(b1);
    b.setInsertPoint(b1);
    b.halt();
    const emu::CodeLayout layout(m);
    EXPECT_NE(layout.instAddr(0, b0, 0), layout.instAddr(0, b0, 1));
    EXPECT_EQ(layout.instAddr(0, b0, 1) - layout.instAddr(0, b0, 0),
              4u);
    EXPECT_GT(layout.blockBase(0, b1), layout.blockBase(0, b0));
}

TEST(Memory, CloneIsDeepAndContentHashTracksContents)
{
    emu::Memory mem;
    mem.write(0x1000, MemSize::Dword, 42);
    mem.write(0x555000, MemSize::Byte, 7);

    emu::Memory copy = mem.clone();
    EXPECT_EQ(copy.read(0x1000, MemSize::Dword, false), 42);
    EXPECT_EQ(copy.contentHash(), mem.contentHash());

    // Deep copy: writes to the clone must not leak back.
    copy.write(0x1000, MemSize::Dword, 99);
    EXPECT_EQ(mem.read(0x1000, MemSize::Dword, false), 42);
    EXPECT_NE(copy.contentHash(), mem.contentHash());

    // An all-zero page does not change the hash (pages are allocated
    // on write but hashed by content).
    const auto h = mem.contentHash();
    mem.write(0x777000, MemSize::Dword, 123);
    mem.write(0x777000, MemSize::Dword, 0);
    EXPECT_EQ(mem.contentHash(), h);
}

/**
 * A program exercising every control construct the decoder resolves:
 * fall-through, Br both ways, Jump, Call/Ret with args, a Reuse
 * region (miss path without a handler), loads/stores, and Alloc.
 */
static Module
buildLockstepModule()
{
    Module m("lockstep");
    const GlobalId tab = m.addGlobal("tab", 64).id;
    const GlobalId out = m.addGlobal("out", 8).id;
    const RegionId region = m.newRegionId();

    Function &callee = m.addFunction("madd", 2);
    {
        IRBuilder b(callee);
        b.setInsertPoint(b.newBlock());
        const Reg prod = b.mul(0, 1); // args arrive in regs 0..n-1
        b.ret(b.addI(prod, 3));
    }

    Function &f = m.addFunction("main", 0);
    m.setEntryFunction(f.id());
    IRBuilder b(f);
    const BlockId entry = b.newBlock();
    const BlockId header = b.newBlock();
    const BlockId inception = b.newBlock();
    const BlockId body = b.newBlock();
    const BlockId join = b.newBlock();
    const BlockId after = b.newBlock();
    const BlockId odd = b.newBlock();
    const BlockId even = b.newBlock();
    const BlockId latch = b.newBlock();
    const BlockId exit = b.newBlock();
    const Reg i = b.reg();
    const Reg acc = b.reg();
    const Reg y = b.reg();

    b.setInsertPoint(entry);
    const Reg base = b.movGA(tab);
    const Reg buf = b.allocI(32);
    b.movITo(i, 0);
    b.movITo(acc, 0);
    b.jump(header);

    b.setInsertPoint(header);
    b.br(b.cmpLtI(i, 6), inception, exit);

    b.setInsertPoint(inception);
    b.reuse(region, join, body);

    b.setInsertPoint(body);
    {
        Inst add;
        add.op = Opcode::Add;
        add.dst = y;
        add.src1 = i;
        add.srcImm = true;
        add.imm = 10;
        add.ext.liveOut = true;
        b.emit(add);
        Inst j;
        j.op = Opcode::Jump;
        j.target = join;
        j.ext.regionEnd = true;
        b.emit(j);
    }

    b.setInsertPoint(join);
    const Reg r = b.call(callee.id(), {y, i}, after);

    b.setInsertPoint(after);
    b.store(b.add(base, b.shlI(i, 3)), 0, r);
    b.store(buf, 8, r);
    b.br(b.andI(i, 1), odd, even);

    b.setInsertPoint(odd);
    b.binOpTo(acc, Opcode::Add, acc, r);
    b.jump(latch);

    b.setInsertPoint(even);
    b.binOpTo(acc, Opcode::Sub, acc, r);
    b.jump(latch);

    b.setInsertPoint(latch);
    b.binOpTo(acc, Opcode::Add, acc,
              b.load(b.add(base, b.shlI(i, 3)), 0));
    b.binOpITo(i, Opcode::Add, i, 1);
    b.jump(header);

    b.setInsertPoint(exit);
    b.store(b.movGA(out), 0, acc);
    b.halt();
    return m;
}

TEST(DecodedEngine, LockstepWithReferenceInterpreter)
{
    const Module m = buildLockstepModule();
    emu::Machine machine(m);
    emu::ReferenceMachine ref(m);

    emu::ExecInfo a, b;
    for (std::uint64_t n = 0; n < 100000; ++n) {
        const auto ka = machine.step(a);
        const auto kb = ref.step(b);
        ASSERT_EQ(ka, kb) << "step " << n;
        if (ka == emu::StepKind::Halted)
            break;
        ASSERT_EQ(a.inst, b.inst) << "step " << n;
        ASSERT_EQ(a.func, b.func) << "step " << n;
        ASSERT_EQ(a.block, b.block) << "step " << n;
        ASSERT_EQ(a.numSrcRegs, b.numSrcRegs) << "step " << n;
        ASSERT_EQ(a.srcVals, b.srcVals) << "step " << n;
        ASSERT_EQ(a.result, b.result) << "step " << n;
        ASSERT_EQ(a.memAddr, b.memAddr) << "step " << n;
        ASSERT_EQ(a.taken, b.taken) << "step " << n;
        ASSERT_EQ(a.pc, b.pc) << "step " << n;
        ASSERT_EQ(a.nextPc, b.nextPc) << "step " << n;
        if (a.inst->op == Opcode::Call) {
            for (int k = 0; k < a.inst->numArgs; ++k) {
                ASSERT_EQ(a.argVals[static_cast<std::size_t>(k)],
                          b.argVals[static_cast<std::size_t>(k)])
                    << "step " << n << " arg " << k;
            }
        }
    }
    EXPECT_TRUE(machine.halted());
    EXPECT_TRUE(ref.halted());
    EXPECT_EQ(machine.instCount(), ref.instCount());
    EXPECT_EQ(machine.memory().contentHash(),
              ref.memory().contentHash());
    for (const auto *key :
         {"insts", "loads", "stores", "branches", "calls",
          "reuseMisses"}) {
        EXPECT_EQ(machine.metrics().get(key), ref.metrics().get(key))
            << key;
    }
}

TEST(DecodedEngine, PcMatchesCodeLayout)
{
    // The decoder folds CodeLayout::instAddr into DecodedInst::pc;
    // every reported pc must match an independent layout computation.
    const Module m = buildLockstepModule();
    const emu::CodeLayout layout(m);
    emu::Machine machine(m);

    emu::ExecInfo info;
    while (machine.step(info) != emu::StepKind::Halted) {
        const auto &func = m.function(info.func);
        const auto &insts = func.block(info.block).insts();
        std::size_t idx = insts.size();
        for (std::size_t k = 0; k < insts.size(); ++k) {
            if (&insts[k] == info.inst) {
                idx = k;
                break;
            }
        }
        ASSERT_LT(idx, insts.size());
        ASSERT_EQ(info.pc, layout.instAddr(info.func, info.block, idx));
    }
}

} // namespace
