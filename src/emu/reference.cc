#include "emu/reference.hh"

#include <cstring>

#include "support/bits.hh"
#include "support/logging.hh"

namespace ccr::emu
{

namespace
{

double
asDouble(ir::Value v)
{
    double d;
    std::memcpy(&d, &v, sizeof(d));
    return d;
}

ir::Value
asValue(double d)
{
    ir::Value v;
    std::memcpy(&v, &d, sizeof(v));
    return v;
}

} // namespace

ReferenceMachine::ReferenceMachine(const ir::Module &mod)
    : mod_(mod), layout_(mod), heapNext_(kHeapBase)
{
    layoutGlobals();
    restart();
}

void
ReferenceMachine::layoutGlobals()
{
    globalAddr_.resize(mod_.numGlobals());
    Addr next = kGlobalBase;
    for (std::size_t g = 0; g < mod_.numGlobals(); ++g) {
        const auto &gl = mod_.global(static_cast<ir::GlobalId>(g));
        next = alignUp(next, 16);
        globalAddr_[g] = next;
        if (!gl.init.empty())
            mem_.writeBytes(next, gl.init.data(), gl.init.size());
        next += gl.sizeBytes;
    }
}

void
ReferenceMachine::restart()
{
    frames_.clear();
    halted_ = false;
    instCount_ = 0;
    heapNext_ = kHeapBase;

    const auto entry = mod_.entryFunction();
    ccr_assert(entry != ir::kNoFunc, "module has no entry function");
    const auto &func = mod_.function(entry);
    ccr_assert(func.numParams() == 0, "entry function takes parameters");

    Frame frame;
    frame.func = entry;
    frame.block = func.entry();
    frame.idx = 0;
    frame.regs.assign(static_cast<std::size_t>(func.numRegs()), 0);
    frames_.push_back(std::move(frame));
}

StepKind
ReferenceMachine::step(ExecInfo &info)
{
    using ir::Opcode;

    if (halted_)
        return StepKind::Halted;

    Frame &frame = top();
    const ir::Function &func = mod_.function(frame.func);
    const ir::BasicBlock &bb = func.block(frame.block);
    ccr_assert(frame.idx < bb.size(), "ran off block end");
    const ir::Inst &inst = bb.inst(frame.idx);

    info = ExecInfo{};
    info.inst = &inst;
    info.func = frame.func;
    info.block = frame.block;
    info.pc = layout_.instAddr(frame.func, frame.block, frame.idx);

    const int nsrc = inst.numRegSources();
    info.numSrcRegs = static_cast<std::uint8_t>(nsrc);
    for (int i = 0; i < nsrc && i < 2; ++i)
        info.srcVals[static_cast<std::size_t>(i)] =
            frame.regs[inst.regSource(i)];

    StepKind kind = StepKind::Inst;
    bool advance = true; // move to next instruction in the same block

    switch (inst.op) {
      case Opcode::Nop:
        break;
      case Opcode::MovI:
        info.result = inst.imm;
        frame.regs[inst.dst] = inst.imm;
        break;
      case Opcode::Mov:
        info.result = info.srcVals[0];
        frame.regs[inst.dst] = info.result;
        break;
      case Opcode::MovGA:
        info.result = static_cast<ir::Value>(globalAddr_[inst.globalId]);
        frame.regs[inst.dst] = info.result;
        break;
      case Opcode::I2F:
        info.result = asValue(static_cast<double>(info.srcVals[0]));
        frame.regs[inst.dst] = info.result;
        break;
      case Opcode::F2I:
        info.result =
            static_cast<ir::Value>(asDouble(info.srcVals[0]));
        frame.regs[inst.dst] = info.result;
        break;
      case Opcode::Load: {
        info.memAddr = static_cast<Addr>(info.srcVals[0])
                       + static_cast<Addr>(inst.imm);
        info.result = mem_.read(info.memAddr, inst.size,
                                inst.unsignedLoad);
        frame.regs[inst.dst] = info.result;
        ++metrics_.counter("loads");
        break;
      }
      case Opcode::Store: {
        info.memAddr = static_cast<Addr>(info.srcVals[0])
                       + static_cast<Addr>(inst.imm);
        mem_.write(info.memAddr, inst.size, info.srcVals[1]);
        ++metrics_.counter("stores");
        break;
      }
      case Opcode::Alloc: {
        const auto bytes = static_cast<Addr>(
            inst.srcImm ? inst.imm : info.srcVals[0]);
        heapNext_ = alignUp(heapNext_, 16);
        info.result = static_cast<ir::Value>(heapNext_);
        frame.regs[inst.dst] = info.result;
        heapNext_ += bytes;
        break;
      }
      case Opcode::Br: {
        info.taken = info.srcVals[0] != 0;
        frame.block = info.taken ? inst.target : inst.target2;
        frame.idx = 0;
        advance = false;
        ++metrics_.counter("branches");
        break;
      }
      case Opcode::Jump:
        frame.block = inst.target;
        frame.idx = 0;
        advance = false;
        break;
      case Opcode::Call: {
        const ir::Function &callee = mod_.function(inst.callee);
        for (int i = 0; i < inst.numArgs; ++i)
            info.argVals[static_cast<std::size_t>(i)] =
                frame.regs[inst.args[i]];
        Frame next;
        next.func = inst.callee;
        next.block = callee.entry();
        next.idx = 0;
        next.retDst = inst.dst;
        next.retBlock = inst.target;
        next.regs.assign(static_cast<std::size_t>(callee.numRegs()), 0);
        for (int i = 0; i < inst.numArgs; ++i)
            next.regs[static_cast<std::size_t>(i)] =
                frame.regs[inst.args[i]];
        frames_.push_back(std::move(next));
        advance = false;
        ++metrics_.counter("calls");
        break;
      }
      case Opcode::Ret: {
        const ir::Value result =
            inst.src1 == ir::kNoReg ? 0 : info.srcVals[0];
        info.result = result;
        const ir::Reg ret_dst = frame.retDst;
        const ir::BlockId ret_block = frame.retBlock;
        frames_.pop_back();
        if (frames_.empty()) {
            halted_ = true;
        } else {
            Frame &caller = top();
            if (ret_dst != ir::kNoReg)
                caller.regs[ret_dst] = result;
            caller.block = ret_block;
            caller.idx = 0;
        }
        advance = false;
        break;
      }
      case Opcode::Halt:
        halted_ = true;
        advance = false;
        break;
      case Opcode::Reuse:
        // No handler: always the miss path.
        frame.block = inst.target2;
        frame.idx = 0;
        kind = StepKind::ReuseMiss;
        advance = false;
        ++metrics_.counter("reuseMisses");
        break;
      case Opcode::Invalidate:
        ++metrics_.counter("invalidates");
        break;
      default:
        // Binary ALU / compare.
        {
            const ir::Value b =
                inst.srcImm ? inst.imm : info.srcVals[1];
            if (inst.srcImm)
                info.srcVals[1] = inst.imm;
            info.result = evalAlu(inst.op, info.srcVals[0], b);
            frame.regs[inst.dst] = info.result;
        }
        break;
    }

    if (advance)
        ++frame.idx;

    ++instCount_;
    ++metrics_.counter("insts");

    if (halted_) {
        info.nextPc = 0;
    } else {
        const Frame &now = top();
        info.nextPc = layout_.instAddr(now.func, now.block, now.idx);
    }

    return kind;
}

std::uint64_t
ReferenceMachine::run(std::uint64_t max_insts)
{
    ExecInfo info;
    const std::uint64_t start = instCount_;
    while (!halted_ && instCount_ - start < max_insts)
        step(info);
    return instCount_ - start;
}

} // namespace ccr::emu
