#include "emu/machine.hh"

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

CodeLayout::CodeLayout(const ir::Module &mod)
{
    Addr next = kCodeBase;
    funcBase_.resize(mod.numFunctions());
    blockBase_.resize(mod.numFunctions());
    for (std::size_t f = 0; f < mod.numFunctions(); ++f) {
        const auto &func = mod.function(static_cast<ir::FuncId>(f));
        funcBase_[f] = next;
        blockBase_[f].resize(func.numBlocks());
        for (const auto &bb : func.blocks()) {
            blockBase_[f][bb.id()] = next;
            next += 4 * bb.size();
        }
        next = alignUp(next, 16);
    }
}

Addr
CodeLayout::blockBase(ir::FuncId f, ir::BlockId b) const
{
    return blockBase_[f][b];
}

ir::Value
evalAlu(ir::Opcode op, ir::Value a, ir::Value b)
{
    using ir::Opcode;
    const auto ua = static_cast<std::uint64_t>(a);
    const auto ub = static_cast<std::uint64_t>(b);
    switch (op) {
      case Opcode::Add: return a + b;
      case Opcode::Sub: return a - b;
      case Opcode::Mul: return a * b;
      case Opcode::Div:
        // Deterministic semantics for pathological inputs.
        if (b == 0)
            return 0;
        if (a == INT64_MIN && b == -1)
            return INT64_MIN;
        return a / b;
      case Opcode::Rem:
        if (b == 0)
            return 0;
        if (a == INT64_MIN && b == -1)
            return 0;
        return a % b;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Shl:
        return static_cast<ir::Value>(ua << (ub & 63));
      case Opcode::Shr:
        return static_cast<ir::Value>(ua >> (ub & 63));
      case Opcode::Sra: return a >> (ub & 63);
      case Opcode::CmpEq: return a == b;
      case Opcode::CmpNe: return a != b;
      case Opcode::CmpLt: return a < b;
      case Opcode::CmpLe: return a <= b;
      case Opcode::CmpGt: return a > b;
      case Opcode::CmpGe: return a >= b;
      case Opcode::CmpLtU: return ua < ub;
      case Opcode::CmpGeU: return ua >= ub;
      case Opcode::FAdd: return asValue(asDouble(a) + asDouble(b));
      case Opcode::FSub: return asValue(asDouble(a) - asDouble(b));
      case Opcode::FMul: return asValue(asDouble(a) * asDouble(b));
      case Opcode::FDiv: return asValue(asDouble(a) / asDouble(b));
      case Opcode::FCmpLt: return asDouble(a) < asDouble(b);
      default:
        ccr_panic("evalAlu on non-ALU opcode ", ir::opcodeName(op));
    }
}

Machine::Machine(const ir::Module &mod)
    : mod_(mod), layout_(mod), prog_(mod, layout_),
      cInsts_(metrics_.counter("insts")),
      cLoads_(metrics_.counter("loads")),
      cStores_(metrics_.counter("stores")),
      cBranches_(metrics_.counter("branches")),
      cCalls_(metrics_.counter("calls")),
      cReuseHits_(metrics_.counter("reuseHits")),
      cReuseMisses_(metrics_.counter("reuseMisses")),
      cInvalidates_(metrics_.counter("invalidates"))
{
    layoutGlobals();
    restart();
}

void
Machine::layoutGlobals()
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
Machine::restart()
{
    frames_.clear();
    halted_ = false;
    instCount_ = 0;
    heapNext_ = kHeapBase;
    lastStoreAddr_ = 0;
    lastStoreSize_ = 0;

    const auto entry = mod_.entryFunction();
    ccr_assert(entry != ir::kNoFunc, "module has no entry function");
    const auto &func = mod_.function(entry);
    ccr_assert(func.numParams() == 0, "entry function takes parameters");

    const DecodedFunction &df = prog_.function(entry);
    Frame frame;
    frame.df = &df;
    frame.ip = df.entryIp;
    frame.regs.assign(static_cast<std::size_t>(df.numRegs), 0);
    frames_.push_back(std::move(frame));
}

void
Machine::reset()
{
    mem_ = Memory();
    layoutGlobals();
    restart();
    metrics_.reset();
}

ir::Value
Machine::readReg(ir::Reg r) const
{
    return top().regs[r];
}

void
Machine::writeReg(ir::Reg r, ir::Value v)
{
    top().regs[r] = v;
}

StepKind
Machine::step(ExecInfo &info)
{
    using ir::Opcode;

    if (halted_)
        return StepKind::Halted;

    Frame &frame = frames_.back();
    const DecodedInst &di = frame.df->insts[frame.ip];

    info.inst = di.inst;
    info.func = frame.df->id;
    info.block = di.block;
    info.pc = di.pc;
    info.numSrcRegs = di.numSrc;
    info.srcVals[0] = di.numSrc > 0 ? frame.regs[di.src0] : 0;
    info.srcVals[1] = di.numSrc > 1 ? frame.regs[di.src1] : 0;
    info.result = 0;
    info.memAddr = 0;
    info.taken = false;

    StepKind kind = StepKind::Inst;
    std::uint32_t next = frame.ip + 1;
    bool framed = false; // Call/Ret/Halt manage control flow themselves

    switch (di.op) {
      case Opcode::Nop:
        break;
      case Opcode::MovI:
        info.result = di.imm;
        frame.regs[di.dst] = di.imm;
        break;
      case Opcode::Mov:
        info.result = info.srcVals[0];
        frame.regs[di.dst] = info.result;
        break;
      case Opcode::MovGA:
        info.result = static_cast<ir::Value>(globalAddr_[di.globalId]);
        frame.regs[di.dst] = info.result;
        break;
      case Opcode::I2F:
        info.result = asValue(static_cast<double>(info.srcVals[0]));
        frame.regs[di.dst] = info.result;
        break;
      case Opcode::F2I:
        info.result =
            static_cast<ir::Value>(asDouble(info.srcVals[0]));
        frame.regs[di.dst] = info.result;
        break;
      case Opcode::Load: {
        info.memAddr = static_cast<Addr>(info.srcVals[0])
                       + static_cast<Addr>(di.imm);
        info.result = mem_.read(info.memAddr, di.size, di.unsignedLoad);
        frame.regs[di.dst] = info.result;
        ++cLoads_;
        break;
      }
      case Opcode::Store: {
        info.memAddr = static_cast<Addr>(info.srcVals[0])
                       + static_cast<Addr>(di.imm);
        mem_.write(info.memAddr, di.size, info.srcVals[1]);
        lastStoreAddr_ = info.memAddr;
        lastStoreSize_ =
            static_cast<unsigned>(ir::memSizeBytes(di.size));
        ++cStores_;
        break;
      }
      case Opcode::Alloc: {
        const auto bytes = static_cast<Addr>(
            di.srcImm ? di.imm : info.srcVals[0]);
        heapNext_ = alignUp(heapNext_, 16);
        info.result = static_cast<ir::Value>(heapNext_);
        frame.regs[di.dst] = info.result;
        heapNext_ += bytes;
        break;
      }
      case Opcode::Br: {
        info.taken = info.srcVals[0] != 0;
        next = info.taken ? di.succ : di.succ2;
        ++cBranches_;
        break;
      }
      case Opcode::Jump:
        next = di.succ;
        break;
      case Opcode::Call: {
        const DecodedFunction &callee = prog_.function(di.callee);
        const ir::Reg *args = di.inst->args.data();
        for (int i = 0; i < di.numArgs; ++i)
            info.argVals[static_cast<std::size_t>(i)] =
                frame.regs[args[i]];
        Frame nf;
        nf.df = &callee;
        nf.ip = callee.entryIp;
        nf.retDst = di.dst;
        nf.retIp = di.succ;
        nf.regs.assign(static_cast<std::size_t>(callee.numRegs), 0);
        for (int i = 0; i < di.numArgs; ++i)
            nf.regs[static_cast<std::size_t>(i)] =
                info.argVals[static_cast<std::size_t>(i)];
        frames_.push_back(std::move(nf));
        framed = true;
        ++cCalls_;
        break;
      }
      case Opcode::Ret: {
        const ir::Value result = di.numSrc > 0 ? info.srcVals[0] : 0;
        info.result = result;
        const ir::Reg ret_dst = frame.retDst;
        const std::uint32_t ret_ip = frame.retIp;
        frames_.pop_back();
        if (frames_.empty()) {
            halted_ = true;
        } else {
            Frame &caller = frames_.back();
            if (ret_dst != ir::kNoReg)
                caller.regs[ret_dst] = result;
            caller.ip = ret_ip;
        }
        framed = true;
        break;
      }
      case Opcode::Halt:
        halted_ = true;
        framed = true;
        break;
      case Opcode::Reuse: {
        ReuseOutcome outcome;
        if (reuse_)
            outcome = reuse_->onReuse(di.regionId, *this);
        if (outcome.hit) {
            next = di.succ;
            kind = StepKind::ReuseHit;
            ++cReuseHits_;
        } else {
            next = di.succ2;
            kind = StepKind::ReuseMiss;
            ++cReuseMisses_;
        }
        break;
      }
      case Opcode::Invalidate:
        // Forward the triggering store only when the decode proved
        // this invalidate sits right after one; hand-written
        // invalidates stay unconditional (size 0).
        if (reuse_) {
            if (di.afterStore) {
                reuse_->onInvalidate(di.regionId, lastStoreAddr_,
                                     lastStoreSize_);
            } else {
                reuse_->onInvalidate(di.regionId, 0, 0);
            }
        }
        ++cInvalidates_;
        break;
      default:
        // Binary ALU / compare.
        {
            const ir::Value b = di.srcImm ? di.imm : info.srcVals[1];
            if (di.srcImm)
                info.srcVals[1] = di.imm;
            info.result = evalAlu(di.op, info.srcVals[0], b);
            frame.regs[di.dst] = info.result;
        }
        break;
    }

    if (!framed)
        frame.ip = next;

    ++instCount_;
    ++cInsts_;

    // Next-PC for the timing model's fetch redirect logic.
    if (halted_) {
        info.nextPc = 0;
    } else {
        const Frame &now = frames_.back();
        info.nextPc = now.df->insts[now.ip].pc;
    }

    // Route to the CCR handler while it is recording a region, and to
    // passive observers always. The common unhooked case pays one
    // predictable branch.
    if (hooked_) {
        if (reuse_ && kind == StepKind::Inst && reuse_->memoActive())
            reuse_->observe(info);
        for (auto *obs : observers_)
            obs->onInst(info);
    }

    // Note: the final instruction (Halt / last Ret) still reports its
    // own kind; step() only returns Halted when called after the
    // machine has already stopped.
    return kind;
}

std::uint64_t
Machine::run(std::uint64_t max_insts)
{
    ExecInfo info;
    const std::uint64_t start = instCount_;
    while (!halted_ && instCount_ - start < max_insts)
        step(info);
    return instCount_ - start;
}

} // namespace ccr::emu
