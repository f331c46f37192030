#include "ir/verifier.hh"

#include <sstream>

#include "support/logging.hh"

namespace ccr::ir
{

namespace
{

void
problem(std::vector<Diagnostic> &diags, const char *rule,
        const Function &func, BlockId bb, const std::string &msg)
{
    std::ostringstream os;
    os << func.name() << ":B" << bb << ": " << msg;
    diags.push_back(makeError(rule, os.str()));
}

bool
regOk(const Function &func, Reg r)
{
    return r != kNoReg && r < func.numRegs();
}

void
checkInst(const Module &mod, const Function &func, const BasicBlock &bb,
          const Inst &inst, bool is_last, std::vector<Diagnostic> &diags)
{
    auto err = [&](const char *rule, const std::string &msg) {
        problem(diags, rule, func, bb.id(),
                msg + " in '" + inst.toString() + "'");
    };

    if (inst.isControlInst() && !is_last)
        err("ir.block.control-mid", "control instruction not at block end");
    if (is_last && !inst.isControlInst())
        err("ir.block.bad-terminator",
            "block terminator is not a control instruction");

    // Destination register.
    if (inst.hasDst() && !regOk(func, inst.dst))
        err("ir.inst.bad-dst", "bad destination register");

    // Source registers.
    const int nsrc = inst.numRegSources();
    for (int i = 0; i < nsrc; ++i) {
        if (!regOk(func, inst.regSource(i)))
            err("ir.inst.bad-src", "bad source register");
    }

    const auto nblocks = static_cast<BlockId>(func.numBlocks());
    auto blockOk = [&](BlockId b) { return b < nblocks; };

    switch (inst.op) {
      case Opcode::Br:
        if (!blockOk(inst.target) || !blockOk(inst.target2))
            err("ir.inst.bad-target", "branch target out of range");
        break;
      case Opcode::Jump:
        if (!blockOk(inst.target))
            err("ir.inst.bad-target", "jump target out of range");
        break;
      case Opcode::Call:
        if (inst.callee >= mod.numFunctions()) {
            err("ir.call.unknown-callee", "call to unknown function");
        } else if (mod.function(inst.callee).numParams()
                   != inst.numArgs) {
            err("ir.call.arg-count", "call argument count mismatch");
        }
        if (!blockOk(inst.target))
            err("ir.inst.bad-target", "call continuation out of range");
        for (int i = 0; i < inst.numArgs; ++i) {
            if (!regOk(func, inst.args[i]))
                err("ir.call.bad-arg", "bad call argument register");
        }
        break;
      case Opcode::Reuse:
        if (!blockOk(inst.target) || !blockOk(inst.target2))
            err("ir.inst.bad-target", "reuse target out of range");
        if (inst.regionId == kNoRegion)
            err("ir.reuse.no-region", "reuse without region id");
        break;
      case Opcode::Invalidate:
        if (inst.regionId == kNoRegion)
            err("ir.reuse.no-region", "invalidate without region id");
        break;
      case Opcode::MovGA:
        if (inst.globalId >= mod.numGlobals())
            err("ir.inst.bad-global", "movga to unknown global");
        break;
      default:
        break;
    }

    // CCR extension sanity.
    if (inst.ext.liveOut && !inst.hasDst()) {
        err("ir.ext.liveout-no-dst",
            "live-out extension on instruction without destination");
    }
    if ((inst.ext.regionEnd || inst.ext.regionExit)
        && !inst.isControlInst()) {
        err("ir.ext.marker-non-control",
            "region end/exit extension on non-control instruction");
    }
    if (inst.ext.regionEnd && inst.ext.regionExit) {
        err("ir.ext.end-and-exit",
            "instruction marked both region-end and region-exit");
    }
    if (inst.ext.determinable && inst.op != Opcode::Load) {
        err("ir.ext.det-non-load",
            "determinable extension on non-load");
    }
}

} // namespace

void
verifyFunction(const Module &mod, const Function &func,
               std::vector<Diagnostic> &diags)
{
    if (func.numBlocks() == 0) {
        diags.push_back(makeError("ir.func.no-blocks",
                                  func.name()
                                      + ": function has no blocks"));
        return;
    }
    if (func.entry() >= func.numBlocks()) {
        diags.push_back(makeError("ir.func.bad-entry",
                                  func.name() + ": bad entry block"));
        return;
    }

    for (const auto &bb : func.blocks()) {
        if (bb.empty()) {
            problem(diags, "ir.block.empty", func, bb.id(),
                    "empty basic block");
            continue;
        }
        if (!bb.isTerminated()) {
            problem(diags, "ir.block.unterminated", func, bb.id(),
                    "unterminated basic block");
        }
        for (std::size_t i = 0; i < bb.size(); ++i) {
            checkInst(mod, func, bb, bb.inst(i), i + 1 == bb.size(),
                      diags);
        }
    }
}

std::vector<Diagnostic>
verifyModule(const Module &mod)
{
    std::vector<Diagnostic> diags;
    if (mod.numFunctions() == 0) {
        diags.push_back(
            makeError("ir.module.no-functions", "module has no functions"));
        return diags;
    }
    if (mod.entryFunction() >= mod.numFunctions()) {
        diags.push_back(makeError("ir.module.bad-entry",
                                  "module entry function invalid"));
    }
    for (std::size_t f = 0; f < mod.numFunctions(); ++f)
        verifyFunction(mod, mod.function(static_cast<FuncId>(f)), diags);
    return diags;
}

void
verifyOrDie(const Module &mod)
{
    const auto diags = verifyModule(mod);
    if (!diags.empty()) {
        for (const auto &d : diags)
            std::cerr << "verify: " << formatDiagnostic(d) << "\n";
        ccr_fatal("IR verification failed for module '", mod.name(),
                  "': ", diags.front().message);
    }
}

} // namespace ccr::ir
