/**
 * @file
 * ReferenceMachine: the original (pre-decoded-engine) interpreter,
 * kept verbatim as a semantic oracle. It walks (function, block,
 * index) frames and resolves code addresses through CodeLayout on
 * every step — slow, but structurally independent of the flat decoded
 * arrays the production Machine executes, so lockstep tests comparing
 * the two catch decode bugs (successor resolution, PC folding,
 * operand metadata) that a single-engine test cannot.
 *
 * Differences from Machine: no ReuseHandler or Observer hooks —
 * `reuse` always takes the miss path and `invalidate` is a no-op,
 * exactly like a Machine with no handler attached. Input preparation
 * for workloads writes into a Machine; use Memory::clone() to carry
 * the prepared image over (see tests/test_properties.cc).
 */

#ifndef CCR_EMU_REFERENCE_HH
#define CCR_EMU_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "emu/machine.hh"
#include "emu/memory.hh"
#include "ir/module.hh"
#include "obs/metrics.hh"

namespace ccr::emu
{

class ReferenceMachine
{
  public:
    explicit ReferenceMachine(const ir::Module &mod);

    void restart();
    StepKind step(ExecInfo &info_out);
    std::uint64_t run(std::uint64_t max_insts = UINT64_MAX);

    bool halted() const { return halted_; }
    std::uint64_t instCount() const { return instCount_; }

    ir::Value readReg(ir::Reg r) const { return top().regs[r]; }

    Memory &memory() { return mem_; }
    const Memory &memory() const { return mem_; }

    Addr globalAddr(ir::GlobalId g) const { return globalAddr_[g]; }

    /** The same event counters as Machine::metrics(). */
    obs::MetricRegistry &metrics() { return metrics_; }
    const obs::MetricRegistry &metrics() const { return metrics_; }

  private:
    struct Frame
    {
        ir::FuncId func = ir::kNoFunc;
        ir::BlockId block = ir::kNoBlock;
        std::size_t idx = 0;
        ir::Reg retDst = ir::kNoReg;
        ir::BlockId retBlock = ir::kNoBlock;
        std::vector<ir::Value> regs;
    };

    const ir::Module &mod_;
    CodeLayout layout_;
    Memory mem_;
    std::vector<Addr> globalAddr_;
    Addr heapNext_;

    std::vector<Frame> frames_;
    bool halted_ = false;
    std::uint64_t instCount_ = 0;

    obs::MetricRegistry metrics_;

    static constexpr Addr kGlobalBase = 0x10000;
    static constexpr Addr kHeapBase = 0x10000000;

    void layoutGlobals();
    Frame &top() { return frames_.back(); }
    const Frame &top() const { return frames_.back(); }
};

} // namespace ccr::emu

#endif // CCR_EMU_REFERENCE_HH
