/**
 * @file
 * The functional IR emulator ("Machine"). Executes a Module instruction
 * by instruction; the timing model and the profilers attach through the
 * Observer and ReuseHandler hooks, mirroring IMPACT's emulation-driven
 * simulation style.
 *
 * The fetch-execute loop runs over a pre-decoded flat instruction
 * array built at construction (see emu/decode.hh): successors are
 * pre-resolved indices, code addresses are folded into the decode, and
 * the no-observer / no-memoization case dispatches hooks behind a
 * single cached boolean.
 */

#ifndef CCR_EMU_MACHINE_HH
#define CCR_EMU_MACHINE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "emu/decode.hh"
#include "emu/memory.hh"
#include "ir/module.hh"
#include "obs/metrics.hh"
#include "support/smallvec.hh"

namespace ccr::emu
{

/** Everything an observer may want to know about one executed inst. */
struct ExecInfo
{
    const ir::Inst *inst = nullptr;
    ir::FuncId func = ir::kNoFunc;
    ir::BlockId block = ir::kNoBlock;

    /** Number of register sources read (inst->numRegSources(), carried
     *  pre-computed so observers avoid re-deriving it per step). */
    std::uint8_t numSrcRegs = 0;

    /** Values of regSource(0) / regSource(1) before execution. */
    std::array<ir::Value, 2> srcVals{};

    /** Call only: the argument values passed to the callee. Only the
     *  first inst->numArgs slots are written each step. */
    std::array<ir::Value, ir::kMaxCallArgs> argVals{};

    /** Value written to dst (when the instruction has one). */
    ir::Value result = 0;

    /** Effective address for Load/Store. */
    Addr memAddr = 0;

    /** Branch outcome for Br. */
    bool taken = false;

    /** Code address of this instruction (see CodeLayout). */
    Addr pc = 0;

    /** Code address of the next instruction to execute. */
    Addr nextPc = 0;
};

/** Kinds of step outcomes the timing model distinguishes. */
enum class StepKind : std::uint8_t
{
    Inst,       ///< ordinary instruction committed
    ReuseHit,   ///< reuse instruction found a valid CI and skipped code
    ReuseMiss,  ///< reuse instruction missed; memoization mode begins
    Halted      ///< program finished
};

/** Outcome of a CRB query, including what timing needs. Register
 *  lists are sized by the configured bank geometry (a CI bank holds
 *  up to 16 registers, and a summary set unions the input banks of
 *  all CIs in an entry, so either list can exceed any fixed cap). */
struct ReuseOutcome
{
    bool hit = false;

    /** The summary-set registers the validation step read (paper
     *  §3.3; for interlock modeling). */
    SmallVec<ir::Reg, 16> inputRegs;

    /** The live-out registers written on a hit (for wakeup
     *  modeling). */
    SmallVec<ir::Reg, 16> outputRegs;

    /** Memory addresses the query re-read to validate (schemes with
     *  SchemeTraits::validatesMemoryAtQuery; the timing model charges
     *  each probe as a data-cache access). Empty for the CRB, whose
     *  memory state is maintained by `invalidate` instructions. */
    SmallVec<Addr, 16> memProbes;

    /** Number of distinct input registers validation read. */
    int numInputsRead() const
    {
        return static_cast<int>(inputRegs.size());
    }

    /** Number of live-out registers written on a hit. */
    int numOutputsWritten() const
    {
        return static_cast<int>(outputRegs.size());
    }
};

class Machine;

/**
 * Hardware-side handler for the CCR ISA extension. The uarch layer's
 * CRB controller implements this; the machine routes `reuse`,
 * `invalidate`, and (while a region executes) every instruction to it.
 */
class ReuseHandler
{
  public:
    virtual ~ReuseHandler() = default;

    /** A `reuse` instruction executed. On a hit the handler must write
     *  the live-out registers through machine.writeReg(). */
    virtual ReuseOutcome onReuse(ir::RegionId region, Machine &machine)
        = 0;

    /** Every instruction executed while the handler is interested
     *  (memoization mode); the handler watches ext.regionEnd /
     *  ext.regionExit bits to finish recording. */
    virtual void observe(const ExecInfo &info) = 0;

    /** An `invalidate` instruction executed. @p store_addr /
     *  @p store_size describe the store that triggered it when the
     *  invalidate statically follows one in its block (store_size > 0);
     *  a size of 0 means the triggering store is unknown and the
     *  handler must invalidate unconditionally. Handlers holding range
     *  claims (ReuseScheme::setMemClaims) may skip the kill when the
     *  store provably misses every claimed range. */
    virtual void onInvalidate(ir::RegionId region, Addr store_addr,
                              unsigned store_size)
        = 0;

    /** True while memoization mode is active (machine forwards every
     *  instruction through observe() only in that case). */
    virtual bool memoActive() const = 0;
};

/** Passive profiling observer (value profiling, limit studies). */
class Observer
{
  public:
    virtual ~Observer() = default;
    virtual void onInst(const ExecInfo &info) = 0;
};

/**
 * Code-address layout: assigns a synthetic address to every static
 * instruction (functions laid out in id order, 4 bytes per
 * instruction). The timing model's I-cache and BTB key on these.
 */
class CodeLayout
{
  public:
    explicit CodeLayout(const ir::Module &mod);

    Addr funcBase(ir::FuncId f) const { return funcBase_[f]; }
    Addr blockBase(ir::FuncId f, ir::BlockId b) const;

    Addr
    instAddr(ir::FuncId f, ir::BlockId b, std::size_t idx) const
    {
        return blockBase(f, b) + 4 * idx;
    }

    static constexpr Addr kCodeBase = 0x1000;

  private:
    std::vector<Addr> funcBase_;
    std::vector<std::vector<Addr>> blockBase_; // [func][block]
};

/** Evaluate a binary ALU / compare opcode (shared by the pre-decoded
 *  engine and the reference interpreter). Division semantics are
 *  deterministic for pathological inputs: x/0 == 0, INT64_MIN/-1
 *  saturates. Panics on non-ALU opcodes. */
ir::Value evalAlu(ir::Opcode op, ir::Value a, ir::Value b);

/**
 * The machine: register frames, memory, and the fetch-execute loop.
 *
 * Globals are laid out at construction; input generators may then write
 * into them through global(Addr)/memory(). run() executes until Halt or
 * the instruction budget is exhausted.
 */
class Machine
{
  public:
    explicit Machine(const ir::Module &mod);

    /** Reset control state and registers (memory is preserved). */
    void restart();

    /** Reset everything including memory and re-lay-out globals. */
    void reset();

    /** Execute one instruction. @p info_out receives the details. */
    StepKind step(ExecInfo &info_out);

    /** Run to Halt or until @p max_insts committed. Returns committed
     *  instruction count. */
    std::uint64_t run(std::uint64_t max_insts = UINT64_MAX);

    bool halted() const { return halted_; }

    /** Dynamic instructions committed so far (reuse hit counts as 1). */
    std::uint64_t instCount() const { return instCount_; }

    // -- Hook installation -------------------------------------------

    void
    setReuseHandler(ReuseHandler *handler)
    {
        reuse_ = handler;
        updateHooked();
    }

    void
    addObserver(Observer *obs)
    {
        observers_.push_back(obs);
        updateHooked();
    }

    void
    clearObservers()
    {
        observers_.clear();
        updateHooked();
    }

    // -- State access -------------------------------------------------

    /** Register of the current (innermost) frame. */
    ir::Value readReg(ir::Reg r) const;
    void writeReg(ir::Reg r, ir::Value v);

    Memory &memory() { return mem_; }
    const Memory &memory() const { return mem_; }

    /** Base address assigned to global @p g. */
    Addr globalAddr(ir::GlobalId g) const { return globalAddr_[g]; }

    const ir::Module &module() const { return mod_; }
    const CodeLayout &layout() const { return layout_; }

    /** Event counters: "insts", "loads", "stores", "branches",
     *  "calls", "reuseHits", "reuseMisses", "invalidates". */
    obs::MetricRegistry &metrics() { return metrics_; }
    const obs::MetricRegistry &metrics() const { return metrics_; }

  private:
    struct Frame
    {
        const DecodedFunction *df = nullptr;
        std::uint32_t ip = 0;                ///< flat index into df->insts
        ir::Reg retDst = ir::kNoReg;         ///< caller register for result
        std::uint32_t retIp = 0;             ///< caller continuation index
        std::vector<ir::Value> regs;
    };

    const ir::Module &mod_;
    CodeLayout layout_;
    DecodedProgram prog_;
    Memory mem_;
    std::vector<Addr> globalAddr_;
    Addr heapNext_ = kHeapBase;

    std::vector<Frame> frames_;
    bool halted_ = false;
    std::uint64_t instCount_ = 0;

    /** Address/size of the last committed Store, handed to
     *  ReuseHandler::onInvalidate when the invalidate is statically
     *  tied to a store (DecodedInst::afterStore). Size 0 = none yet. */
    Addr lastStoreAddr_ = 0;
    unsigned lastStoreSize_ = 0;

    ReuseHandler *reuse_ = nullptr;
    std::vector<Observer *> observers_;

    /** True when any hook (handler or observer) is attached; the hot
     *  loop tests only this. */
    bool hooked_ = false;

    obs::MetricRegistry metrics_;

    // Hot-path counters cached out of the by-name map (references
    // stay valid across MetricRegistry::reset()).
    Counter &cInsts_;
    Counter &cLoads_;
    Counter &cStores_;
    Counter &cBranches_;
    Counter &cCalls_;
    Counter &cReuseHits_;
    Counter &cReuseMisses_;
    Counter &cInvalidates_;

    static constexpr Addr kGlobalBase = 0x10000;
    static constexpr Addr kHeapBase = 0x10000000;

    void layoutGlobals();
    void updateHooked() { hooked_ = reuse_ || !observers_.empty(); }
    Frame &top() { return frames_.back(); }
    const Frame &top() const { return frames_.back(); }
};

} // namespace ccr::emu

#endif // CCR_EMU_MACHINE_HH
