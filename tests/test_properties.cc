/**
 * @file
 * Randomized property tests. A small random-program generator
 * produces straight-line and branchy IR; the properties are
 * metamorphic: the classic optimizer, the reorder pass, and constant
 * folding must never change a program's observable output, and the
 * emulator's ALU must agree with host arithmetic on random operands.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "analysis/alias.hh"
#include "core/former.hh"
#include "core/reorder.hh"
#include "emu/machine.hh"
#include "emu/reference.hh"
#include "gen/gen.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "opt/passes.hh"
#include "reuse/factory.hh"
#include "uarch/crb.hh"
#include "workloads/corpus.hh"
#include "workloads/harness.hh"
#include "support/random.hh"

namespace ccr::reuse
{

/** Print the scheme by name in test names, not as a byte dump. */
void
PrintTo(SchemeKind kind, std::ostream *os)
{
    *os << schemeKindName(kind);
}

} // namespace ccr::reuse

namespace
{

using namespace ccr;
using namespace ccr::ir;

/** ALU opcodes safe for random operand streams. */
const Opcode kAluOps[] = {
    Opcode::Add,   Opcode::Sub,   Opcode::Mul,  Opcode::Div,
    Opcode::Rem,   Opcode::And,   Opcode::Or,   Opcode::Xor,
    Opcode::Shl,   Opcode::Shr,   Opcode::Sra,  Opcode::CmpEq,
    Opcode::CmpNe, Opcode::CmpLt, Opcode::CmpLe, Opcode::CmpGt,
    Opcode::CmpGe, Opcode::CmpLtU, Opcode::CmpGeU,
};

/**
 * Generate a random module: a few globals, a chain of blocks with
 * random ALU ops, loads, stores, and diamonds, folding everything into
 * the "out" global. Deterministic per seed.
 */
Module
randomModule(std::uint64_t seed, int blocks, int insts_per_block)
{
    Rng rng(seed);
    Module m("rand" + std::to_string(seed));
    const GlobalId out = m.addGlobal("out", 8).id;
    const GlobalId scratch = m.addGlobal("scratch", 32 * 8).id;

    Function &f = m.addFunction("main", 0);
    IRBuilder b(f);

    std::vector<BlockId> chain;
    for (int i = 0; i < blocks; ++i)
        chain.push_back(b.newBlock());
    const BlockId exit = b.newBlock();
    f.setEntry(chain.front());

    // A pool of live registers the generator draws operands from.
    std::vector<Reg> pool;
    const Reg acc = b.reg();

    b.setInsertPoint(chain.front());
    b.movITo(acc, 1);
    for (int i = 0; i < 4; ++i)
        pool.push_back(b.movI(rng.nextRange(-1000, 1000)));

    for (int bi = 0; bi < blocks; ++bi) {
        b.setInsertPoint(chain[static_cast<std::size_t>(bi)]);
        if (bi > 0) {
            // Fresh constants keep the pool alive across merges.
            pool.push_back(b.movI(rng.nextRange(-50, 50)));
        }
        for (int k = 0; k < insts_per_block; ++k) {
            const auto pick = [&] {
                return pool[rng.nextBelow(pool.size())];
            };
            switch (rng.nextBelow(8)) {
              case 0: { // store to scratch
                const Reg base = b.movGA(scratch);
                const Reg idx =
                    b.andI(pick(), 31);
                b.store(b.add(base, b.shlI(idx, 3)), 0, pick());
                break;
              }
              case 1: { // load from scratch
                const Reg base = b.movGA(scratch);
                const Reg idx = b.andI(pick(), 31);
                pool.push_back(
                    b.load(b.add(base, b.shlI(idx, 3)), 0));
                break;
              }
              default: { // random ALU op
                const Opcode op = kAluOps[rng.nextBelow(
                    sizeof(kAluOps) / sizeof(kAluOps[0]))];
                if (rng.nextBool(0.4)) {
                    pool.push_back(
                        b.binOpI(op, pick(), rng.nextRange(-9, 9)));
                } else {
                    pool.push_back(b.binOp(op, pick(), pick()));
                }
                break;
              }
            }
            if (pool.size() > 24)
                pool.erase(pool.begin());
        }
        // Fold the newest value into the accumulator.
        b.binOpTo(acc, Opcode::Add, acc, pool.back());

        const BlockId next =
            bi + 1 < blocks ? chain[static_cast<std::size_t>(bi + 1)]
                            : exit;
        if (rng.nextBool(0.5) && bi + 2 < blocks) {
            // Diamond: branch on a random value, both arms add a
            // different constant, rejoin at the next block.
            const BlockId arm_a = b.newBlock();
            const BlockId arm_b = b.newBlock();
            const Reg cond = b.andI(pool.back(), 1);
            b.br(cond, arm_a, arm_b);
            b.setInsertPoint(arm_a);
            b.binOpITo(acc, Opcode::Add, acc, 3);
            b.jump(next);
            b.setInsertPoint(arm_b);
            b.binOpITo(acc, Opcode::Xor, acc, 5);
            b.jump(next);
        } else {
            b.jump(next);
        }
    }

    b.setInsertPoint(exit);
    b.store(b.movGA(out), 0, acc);
    b.halt();
    return m;
}

std::int64_t
runOut(Module &m)
{
    emu::Machine machine(m);
    machine.run(2'000'000);
    EXPECT_TRUE(machine.halted());
    return machine.memory().read(
        machine.globalAddr(m.findGlobal("out")->id), MemSize::Dword,
        false);
}

class RandomPrograms : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RandomPrograms, GeneratedModuleVerifies)
{
    Module m = randomModule(GetParam(), 6, 12);
    EXPECT_TRUE(verifyModule(m).empty());
}

TEST_P(RandomPrograms, OptimizerPreservesOutput)
{
    Module plain = randomModule(GetParam(), 6, 12);
    const auto expect = runOut(plain);

    Module optimized = randomModule(GetParam(), 6, 12);
    opt::runStandardPipeline(optimized);
    EXPECT_TRUE(verifyModule(optimized).empty());
    EXPECT_EQ(runOut(optimized), expect);
}

TEST_P(RandomPrograms, ReorderPreservesOutput)
{
    Module plain = randomModule(GetParam(), 6, 12);
    const auto expect = runOut(plain);

    Module shuffled = randomModule(GetParam(), 6, 12);
    Function &f = *shuffled.findFunction("main");
    Rng rng(GetParam() ^ 0xdead);
    for (auto &bb : f.blocks()) {
        // A random eligibility predicate stresses dependence handling.
        core::clusterReorder(f, bb.id(), [&](const Inst &inst) {
            return !inst.isControlInst() && (inst.uid % 3) != 0;
        });
    }
    EXPECT_TRUE(verifyModule(shuffled).empty());
    EXPECT_EQ(runOut(shuffled), expect);
}

TEST_P(RandomPrograms, ConstFoldPreservesOutput)
{
    Module plain = randomModule(GetParam(), 4, 16);
    const auto expect = runOut(plain);

    Module folded = randomModule(GetParam(), 4, 16);
    Function &f = *folded.findFunction("main");
    opt::foldConstants(f);
    opt::eliminateCommonSubexpressions(f);
    EXPECT_TRUE(verifyModule(folded).empty());
    EXPECT_EQ(runOut(folded), expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89, 144, 233));

/** Emulator ALU vs host arithmetic on random operands. */
TEST(AluProperty, MatchesHostOnRandomOperands)
{
    Rng rng(0xA1B2);
    for (int trial = 0; trial < 200; ++trial) {
        const auto a = static_cast<std::int64_t>(rng.next());
        const auto c = static_cast<std::int64_t>(
            rng.nextBool(0.2) ? rng.nextBelow(4) : rng.next());
        const Opcode op = kAluOps[rng.nextBelow(
            sizeof(kAluOps) / sizeof(kAluOps[0]))];

        Module m("t");
        const GlobalId out = m.addGlobal("out", 8).id;
        Function &f = m.addFunction("main", 0);
        IRBuilder b(f);
        b.setInsertPoint(b.newBlock());
        const Reg r = b.binOp(op, b.movI(a), b.movI(c));
        b.store(b.movGA(out), 0, r);
        b.halt();

        // Reference semantics (mirrors the documented ALU contract).
        const auto ua = static_cast<std::uint64_t>(a);
        const auto uc = static_cast<std::uint64_t>(c);
        std::int64_t expect = 0;
        switch (op) {
          case Opcode::Add: expect = a + c; break;
          case Opcode::Sub: expect = a - c; break;
          case Opcode::Mul:
            expect = static_cast<std::int64_t>(ua * uc);
            break;
          case Opcode::Div:
            expect = c == 0 ? 0
                            : (a == INT64_MIN && c == -1 ? INT64_MIN
                                                         : a / c);
            break;
          case Opcode::Rem:
            expect =
                c == 0 ? 0 : (a == INT64_MIN && c == -1 ? 0 : a % c);
            break;
          case Opcode::And: expect = a & c; break;
          case Opcode::Or: expect = a | c; break;
          case Opcode::Xor: expect = a ^ c; break;
          case Opcode::Shl:
            expect = static_cast<std::int64_t>(ua << (uc & 63));
            break;
          case Opcode::Shr:
            expect = static_cast<std::int64_t>(ua >> (uc & 63));
            break;
          case Opcode::Sra: expect = a >> (uc & 63); break;
          case Opcode::CmpEq: expect = a == c; break;
          case Opcode::CmpNe: expect = a != c; break;
          case Opcode::CmpLt: expect = a < c; break;
          case Opcode::CmpLe: expect = a <= c; break;
          case Opcode::CmpGt: expect = a > c; break;
          case Opcode::CmpGe: expect = a >= c; break;
          case Opcode::CmpLtU: expect = ua < uc; break;
          case Opcode::CmpGeU: expect = ua >= uc; break;
          default: FAIL();
        }
        EXPECT_EQ(runOut(m), expect)
            << opcodeName(op) << " " << a << ", " << c;
    }
}

/** CRB geometry property: correctness for any geometry, monotone-ish
 *  hit counts in capacity. */
class CrbGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(CrbGeometry, WorkloadStaysCorrect)
{
    const auto [entries, instances, assoc] = GetParam();
    workloads::RunConfig cfg;
    cfg.crb.entries = entries;
    cfg.crb.instances = instances;
    cfg.crb.assoc = assoc;
    const auto r = workloads::runCcrExperiment("li", cfg);
    EXPECT_TRUE(r.outputsMatch);
    EXPECT_LE(r.report.metric("crb.hits"), r.report.metric("crb.queries"));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CrbGeometry,
    ::testing::Combine(::testing::Values(4, 32, 128),
                       ::testing::Values(1, 4, 16),
                       ::testing::Values(1, 2)));

// ---------------------------------------------------------------------
// CRB vs naive reference model: random op sequences (lookup/record,
// invalidate) against a map-based model that re-specifies the
// direct-mapped indexing, per-entry re-tag eviction, instance LRU
// replacement, use-before-def input capture, and memory-invalidation
// semantics. Run under the geometries the experiment driver sweeps
// (32/64/128 entries x 4/8/16 CIs) plus tiny geometries that force
// conflict evictions and LRU churn.
// ---------------------------------------------------------------------

/** Module whose main frame provides registers for CRB queries. */
std::unique_ptr<Module>
crbTestModule()
{
    auto m = std::make_unique<Module>("crbprop");
    Function &f = m->addFunction("main", 0);
    IRBuilder b(f);
    b.setInsertPoint(b.newBlock());
    for (int i = 0; i < 16; ++i)
        b.movI(i);
    b.halt();
    return m;
}

/** Naive reference model of the CRB's architectural behavior. */
class RefCrb
{
  public:
    struct Ci
    {
        bool valid = false;
        bool accessesMemory = false;
        bool memValid = true;
        std::uint64_t stamp = 0;
        // Insertion-ordered input bank: (reg, value at first read).
        std::vector<std::pair<Reg, Value>> inputs;
        // Insertion-ordered output bank: (reg, last recorded value).
        std::vector<std::pair<Reg, Value>> outputs;
    };

    struct Entry
    {
        bool valid = false;
        RegionId tag = kNoRegion;
        std::vector<Ci> instances;
    };

    RefCrb(int entries, int instances, int bank_size)
        : entries_(entries), instances_(instances), bankSize_(bank_size)
    {}

    /** Query result: outputs to apply on a hit, nullopt on a miss. */
    std::optional<std::vector<std::pair<Reg, Value>>>
    lookup(RegionId region, const std::map<Reg, Value> &regs)
    {
        if (memoActive_) {
            memoActive_ = false; // nested reuse aborts the recording
            ++aborts_;
        }
        ++queries_;
        Entry &e = entryFor(region);

        for (auto &ci : e.instances) {
            if (!ci.valid)
                continue;
            if (ci.accessesMemory && !ci.memValid)
                continue;
            bool match = true;
            for (const auto &[reg, value] : ci.inputs) {
                if (regs.at(reg) != value) {
                    match = false;
                    break;
                }
            }
            if (!match)
                continue;
            ci.stamp = ++stamp_;
            ++hits_;
            return ci.outputs;
        }

        // Miss: pick the LRU instance now; the recording commits into
        // it even if flags change in between.
        ++misses_;
        std::size_t lru = 0;
        std::uint64_t lru_stamp = UINT64_MAX;
        for (std::size_t i = 0; i < e.instances.size(); ++i) {
            const auto s =
                e.instances[i].valid ? e.instances[i].stamp : 0;
            if (s < lru_stamp) {
                lru_stamp = s;
                lru = i;
            }
        }
        memoActive_ = true;
        memoRegion_ = region;
        memoEntry_ = static_cast<std::size_t>(
            region % static_cast<RegionId>(entries_));
        memoVictim_ = lru;
        memoScratch_ = Ci{};
        memoDefined_.clear();
        return std::nullopt;
    }

    /** One recorded body instruction (mirrors ExecInfo fields). */
    void
    observe(const std::vector<std::pair<Reg, Value>> &reads, Reg dst,
            Value result, bool live_out, bool is_load)
    {
        if (!memoActive_)
            return;
        Ci &ci = memoScratch_;
        for (const auto &[reg, value] : reads) {
            if (memoDefined_.count(reg))
                continue;
            bool present = false;
            for (const auto &in : ci.inputs)
                present = present || in.first == reg;
            if (present)
                continue;
            if (static_cast<int>(ci.inputs.size()) >= bankSize_) {
                memoActive_ = false;
                ++aborts_;
                return;
            }
            ci.inputs.emplace_back(reg, value);
        }
        if (is_load)
            ci.accessesMemory = true;
        if (dst != kNoReg) {
            memoDefined_.insert(dst);
            if (live_out) {
                bool updated = false;
                for (auto &[r, v] : ci.outputs) {
                    if (r == dst) {
                        v = result;
                        updated = true;
                        break;
                    }
                }
                if (!updated) {
                    if (static_cast<int>(ci.outputs.size())
                        >= bankSize_) {
                        memoActive_ = false;
                        ++aborts_;
                        return;
                    }
                    ci.outputs.emplace_back(dst, result);
                }
            }
        }
    }

    /** Region-end control instruction: commit the recording. */
    void
    regionEnd()
    {
        if (!memoActive_)
            return;
        Entry &e = entries__[memoEntry_];
        if (e.valid && e.tag == memoRegion_) {
            memoScratch_.valid = true;
            memoScratch_.memValid = true;
            memoScratch_.stamp = ++stamp_;
            e.instances[memoVictim_] = memoScratch_;
            ++commits_;
        }
        memoActive_ = false;
    }

    /** Region-exit control instruction: drop the recording. */
    void
    regionExit()
    {
        if (!memoActive_)
            return;
        memoActive_ = false;
        ++aborts_;
    }

    void
    invalidate(RegionId region)
    {
        ++invalidates_;
        const auto idx = static_cast<std::size_t>(
            region % static_cast<RegionId>(entries_));
        const auto it = entries__.find(idx);
        if (it != entries__.end() && it->second.valid
            && it->second.tag == region) {
            for (auto &ci : it->second.instances) {
                if (ci.valid && ci.accessesMemory)
                    ci.memValid = false;
            }
        }
        if (memoActive_ && memoRegion_ == region) {
            memoActive_ = false;
            ++aborts_;
        }
    }

    bool memoActive() const { return memoActive_; }

    std::uint64_t queries() const { return queries_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t commits() const { return commits_; }
    std::uint64_t aborts() const { return aborts_; }
    std::uint64_t invalidates() const { return invalidates_; }

  private:
    Entry &
    entryFor(RegionId region)
    {
        const auto idx = static_cast<std::size_t>(
            region % static_cast<RegionId>(entries_));
        Entry &e = entries__[idx];
        if (e.instances.empty())
            e.instances.resize(static_cast<std::size_t>(instances_));
        if (!(e.valid && e.tag == region)) {
            // Re-tag: every instance of the previous tenant is lost.
            e.valid = true;
            e.tag = region;
            for (auto &ci : e.instances)
                ci = Ci{};
        }
        return e;
    }

    int entries_;
    int instances_;
    int bankSize_;
    std::map<std::size_t, Entry> entries__;
    std::uint64_t stamp_ = 0;

    bool memoActive_ = false;
    RegionId memoRegion_ = kNoRegion;
    std::size_t memoEntry_ = 0;
    std::size_t memoVictim_ = 0;
    Ci memoScratch_;
    std::set<Reg> memoDefined_;

    std::uint64_t queries_ = 0, hits_ = 0, misses_ = 0;
    std::uint64_t commits_ = 0, aborts_ = 0, invalidates_ = 0;
};

class CrbReferenceModel
    : public ::testing::TestWithParam<
          std::tuple<int, int, std::uint64_t>>
{};

TEST_P(CrbReferenceModel, RandomOpsMatchNaiveModel)
{
    const auto [entries, instances, seed] = GetParam();
    Rng rng(seed);

    const auto mod = crbTestModule();
    emu::Machine machine(*mod);
    uarch::CrbParams params;
    params.entries = entries;
    params.instances = instances;
    const auto crb_owner = uarch::makeCrbScheme(params);
    reuse::ReuseScheme &crb = *crb_owner;
    RefCrb ref(entries, instances, params.bankSize);

    // Shadow register file: the model's view of machine state. All
    // writes go through here so a divergent hit shows up as a shadow
    // vs machine mismatch.
    constexpr int kRegs = 8;
    std::map<Reg, Value> shadow;
    for (Reg r = 0; r < kRegs; ++r) {
        machine.writeReg(r, 0);
        shadow[r] = 0;
    }

    const auto setReg = [&](Reg r, Value v) {
        machine.writeReg(r, v);
        shadow[r] = v;
    };

    // Simulate executing one region body instruction on both sides:
    // feed the CRB the ExecInfo an Add would produce, mirror it into
    // the model, and commit the result to the register file.
    ir::Inst body;
    const auto execBody = [&](Reg dst, Reg src1, Reg src2,
                              bool live_out, bool is_load) {
        body = ir::Inst{};
        body.op = is_load ? Opcode::Load : Opcode::Add;
        body.dst = dst;
        body.src1 = src1;
        body.src2 = src2;
        body.ext.liveOut = live_out;
        emu::ExecInfo info;
        info.inst = &body;
        info.numSrcRegs = static_cast<std::uint8_t>(is_load ? 1 : 2);
        info.srcVals[0] = machine.readReg(src1);
        std::vector<std::pair<Reg, Value>> reads{
            {src1, machine.readReg(src1)}};
        if (!is_load) {
            info.srcVals[1] = machine.readReg(src2);
            reads.emplace_back(src2, machine.readReg(src2));
        }
        const Value result =
            is_load ? (info.srcVals[0] * 3 + 7) & 0xfff
                    : (info.srcVals[0] + info.srcVals[1]) & 0xfff;
        info.result = result;
        crb.observe(info);
        ref.observe(reads, dst, result, live_out, is_load);
        setReg(dst, result);
    };

    const auto endRegion = [&](bool exit_abort) {
        body = ir::Inst{};
        body.op = Opcode::Jump;
        body.target = 0;
        if (exit_abort)
            body.ext.regionExit = true;
        else
            body.ext.regionEnd = true;
        emu::ExecInfo info;
        info.inst = &body;
        crb.observe(info);
        if (exit_abort)
            ref.regionExit();
        else
            ref.regionEnd();
    };

    const int kRegions = 8;
    for (int op = 0; op < 600; ++op) {
        const auto kind = rng.nextBelow(10);
        if (kind < 7) {
            // Lookup (and usually record on a miss).
            if (rng.nextBool(0.5)) {
                // Perturb registers from a small pool so inputs recur.
                const Reg r = static_cast<Reg>(rng.nextBelow(kRegs));
                setReg(r, static_cast<Value>(rng.nextBelow(4)));
            }
            const auto region =
                static_cast<RegionId>(rng.nextBelow(kRegions));
            const auto expect = ref.lookup(region, shadow);
            const auto outcome = crb.onReuse(region, machine);
            ASSERT_EQ(outcome.hit, expect.has_value())
                << "op " << op << " region " << region;
            if (expect) {
                // The hit wrote the recorded live-outs; mirror into
                // the shadow file and compare the whole register file.
                ASSERT_EQ(outcome.numOutputsWritten(),
                          static_cast<int>(expect->size()));
                for (const auto &[reg, value] : *expect)
                    shadow[reg] = value;
                for (Reg r = 0; r < kRegs; ++r) {
                    ASSERT_EQ(machine.readReg(r), shadow[r])
                        << "op " << op << " reg " << static_cast<int>(r);
                }
            } else if (rng.nextBool(0.8)) {
                // Record a short body, occasionally aborting via a
                // region-exit branch.
                const int len = 1 + static_cast<int>(rng.nextBelow(3));
                for (int i = 0; i < len; ++i) {
                    const Reg dst =
                        static_cast<Reg>(rng.nextBelow(kRegs));
                    const Reg s1 =
                        static_cast<Reg>(rng.nextBelow(kRegs));
                    const Reg s2 =
                        static_cast<Reg>(rng.nextBelow(kRegs));
                    execBody(dst, s1, s2, rng.nextBool(0.7),
                             rng.nextBool(0.25));
                    if (rng.nextBool(0.1)) {
                        // Stores elsewhere invalidate mid-recording.
                        const auto other = static_cast<RegionId>(
                            rng.nextBelow(kRegions));
                        ref.invalidate(other);
                        crb.onInvalidate(other, 0, 0);
                        if (!ref.memoActive())
                            break;
                    }
                }
                if (ref.memoActive())
                    endRegion(rng.nextBool(0.15));
            }
            // Otherwise leave memoization dangling: the next query
            // must abort it on both sides.
        } else {
            const auto region =
                static_cast<RegionId>(rng.nextBelow(kRegions));
            ref.invalidate(region);
            crb.onInvalidate(region, 0, 0);
        }
        ASSERT_EQ(crb.memoActive(), ref.memoActive()) << "op " << op;
    }

    // Aggregate behavior must agree exactly.
    EXPECT_EQ(crb.metrics().get("crb.queries"), ref.queries());
    EXPECT_EQ(crb.metrics().get("crb.hits"), ref.hits());
    EXPECT_EQ(crb.metrics().get("crb.misses"), ref.misses());
    EXPECT_EQ(crb.metrics().get("crb.invalidates"), ref.invalidates());
    EXPECT_EQ(crb.metrics().get("crb.memoCommits"), ref.commits());
    EXPECT_EQ(crb.metrics().get("crb.memoAborts"), ref.aborts());
    EXPECT_GT(ref.hits(), 0u);
    EXPECT_GT(ref.commits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CrbReferenceModel,
    ::testing::Combine(::testing::Values(2, 4, 32, 64, 128),
                       ::testing::Values(1, 4, 8, 16),
                       ::testing::Values(0xC0FFEEULL, 0xBEEF01ULL,
                                         0x5EED02ULL)));

// ---------------------------------------------------------------------
// Lockstep equivalence: pre-decoded engine vs reference interpreter.
// ---------------------------------------------------------------------

/**
 * Step @p machine and @p ref together, comparing the full ExecInfo
 * stream (pcs, operand values, results, memory addresses, branch
 * outcomes, call arguments). Stops at halt or after @p budget
 * instructions. Fails the current test on the first divergence.
 */
void
runLockstep(emu::Machine &machine, emu::ReferenceMachine &ref,
            std::uint64_t budget)
{
    emu::ExecInfo a, b;
    for (std::uint64_t n = 0; n < budget; ++n) {
        const auto ka = machine.step(a);
        const auto kb = ref.step(b);
        // Fast path: compare quietly, report loudly on divergence.
        const bool same =
            ka == kb && a.inst == b.inst && a.func == b.func
            && a.block == b.block && a.numSrcRegs == b.numSrcRegs
            && a.srcVals == b.srcVals && a.result == b.result
            && a.memAddr == b.memAddr && a.taken == b.taken
            && a.pc == b.pc && a.nextPc == b.nextPc;
        if (!same) {
            ASSERT_EQ(static_cast<int>(ka), static_cast<int>(kb))
                << "step kind diverged at inst " << n;
            ASSERT_EQ(a.pc, b.pc) << "pc diverged at inst " << n;
            ASSERT_EQ(a.nextPc, b.nextPc)
                << "nextPc diverged at inst " << n;
            ASSERT_EQ(a.result, b.result)
                << "result diverged at inst " << n << " pc=" << a.pc;
            ADD_FAILURE() << "ExecInfo diverged at inst " << n
                          << " pc=" << a.pc;
            return;
        }
        if (ka == emu::StepKind::Halted)
            break;
        if (a.inst->op == Opcode::Call) {
            for (int k = 0; k < a.inst->numArgs; ++k) {
                ASSERT_EQ(a.argVals[static_cast<std::size_t>(k)],
                          b.argVals[static_cast<std::size_t>(k)])
                    << "call arg " << k << " diverged at inst " << n;
            }
        }
    }
}

TEST(LockstepEquivalence, EveryWorkloadMatchesReferenceInterpreter)
{
    // Every builtin + corpus workload, run on both engines from the
    // same prepared memory image. The decoded engine must produce an
    // identical ExecInfo stream, instruction count, final stats, and
    // final memory contents.
    constexpr std::uint64_t kBudget = 2'000'000;
    for (const auto &name : workloads::allWorkloadNames()) {
        SCOPED_TRACE(name);
        const auto w = workloads::buildWorkload(name);

        emu::Machine machine(*w.module);
        w.prepare(machine, workloads::InputSet::Train);
        emu::ReferenceMachine ref(*w.module);
        ref.memory() = machine.memory().clone();

        runLockstep(machine, ref, kBudget);
        if (::testing::Test::HasFatalFailure())
            return;

        EXPECT_EQ(machine.halted(), ref.halted());
        EXPECT_EQ(machine.instCount(), ref.instCount());
        EXPECT_EQ(machine.memory().contentHash(),
                  ref.memory().contentHash());
        for (const auto *key :
             {"insts", "loads", "stores", "branches", "calls",
              "reuseMisses", "invalidates"}) {
            EXPECT_EQ(machine.metrics().get(key), ref.metrics().get(key))
                << key;
        }
    }
}

// ---------------------------------------------------------------------
// Scheme-generic properties, parameterized over every real
// ReuseScheme: the formed module run under the scheme must preserve
// the base run's outputs and full memory image, the scheme must be
// deterministic (two independent instances stay in per-instruction
// lockstep), and its counter algebra must balance.
// ---------------------------------------------------------------------

class SchemeProperties
    : public ::testing::TestWithParam<
          std::tuple<reuse::SchemeKind, std::string>>
{};

TEST_P(SchemeProperties, FormedWorkloadMatchesBaseUnderScheme)
{
    const auto [kind, name] = GetParam();

    // Base: the untransformed module on the ref input.
    const auto base = workloads::buildWorkload(name);
    emu::Machine bm(*base.module);
    base.prepare(bm, workloads::InputSet::Ref);
    bm.run();
    const auto expect = workloads::readOutputs(bm, base);
    const auto expectHash = bm.memory().contentHash();

    // CCR: profile-led formation, then run under the scheme — twice,
    // with independent scheme instances, in per-instruction lockstep.
    auto ccrw = workloads::buildWorkload(name);
    const auto prof =
        workloads::profileWorkload(ccrw, workloads::InputSet::Train);
    analysis::AliasAnalysis alias(*ccrw.module);
    alias.annotateDeterminableLoads(*ccrw.module);
    core::RegionFormer former(*ccrw.module, prof, alias, {});
    former.formAll();

    reuse::SchemeConfig sc;
    sc.kind = kind;
    const auto scheme = reuse::makeScheme(sc);
    const auto scheme2 = reuse::makeScheme(sc);
    ASSERT_NE(scheme, nullptr);

    emu::Machine tm(*ccrw.module);
    ccrw.prepare(tm, workloads::InputSet::Ref);
    tm.setReuseHandler(scheme.get());
    emu::Machine tm2(*ccrw.module);
    ccrw.prepare(tm2, workloads::InputSet::Ref);
    tm2.setReuseHandler(scheme2.get());

    emu::ExecInfo a, b;
    for (std::uint64_t n = 0;; ++n) {
        const auto ka = tm.step(a);
        const auto kb = tm2.step(b);
        ASSERT_EQ(static_cast<int>(ka), static_cast<int>(kb))
            << "scheme nondeterminism: step kind diverged at inst "
            << n;
        ASSERT_EQ(a.pc, b.pc)
            << "scheme nondeterminism: pc diverged at inst " << n;
        ASSERT_EQ(a.result, b.result)
            << "scheme nondeterminism: result diverged at inst " << n;
        if (ka == emu::StepKind::Halted)
            break;
    }

    EXPECT_TRUE(tm.halted());
    EXPECT_EQ(workloads::readOutputs(tm, ccrw), expect);
    EXPECT_EQ(tm.memory().contentHash(), expectHash);
    EXPECT_EQ(tm2.memory().contentHash(), expectHash);

    // Counter algebra: hits + misses == queries, agreement with the
    // machine's own event counts, and per-region attribution that
    // sums back to the totals.
    const std::string prefix = scheme->name();
    const auto &m = scheme->metrics();
    const auto queries = m.get(prefix + ".queries");
    const auto hits = m.get(prefix + ".hits");
    const auto misses = m.get(prefix + ".misses");
    EXPECT_EQ(hits + misses, queries);
    EXPECT_EQ(tm.metrics().get("reuseHits"), hits);
    EXPECT_EQ(tm.metrics().get("reuseMisses"), misses);
    std::uint64_t hitSum = 0, querySum = 0;
    for (const auto &[id, n] : scheme->hitsByRegion())
        hitSum += n;
    for (const auto &[id, n] : scheme->queriesByRegion())
        querySum += n;
    EXPECT_EQ(hitSum, hits);
    EXPECT_EQ(querySum, queries);
    // Both instances saw the same event stream.
    EXPECT_EQ(scheme2->metrics().get(prefix + ".hits"), hits);
    EXPECT_EQ(scheme2->metrics().get(prefix + ".queries"), queries);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeProperties,
    ::testing::Combine(::testing::Values(reuse::SchemeKind::Crb,
                                         reuse::SchemeKind::Dtm),
                       ::testing::Values("compress", "li", "espresso",
                                         "mpeg2enc")),
    [](const ::testing::TestParamInfo<SchemeProperties::ParamType>
           &info) {
        return std::string(
                   reuse::schemeKindName(std::get<0>(info.param)))
               + "_" + std::get<1>(info.param);
    });

// ---------------------------------------------------------------------
// Invalidate-heavy kernels under every scheme, with range claims
// registered. Two kernels: one from the generative engine with the
// aliasing density forced to 1 (every helper stores into the shared
// array, so invalidations are constant traffic), and one hand-written
// whose driver loop stores into the claimed structure every iteration
// — mostly outside the claimed byte range through an address the
// static analysis cannot fully bound (the invalidate is placed but
// must be skipped dynamically), and every 64th iteration inside it
// (the invalidate must kill). Both schemes must stay in lockstep,
// reproduce the base run's outputs and memory image exactly, and keep
// the counter algebra balanced.
// ---------------------------------------------------------------------

const char kRangedInvalidateSource[] = R"lc(;! workload invheavy_ranged
;! output out
;! fill train keys zipf seed=901 n=1600 distinct=10 theta=1.3 max=255
;! set train n_items 1600

module "invheavy_ranged"
entry @"main"
global @"keys" [32768 bytes]
global @"tbl" [16384 bytes]
global @"n_items" [8 bytes]
global @"out" [8 bytes]

func @"kern"(1 params, 8 regs) entry=B0
  B0:
    movga r1, @"tbl"
    and r2, r0, 15
    shl r3, r2, 3
    add r4, r1, r3
    load8 r5, [r4 + 0]
    mul r6, r0, 3
    add r6, r6, r5
    xor r7, r6, r0
    ret r7

func @"main"(0 params, 16 regs) entry=B0
  B0:
    movga r0, @"n_items"
    load8 r1, [r0 + 0]
    movga r2, @"keys"
    movga r14, @"tbl"
    movi r3, 0
    movi r4, 0
    jump B1
  B1:
    cmplt r5, r3, r1
    br r5, B2, B6
  B2:
    shl r6, r3, 3
    add r7, r2, r6
    load8 r8, [r7 + 0]
    call r9, @"kern"(r8) -> B3
  B3:
    add r4, r4, r9
    rem r10, r3, 1024
    shl r10, r10, 3
    add r10, r14, r10
    store8 [r10 + 8192], r4
    and r11, r3, 63
    br r11, B5, B4
  B4:
    and r12, r3, 15
    shl r12, r12, 3
    add r12, r14, r12
    store8 [r12 + 0], r4
    jump B5
  B5:
    add r3, r3, 1
    jump B1
  B6:
    movga r13, @"out"
    store8 [r13 + 0], r4
    halt
)lc";

void
runInvalidateHeavyProperty(reuse::SchemeKind kind,
                           const std::string &source,
                           const std::string &display,
                           bool expect_range_skips)
{
    SCOPED_TRACE(display);
    std::vector<std::string> errors;
    const auto base =
        workloads::buildWorkloadFromText(source, display, errors);
    ASSERT_TRUE(base.has_value())
        << (errors.empty() ? "?" : errors.front());

    emu::Machine bm(*base->module);
    base->prepare(bm, workloads::InputSet::Train);
    bm.run();
    ASSERT_TRUE(bm.halted());
    const auto expect = workloads::readOutputs(bm, *base);
    const auto expectHash = bm.memory().contentHash();

    // Fresh build for the formed run — the former rewrites in place.
    errors.clear();
    auto ccrw =
        workloads::buildWorkloadFromText(source, display, errors);
    ASSERT_TRUE(ccrw.has_value());
    const auto prof =
        workloads::profileWorkload(*ccrw, workloads::InputSet::Train);
    analysis::AliasAnalysis alias(*ccrw->module);
    alias.annotateDeterminableLoads(*ccrw->module);
    core::ReusePolicy policy;
    policy.enableFunctionLevel = true;
    core::RegionFormer former(*ccrw->module, prof, alias, policy);
    const auto regions = former.formAll();
    ASSERT_FALSE(regions.regions().empty());

    reuse::SchemeConfig sc;
    sc.kind = kind;
    const auto scheme = reuse::makeScheme(sc);
    const auto scheme2 = reuse::makeScheme(sc);
    ASSERT_NE(scheme, nullptr);

    emu::Machine tm(*ccrw->module);
    ccrw->prepare(tm, workloads::InputSet::Train);
    emu::Machine tm2(*ccrw->module);
    ccrw->prepare(tm2, workloads::InputSet::Train);
    tm.setReuseHandler(scheme.get());
    tm2.setReuseHandler(scheme2.get());

    // Resolve the former's per-global range claims to absolute spans,
    // exactly as the harness does before a timed run. Both machines
    // share a module, hence a data layout, hence one claim set.
    for (const auto &region : regions.regions()) {
        if (region.memStructs.empty())
            continue;
        std::vector<reuse::MemClaim> claims;
        for (std::size_t i = 0; i < region.memStructs.size(); ++i) {
            const ir::GlobalId g = region.memStructs[i];
            const emu::Addr gbase = tm.globalAddr(g);
            const std::uint64_t size =
                ccrw->module->global(g).sizeBytes;
            const core::MemRange mr = region.memRange(i);
            reuse::MemClaim c;
            if (mr.whole) {
                c.lo = gbase;
                c.hi = gbase + (size != 0 ? size - 1 : 0);
            } else {
                c.lo = gbase + mr.lo;
                c.hi = gbase + mr.hi;
            }
            claims.push_back(c);
        }
        scheme->setMemClaims(region.id, claims);
        scheme2->setMemClaims(region.id, std::move(claims));
    }

    emu::ExecInfo a, b;
    for (std::uint64_t n = 0; n < 20'000'000ULL; ++n) {
        const auto ka = tm.step(a);
        const auto kb = tm2.step(b);
        ASSERT_EQ(static_cast<int>(ka), static_cast<int>(kb))
            << "scheme nondeterminism: step kind diverged at inst "
            << n;
        ASSERT_EQ(a.pc, b.pc)
            << "scheme nondeterminism: pc diverged at inst " << n;
        ASSERT_EQ(a.result, b.result)
            << "scheme nondeterminism: result diverged at inst " << n;
        if (ka == emu::StepKind::Halted)
            break;
    }
    ASSERT_TRUE(tm.halted());

    EXPECT_EQ(workloads::readOutputs(tm, *ccrw), expect);
    EXPECT_EQ(tm.memory().contentHash(), expectHash);
    EXPECT_EQ(tm2.memory().contentHash(), expectHash);

    const std::string prefix = scheme->name();
    const auto &m = scheme->metrics();
    const auto queries = m.get(prefix + ".queries");
    const auto hits = m.get(prefix + ".hits");
    const auto misses = m.get(prefix + ".misses");
    EXPECT_GT(queries, 0u);
    EXPECT_EQ(hits + misses, queries);
    EXPECT_EQ(tm.metrics().get("reuseHits"), hits);
    EXPECT_EQ(tm.metrics().get("reuseMisses"), misses);
    EXPECT_GT(tm.metrics().get("invalidates"), 0u);
    EXPECT_EQ(scheme2->metrics().get(prefix + ".hits"), hits);
    EXPECT_EQ(scheme2->metrics().get(prefix + ".queries"), queries);
    if (expect_range_skips && kind == reuse::SchemeKind::Crb) {
        // The rem-addressed journal store defeats the static bound, so
        // its invalidate survives formation — and must then be skipped
        // dynamically (the runtime address misses the claimed bytes).
        EXPECT_GT(m.get("crb.invalidatesIgnored"), 0u);
    }
}

class InvalidateHeavySchemes
    : public ::testing::TestWithParam<reuse::SchemeKind>
{};

TEST_P(InvalidateHeavySchemes, CountersBalanceAndOutputsMatchBase)
{
    // Seed picked for runtime behavior, not just structure: the
    // generated module forms reuse regions AND its data actually
    // drives the store-under-branch paths, so invalidates fire
    // dynamically (not merely get placed).
    gen::GenKnobs knobs;
    knobs.seed = 194;
    knobs.aliasDensity = 1.0;
    knobs.helpers = 3;
    knobs.streamLen = 600;
    const auto generated = gen::generateKernel(knobs);

    runInvalidateHeavyProperty(GetParam(), generated.text,
                               "gen_invheavy", false);
    runInvalidateHeavyProperty(GetParam(), kRangedInvalidateSource,
                               "invheavy_ranged", true);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, InvalidateHeavySchemes,
    ::testing::Values(reuse::SchemeKind::Crb, reuse::SchemeKind::Dtm),
    [](const ::testing::TestParamInfo<reuse::SchemeKind> &info) {
        return std::string(reuse::schemeKindName(info.param));
    });

} // namespace
