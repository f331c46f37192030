/**
 * @file
 * Parameterized tests over the whole benchmark suite: every workload
 * must verify, halt, be deterministic, produce different train/ref
 * inputs, survive CCR transformation with identical output (both with
 * and without a CRB), and form at least one region.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "analysis/alias.hh"
#include "core/former.hh"
#include "ir/verifier.hh"
#include "uarch/crb.hh"
#include "workloads/corpus.hh"
#include "workloads/harness.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ccr;

class WorkloadSuite : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadSuite, ModuleVerifies)
{
    const auto w = workloads::buildWorkload(GetParam());
    EXPECT_TRUE(ir::verifyModule(*w.module).empty());
    EXPECT_FALSE(w.outputGlobals.empty());
}

TEST_P(WorkloadSuite, HaltsWithinBudget)
{
    const auto w = workloads::buildWorkload(GetParam());
    emu::Machine machine(*w.module);
    w.prepare(machine, workloads::InputSet::Train);
    machine.run(50'000'000);
    EXPECT_TRUE(machine.halted());
    EXPECT_GT(machine.instCount(), 10'000u);
}

TEST_P(WorkloadSuite, DeterministicAcrossRebuilds)
{
    const auto w1 = workloads::buildWorkload(GetParam());
    const auto w2 = workloads::buildWorkload(GetParam());
    emu::Machine m1(*w1.module), m2(*w2.module);
    w1.prepare(m1, workloads::InputSet::Train);
    w2.prepare(m2, workloads::InputSet::Train);
    m1.run();
    m2.run();
    EXPECT_EQ(workloads::readOutputs(m1, w1),
              workloads::readOutputs(m2, w2));
}

TEST_P(WorkloadSuite, TrainAndRefDiffer)
{
    const auto w1 = workloads::buildWorkload(GetParam());
    const auto w2 = workloads::buildWorkload(GetParam());
    emu::Machine m1(*w1.module), m2(*w2.module);
    w1.prepare(m1, workloads::InputSet::Train);
    w2.prepare(m2, workloads::InputSet::Ref);
    m1.run();
    m2.run();
    EXPECT_NE(workloads::readOutputs(m1, w1),
              workloads::readOutputs(m2, w2));
}

TEST_P(WorkloadSuite, TransformPreservesSemanticsWithoutCrb)
{
    const auto base = workloads::buildWorkload(GetParam());
    emu::Machine bm(*base.module);
    base.prepare(bm, workloads::InputSet::Ref);
    bm.run();
    const auto expect = workloads::readOutputs(bm, base);

    auto ccrw = workloads::buildWorkload(GetParam());
    const auto prof =
        workloads::profileWorkload(ccrw, workloads::InputSet::Train);
    analysis::AliasAnalysis alias(*ccrw.module);
    core::RegionFormer former(*ccrw.module, prof, alias, {});
    former.formAll();

    // Run WITHOUT a handler: every reuse instruction takes the miss
    // path and the region code executes normally.
    emu::Machine tm(*ccrw.module);
    ccrw.prepare(tm, workloads::InputSet::Ref);
    tm.run();
    EXPECT_EQ(workloads::readOutputs(tm, ccrw), expect);
}

TEST_P(WorkloadSuite, TransformPreservesSemanticsWithCrb)
{
    const auto base = workloads::buildWorkload(GetParam());
    emu::Machine bm(*base.module);
    base.prepare(bm, workloads::InputSet::Ref);
    bm.run();
    const auto expect = workloads::readOutputs(bm, base);

    auto ccrw = workloads::buildWorkload(GetParam());
    const auto prof =
        workloads::profileWorkload(ccrw, workloads::InputSet::Train);
    analysis::AliasAnalysis alias(*ccrw.module);
    core::RegionFormer former(*ccrw.module, prof, alias, {});
    former.formAll();

    // Exercise several CRB geometries: semantics must never change.
    for (const int entries : {8, 128}) {
        for (const int instances : {1, 8}) {
            uarch::CrbParams params;
            params.entries = entries;
            params.instances = instances;
            const auto crb = uarch::makeCrbScheme(params);
            emu::Machine tm(*ccrw.module);
            ccrw.prepare(tm, workloads::InputSet::Ref);
            tm.setReuseHandler(crb.get());
            tm.run();
            EXPECT_EQ(workloads::readOutputs(tm, ccrw), expect)
                << GetParam() << " with " << entries << "x"
                << instances;
        }
    }
}

TEST_P(WorkloadSuite, FormsRegions)
{
    auto ccrw = workloads::buildWorkload(GetParam());
    const auto prof =
        workloads::profileWorkload(ccrw, workloads::InputSet::Train);
    analysis::AliasAnalysis alias(*ccrw.module);
    core::RegionFormer former(*ccrw.module, prof, alias, {});
    const auto table = former.formAll();
    EXPECT_GE(table.size(), 1u) << GetParam();
    for (const auto &r : table.regions()) {
        EXPECT_LE(static_cast<int>(r.liveIns.size()), 8);
        EXPECT_LE(static_cast<int>(r.liveOuts.size()), 8);
        EXPECT_LE(static_cast<int>(r.memStructs.size()), 4);
        EXPECT_GT(r.staticInsts, 0);
    }
}

TEST_P(WorkloadSuite, CcrNeverSlowsDownMuch)
{
    workloads::RunConfig config;
    const auto result =
        workloads::runCcrExperiment(GetParam(), config);
    EXPECT_TRUE(result.outputsMatch);
    // Reuse should help, and must never cost more than a few percent.
    EXPECT_GT(result.speedup(), 0.97) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadSuite,
    ::testing::ValuesIn(workloads::workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

std::string
registrationKernel(const std::string &name, std::uint64_t value)
{
    return ";! workload " + name + "\n;! output out\n\n"
           "module \"" + name + "\"\n"
           "entry @\"main\"\n"
           "global @\"out\" [8 bytes]\n\n"
           "func @\"main\"(0 params, 4 regs) entry=B0\n"
           "  B0:\n"
           "    movi r1, " + std::to_string(value) + "\n"
           "    movga r2, @\"out\"\n"
           "    store8 [r2 + 0], r1\n"
           "    halt\n";
}

TEST(Workloads, ConcurrentIdenticalRegistrationIsIdempotent)
{
    const std::string source =
        registrationKernel("test_reg_race_same", 7);
    constexpr int kThreads = 8;
    std::atomic<int> registered{0}, already{0}, other{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            const auto r = workloads::registerWorkloadTextStructured(
                source, "race.lc");
            ASSERT_TRUE(r.ok());
            EXPECT_EQ(r.name, "test_reg_race_same");
            if (r.status == workloads::RegisterStatus::Registered)
                ++registered;
            else if (r.status
                     == workloads::RegisterStatus::AlreadyRegistered)
                ++already;
            else
                ++other;
        });
    }
    for (auto &t : threads)
        t.join();
    // Exactly one thread wins the publish; every loser sees the
    // idempotent outcome, never a conflict or a partial entry.
    EXPECT_EQ(registered.load(), 1);
    EXPECT_EQ(already.load(), kThreads - 1);
    EXPECT_EQ(other.load(), 0);

    // The registered workload is buildable afterwards.
    const auto w = workloads::buildWorkload("test_reg_race_same");
    EXPECT_EQ(w.name, "test_reg_race_same");
}

TEST(Workloads, ConflictingSourceUnderTakenNameIsStructuredError)
{
    const auto first = workloads::registerWorkloadTextStructured(
        registrationKernel("test_reg_conflict", 1), "first.lc");
    ASSERT_TRUE(first.ok());

    const auto second = workloads::registerWorkloadTextStructured(
        registrationKernel("test_reg_conflict", 2), "second.lc");
    EXPECT_EQ(second.status, workloads::RegisterStatus::Conflict);
    ASSERT_FALSE(second.diagnostics.empty());
    bool has_rule = false;
    for (const auto &d : second.diagnostics)
        has_rule |= d.rule == "workload.register.conflict";
    EXPECT_TRUE(has_rule);

    // The original registration is untouched by the failed attempt.
    emu::Machine machine(
        *workloads::buildWorkload("test_reg_conflict").module);
    machine.run(1'000);
    ASSERT_TRUE(machine.halted());
}

TEST(Workloads, ContentKeyIsStableAndSourceSensitive)
{
    const auto a = workloads::registerWorkloadTextStructured(
        registrationKernel("test_reg_key_a", 3), "a.lc");
    const auto b = workloads::registerWorkloadTextStructured(
        registrationKernel("test_reg_key_b", 4), "b.lc");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(workloads::workloadContentKey("test_reg_key_a"),
              workloads::workloadContentKey("test_reg_key_a"));
    EXPECT_NE(workloads::workloadContentKey("test_reg_key_a"),
              workloads::workloadContentKey("test_reg_key_b"));
}

TEST(Workloads, NamesAreUniqueAndBuildable)
{
    const auto names = workloads::workloadNames();
    EXPECT_EQ(names.size(), 13u);
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (std::size_t j = i + 1; j < names.size(); ++j)
            EXPECT_NE(names[i], names[j]);
    }
}

} // namespace
