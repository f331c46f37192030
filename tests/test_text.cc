/**
 * @file
 * Tests for the ccr_text frontend: lexing/parsing the textual Lcode
 * form, precise diagnostics with error recovery, the
 * print -> parse -> print fixpoint over every registered workload and
 * corpus file, and a deterministic mutation fuzz ensuring malformed
 * input always yields a located diagnostic instead of a crash.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "gen/gen.hh"
#include "support/random.hh"
#include "text/parser.hh"
#include "workloads/corpus.hh"
#include "workloads/harness.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ccr;

constexpr const char *kSmall = R"(module "small"
entry @"main"
global @"tab" [16 bytes] const init=x"0100000000000000ff00000000000000"
global @"out" [8 bytes]
func @"main"(0 params, 6 regs) entry=B0
  B0:
    movga r0, @"tab"
    load8 r1, [r0 + 8]
    movi r2, -3
    add r3, r1, r2
    movga r4, @"out"
    store8 [r4 + 0], r3
    halt
)";

text::ParseResult
parseOk(const std::string &textual)
{
    text::ParseResult p = text::parseModule(textual);
    EXPECT_TRUE(p.ok()) << text::formatDiagnostics(p.errors, "<test>");
    return p;
}

TEST(Parser, SmallModuleStructure)
{
    const auto p = parseOk(kSmall);
    ASSERT_NE(p.module, nullptr);
    const ir::Module &m = *p.module;
    EXPECT_EQ(m.name(), "small");
    ASSERT_EQ(m.numGlobals(), 2u);
    EXPECT_EQ(m.global(0).name, "tab");
    EXPECT_TRUE(m.global(0).isConst);
    ASSERT_EQ(m.global(0).init.size(), 16u);
    EXPECT_EQ(m.global(0).init[0], std::uint8_t{1});
    EXPECT_EQ(m.global(0).init[8], std::uint8_t{0xff});
    ASSERT_EQ(m.numFunctions(), 1u);
    const ir::Function &f = m.function(0);
    EXPECT_EQ(f.name(), "main");
    EXPECT_EQ(f.numParams(), 0);
    EXPECT_EQ(f.numRegs(), 6);
    EXPECT_EQ(f.numInsts(), 7u);
    EXPECT_EQ(m.entryFunction(), f.id());
    EXPECT_TRUE(ir::verifyModule(m).empty());
}

TEST(Parser, FixpointOnSmallModule)
{
    const auto p = parseOk(kSmall);
    const std::string once = ir::moduleToString(*p.module);
    const auto p2 = parseOk(once);
    EXPECT_EQ(ir::moduleToString(*p2.module), once);
}

TEST(Parser, RegionInstructionsAndExtMarkers)
{
    const char *textual = R"(module "r"
func @"main"(0 params, 4 regs) entry=B0
  B0:
    movi r1, 5
    jump B1
  B1:
    reuse #2, hit=B3, miss=B2
  B2:
    add r2, r1, 1 <live-out>
    invalidate #2
    jump B3 <region-end>
  B3:
    halt
)";
    const auto p = parseOk(textual);
    const ir::Module &m = *p.module;
    const ir::Function &f = m.function(0);
    const ir::Inst &reuse = f.block(1).insts()[0];
    EXPECT_EQ(reuse.op, ir::Opcode::Reuse);
    EXPECT_EQ(reuse.regionId, 2u);
    EXPECT_EQ(reuse.target, 3u);
    EXPECT_EQ(reuse.target2, 2u);
    EXPECT_TRUE(f.block(2).insts()[0].ext.liveOut);
    EXPECT_TRUE(f.block(2).insts()[2].ext.regionEnd);
    // The module's region allocator must not re-issue parsed ids.
    EXPECT_GT(p.module->newRegionId(), 2u);

    const std::string once = ir::moduleToString(m);
    const auto p2 = parseOk(once);
    EXPECT_EQ(ir::moduleToString(*p2.module), once);
}

TEST(Parser, PragmasAreCollected)
{
    const auto p = parseOk(";! workload demo\n; plain comment\n"
                           ";! output out\nmodule \"m\"\n");
    ASSERT_EQ(p.pragmas.size(), 2u);
    EXPECT_EQ(p.pragmas[0].text, "workload demo");
    EXPECT_EQ(p.pragmas[1].text, "output out");
    EXPECT_EQ(p.pragmas[0].loc.line, 1);
}

// -- Diagnostics -------------------------------------------------------

/** Expect at least one diagnostic at the given position. */
void
expectErrorAt(const std::string &textual, int line, int col)
{
    const text::ParseResult p = text::parseModule(textual);
    EXPECT_FALSE(p.ok());
    EXPECT_EQ(p.module, nullptr);
    for (const auto &d : p.errors) {
        if (d.loc.line == line && (col == 0 || d.loc.col == col))
            return;
    }
    ADD_FAILURE() << "no diagnostic at " << line << ":" << col
                  << " in:\n"
                  << text::formatDiagnostics(p.errors, "<test>");
}

TEST(Diagnostics, PreciseLocations)
{
    // Register out of range (r9 in a 4-reg function), on line 4.
    expectErrorAt("module \"m\"\n"
                  "func @\"f\"(0 params, 4 regs) entry=B0\n"
                  "  B0:\n"
                  "    movi r9, 1\n"
                  "    halt\n",
                  4, 10);
    // Unknown mnemonic.
    expectErrorAt("module \"m\"\n"
                  "func @\"f\"(0 params, 4 regs) entry=B0\n"
                  "  B0:\n"
                  "    frobnicate r1, r2\n"
                  "    halt\n",
                  4, 5);
    // Unterminated string.
    expectErrorAt("module \"m\n", 1, 0);
    // Reference to a block never defined.
    expectErrorAt("module \"m\"\n"
                  "func @\"f\"(0 params, 4 regs) entry=B0\n"
                  "  B0:\n"
                  "    jump B7\n",
                  4, 10);
}

TEST(Diagnostics, RecoversAndReportsMultipleErrors)
{
    const text::ParseResult p =
        text::parseModule("module \"m\"\n"
                          "func @\"f\"(0 params, 4 regs) entry=B0\n"
                          "  B0:\n"
                          "    movi r9, 1\n"
                          "    frobnicate r1\n"
                          "    movi r1, 99999999999999999999999\n"
                          "    halt\n");
    EXPECT_FALSE(p.ok());
    EXPECT_GE(p.errors.size(), 3u);
    for (const auto &d : p.errors) {
        EXPECT_GE(d.loc.line, 1);
        EXPECT_GE(d.loc.col, 1);
    }
}

TEST(Diagnostics, MissingFileYieldsDiagnostic)
{
    const auto p = text::parseModuleFile("/nonexistent/x.lc");
    EXPECT_FALSE(p.ok());
    ASSERT_EQ(p.errors.size(), 1u);
}

TEST(Diagnostics, DuplicateNamesRejected)
{
    expectErrorAt("module \"m\"\n"
                  "global @\"g\" [8 bytes]\n"
                  "global @\"g\" [8 bytes]\n",
                  3, 0);
    expectErrorAt("module \"m\"\n"
                  "func @\"f\"(0 params, 1 regs) entry=B0\n"
                  "  B0:\n"
                  "    halt\n"
                  "func @\"f\"(0 params, 1 regs) entry=B0\n"
                  "  B0:\n"
                  "    halt\n",
                  5, 0);
}

// -- Fixpoint over every registered workload ---------------------------

TEST(Fixpoint, AllBuiltinWorkloads)
{
    for (const auto &name : workloads::workloadNames()) {
        const auto w = workloads::buildWorkload(name);
        const std::string once = ir::moduleToString(*w.module);
        text::ParseResult p = text::parseModule(once);
        ASSERT_TRUE(p.ok())
            << name << ":\n"
            << text::formatDiagnostics(p.errors, name);
        EXPECT_TRUE(ir::verifyModule(*p.module).empty()) << name;
        EXPECT_EQ(ir::moduleToString(*p.module), once) << name;
    }
}

TEST(Fixpoint, AllCorpusFiles)
{
    const auto names = workloads::corpusWorkloadNames();
    EXPECT_GE(names.size(), 5u);
    for (const auto &name : names) {
        const auto w = workloads::buildCorpusWorkload(name);
        const std::string once = ir::moduleToString(*w.module);
        text::ParseResult p = text::parseModule(once);
        ASSERT_TRUE(p.ok())
            << name << ":\n"
            << text::formatDiagnostics(p.errors, name);
        EXPECT_EQ(ir::moduleToString(*p.module), once) << name;
    }
}

// -- Corpus workloads through the experiment flow ----------------------

TEST(Corpus, NamesAreSeparateFromBuiltins)
{
    const auto builtin = workloads::workloadNames();
    EXPECT_EQ(builtin.size(), 13u);
    for (const auto &name : workloads::corpusWorkloadNames()) {
        EXPECT_TRUE(workloads::isCorpusWorkload(name));
        for (const auto &b : builtin)
            EXPECT_NE(name, b);
    }
    const auto all = workloads::allWorkloadNames();
    EXPECT_EQ(all.size(),
              builtin.size() + workloads::corpusWorkloadNames().size());
}

TEST(Corpus, RunsThroughHarnessWithMatchingOutputs)
{
    workloads::RunConfig config;
    for (const auto &name : {"crc32", "strhash"}) {
        const auto r = workloads::runCcrExperiment(name, config);
        EXPECT_TRUE(r.outputsMatch) << name;
        EXPECT_GT(r.report.metric("crb.hits"), 0u) << name;
        EXPECT_GT(r.speedup(), 1.0) << name;
    }
}

TEST(Corpus, TrainAndRefInputsDiffer)
{
    const auto w = workloads::buildCorpusWorkload("crc32");
    emu::Machine train(*w.module);
    w.prepare(train, workloads::InputSet::Train);
    emu::Machine ref(*w.module);
    w.prepare(ref, workloads::InputSet::Ref);
    const auto addr = train.globalAddr(
        w.module->findGlobal("n_items")->id);
    EXPECT_NE(train.memory().read(addr, ir::MemSize::Dword, false),
              ref.memory().read(addr, ir::MemSize::Dword, false));
}

// -- Deterministic mutation fuzz ---------------------------------------

TEST(Fuzz, MutatedInputNeverCrashesAndAlwaysLocatesErrors)
{
    const auto w = workloads::buildWorkload("compress");
    const std::string seed_text = ir::moduleToString(*w.module);

    Rng rng(0xfeedfaceULL);
    int parsed_ok = 0;
    for (int i = 0; i < 300; ++i) {
        std::string mutated = seed_text;
        const int edits = 1 + static_cast<int>(rng.nextBelow(3));
        for (int e = 0; e < edits; ++e) {
            const auto pos = static_cast<std::size_t>(
                rng.nextBelow(mutated.size()));
            switch (rng.nextBelow(3)) {
              case 0: // replace with a random printable/control byte
                mutated[pos] =
                    static_cast<char>(rng.nextRange(1, 126));
                break;
              case 1: // delete
                mutated.erase(pos, 1);
                break;
              default: // insert
                mutated.insert(
                    pos, 1,
                    static_cast<char>(rng.nextRange(1, 126)));
                break;
            }
        }
        const text::ParseResult p = text::parseModule(mutated);
        if (p.ok()) {
            ++parsed_ok;
            ASSERT_NE(p.module, nullptr);
            continue;
        }
        ASSERT_FALSE(p.errors.empty());
        for (const auto &d : p.errors) {
            EXPECT_GE(d.loc.line, 1);
            EXPECT_GE(d.loc.col, 1);
            EXPECT_FALSE(d.message.empty());
        }
    }
    // Most single-byte mutations of a large module break it; a few
    // land in comments or workload names and stay parseable.
    EXPECT_LT(parsed_ok, 300);
}

// -- Cross-breeding generated kernels ----------------------------------

/** Split a module's text into its pre-function header (module/entry/
 *  global lines) and one chunk per `func` definition. */
void
splitFunctions(const std::string &text, std::string &header,
               std::vector<std::string> &funcs)
{
    std::size_t start = 0;
    std::string *cur = &header;
    while (start < text.size()) {
        auto nl = text.find('\n', start);
        if (nl == std::string::npos)
            nl = text.size() - 1;
        const std::string line = text.substr(start, nl - start + 1);
        if (line.rfind("func ", 0) == 0) {
            funcs.emplace_back();
            cur = &funcs.back();
        }
        *cur += line;
        start = nl + 1;
    }
}

TEST(Fuzz, CrossBredGeneratedKernelsNeverCrashTheFrontend)
{
    // Splice whole functions between pairs of generated kernels. The
    // hybrids are frequently ill-formed (dangling callees, duplicate
    // names, missing entry) — the frontend must always either reject
    // them with located diagnostics or accept a module that verifies
    // and reprints as a fixpoint.
    Rng rng(0x5eed5eedULL);
    int accepted = 0;
    for (int round = 0; round < 40; ++round) {
        gen::GenKnobs ka, kb;
        ka.seed = 10'000 + static_cast<std::uint64_t>(round);
        kb.seed = 20'000 + static_cast<std::uint64_t>(round);
        ka.helpers = 1 + static_cast<int>(rng.nextBelow(3));
        kb.helpers = 1 + static_cast<int>(rng.nextBelow(3));
        const auto a = gen::generateKernel(ka);
        const auto b = gen::generateKernel(kb);

        std::string headerA, headerB;
        std::vector<std::string> funcsA, funcsB;
        splitFunctions(a.text.substr(a.text.find("module ")), headerA,
                       funcsA);
        splitFunctions(b.text.substr(b.text.find("module ")), headerB,
                       funcsB);
        ASSERT_GE(funcsA.size(), 2u);
        ASSERT_GE(funcsB.size(), 2u);

        std::string hybrid = headerA;
        if (round % 2 == 0) {
            // Even rounds: graft B's same-named functions into A where
            // the parents overlap — usually a well-formed hybrid.
            for (const auto &fa : funcsA) {
                const std::string name =
                    fa.substr(0, fa.find(')') + 1);
                const std::string bare =
                    name.substr(0, name.find('('));
                const auto *pick = &fa;
                for (const auto &fb : funcsB) {
                    if (fb.rfind(bare, 0) == 0 && rng.nextBelow(2)) {
                        pick = &fb;
                        break;
                    }
                }
                hybrid += *pick;
            }
        } else {
            // Odd rounds: random interleave drawing each slot from
            // either parent (duplicate and dangling names likely).
            const std::size_t slots =
                std::max(funcsA.size(), funcsB.size());
            for (std::size_t s = 0; s < slots; ++s) {
                const auto &pool = rng.nextBelow(2) ? funcsA : funcsB;
                hybrid += pool[rng.nextBelow(pool.size())];
            }
        }

        const text::ParseResult p = text::parseModule(hybrid);
        if (!p.ok()) {
            ASSERT_FALSE(p.errors.empty());
            for (const auto &d : p.errors) {
                EXPECT_GE(d.loc.line, 1);
                EXPECT_FALSE(d.message.empty());
            }
            continue;
        }
        ASSERT_NE(p.module, nullptr);
        if (ir::hasErrors(ir::verifyModule(*p.module)))
            continue;
        ++accepted;
        const std::string printed = ir::moduleToString(*p.module);
        const text::ParseResult again = text::parseModule(printed);
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(ir::moduleToString(*again.module), printed);
    }
    // Same-name grafts preserve the call graph, so a healthy share of
    // hybrids must make it through parse + verify — the test must not
    // pass vacuously.
    EXPECT_GE(accepted, 10);
}

} // namespace
