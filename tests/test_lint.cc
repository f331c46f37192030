/**
 * @file
 * Tests for ccr_lint: the structured Diagnostic engine shared with
 * ir::Verifier, the static region-legality audit (lintModule), claim
 * reconstruction from `.lc` sources (regionsFromSource), the negative
 * fixtures under tests/fixtures/, the former/lint agreement on the
 * built-in workloads, mutation detection (tampered claims must be
 * caught), and the dynamic replay cross-check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/alias.hh"
#include "core/former.hh"
#include "emu/machine.hh"
#include "ir/diagnostic.hh"
#include "ir/verifier.hh"
#include "lint/crosscheck.hh"
#include "lint/lint.hh"
#include "obs/json.hh"
#include "text/parser.hh"
#include "workloads/harness.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ccr;

std::size_t
countRule(const std::vector<ir::Diagnostic> &diags,
          const std::string &rule)
{
    return static_cast<std::size_t>(std::count_if(
        diags.begin(), diags.end(),
        [&](const ir::Diagnostic &d) { return d.rule == rule; }));
}

std::string
dump(const std::vector<ir::Diagnostic> &diags)
{
    return ir::formatDiagnostics(diags, "<test>");
}

text::ParseResult
parseOk(const std::string &source)
{
    text::ParseResult p = text::parseModule(source);
    EXPECT_TRUE(p.ok()) << dump(p.errors);
    return p;
}

/** regionsFromSource + lintModule over a parsed `.lc` buffer. */
lint::LintResult
lintSource(const text::ParseResult &p)
{
    std::vector<ir::Diagnostic> claim_diags;
    const core::RegionTable table =
        lint::regionsFromSource(*p.module, p.pragmas, claim_diags);
    lint::LintResult res = lint::lintModule(*p.module, table,
                                            &p.instLocs);
    res.diagnostics.insert(res.diagnostics.begin(),
                           claim_diags.begin(), claim_diags.end());
    return res;
}

/** The standard formation pipeline (as harness/ccrc run it), kept
 *  here so tests can tamper with the resulting claims. */
struct Formed
{
    workloads::Workload workload;
    core::RegionTable table;
};

Formed
formWorkload(const std::string &name)
{
    Formed f;
    f.workload = workloads::buildWorkload(name);
    const auto prof =
        workloads::profileWorkload(f.workload, workloads::InputSet::Train);
    analysis::AliasAnalysis alias(*f.workload.module);
    alias.annotateDeterminableLoads(*f.workload.module);
    core::RegionFormer former(*f.workload.module, prof, alias,
                              core::ReusePolicy{});
    f.table = former.formAll();
    return f;
}

/** Rebuild the table with one region replaced. */
core::RegionTable
replaceRegion(const core::RegionTable &table,
              const core::ReuseRegion &patched)
{
    core::RegionTable out;
    for (const auto &r : table.regions())
        out.add(r.id == patched.id ? patched : r);
    return out;
}

// ----- Diagnostic engine --------------------------------------------

TEST(Diagnostic, FormatCarriesLocSeverityAndRule)
{
    const auto d =
        ir::makeError("lint.test.rule", "something broke", {12, 3});
    const std::string s = ir::formatDiagnostic(d, "file.lc");
    EXPECT_EQ(s, "file.lc:12:3: error: [lint.test.rule] something broke");

    const auto w = ir::makeWarn("w.rule", "eh");
    EXPECT_EQ(ir::formatDiagnostic(w), "warn: [w.rule] eh");
}

TEST(Diagnostic, JsonRoundTripsFields)
{
    std::vector<ir::Diagnostic> diags{
        ir::makeError("r1", "m1", {4, 7}),
        ir::makeNote("r2", "m2"),
    };
    const obs::Json j = ir::diagnosticsToJson(diags);
    ASSERT_TRUE(j.isArray());
    ASSERT_EQ(j.items().size(), 2u);
    EXPECT_EQ(j.items()[0].at("severity").asString(), "error");
    EXPECT_EQ(j.items()[0].at("rule").asString(), "r1");
    EXPECT_EQ(j.items()[0].at("line").asInt(), 4);
    EXPECT_EQ(j.items()[0].at("col").asInt(), 7);
    EXPECT_EQ(j.items()[1].at("severity").asString(), "note");
    EXPECT_TRUE(j.items()[1].at("line").isNull());
}

TEST(Diagnostic, CountErrorsIgnoresWarnsAndNotes)
{
    std::vector<ir::Diagnostic> diags{
        ir::makeWarn("a", "w"),
        ir::makeError("b", "e"),
        ir::makeNote("c", "n"),
    };
    EXPECT_EQ(ir::countErrors(diags), 1u);
    EXPECT_TRUE(ir::hasErrors(diags));
    diags.erase(diags.begin() + 1);
    EXPECT_FALSE(ir::hasErrors(diags));
}

// ----- parser diagnostics (satellite: unknown directive keys) -------

TEST(ParserPragma, UnknownDirectiveKeyWarns)
{
    const std::string src = ";! wrkload oops\n"
                            "module \"t\"\n"
                            "entry @\"main\"\n"
                            "func @\"main\"(0 params, 2 regs) entry=B0\n"
                            "  B0:\n"
                            "    halt\n";
    const auto p = text::parseModule(src);
    ASSERT_TRUE(p.ok()) << dump(p.errors);
    ASSERT_EQ(countRule(p.errors, "parse.pragma.unknown"), 1u)
        << dump(p.errors);
    const auto &d = p.errors.front();
    EXPECT_EQ(d.severity, ir::Severity::Warn);
    EXPECT_EQ(d.loc.line, 1);
    EXPECT_NE(d.message.find("wrkload"), std::string::npos);
    // The warning lists the accepted keys so typos are self-serviceable.
    EXPECT_NE(d.message.find("workload"), std::string::npos);
}

TEST(ParserPragma, KnownDirectiveKeysStaySilent)
{
    const std::string src = ";! workload t\n"
                            ";! output g\n"
                            ";! region 1\n"
                            "module \"t\"\n"
                            "entry @\"main\"\n"
                            "global @\"g\" [8 bytes]\n"
                            "func @\"main\"(0 params, 2 regs) entry=B0\n"
                            "  B0:\n"
                            "    halt\n";
    const auto p = text::parseModule(src);
    ASSERT_TRUE(p.ok()) << dump(p.errors);
    EXPECT_TRUE(p.errors.empty()) << dump(p.errors);
}

TEST(ParserPragma, SourceMapRecordsInstLines)
{
    const std::string src = "module \"t\"\n"                 // 1
                            "entry @\"main\"\n"              // 2
                            "func @\"main\"(0 params, 4 regs) entry=B0\n"
                            "  B0:\n"                        // 4
                            "    movi r1, 1\n"               // 5
                            "    add r2, r1, 2\n"            // 6
                            "    halt\n";                    // 7
    const auto p = parseOk(src);
    const ir::Function &main = p.module->function(0);
    const auto &insts = main.block(0).insts();
    ASSERT_EQ(insts.size(), 3u);
    ASSERT_EQ(p.instLocs.size(), 1u);
    ASSERT_GT(p.instLocs[0].size(), insts[2].uid);
    EXPECT_EQ(p.instLocs[0][insts[0].uid].line, 5);
    EXPECT_EQ(p.instLocs[0][insts[1].uid].line, 6);
    EXPECT_EQ(p.instLocs[0][insts[2].uid].line, 7);
}

// ----- regionsFromSource claim handling ------------------------------

constexpr const char *kGoodRegion = R"(;! region 1 livein=r1 liveout=r4
module "good"
entry @"main"
func @"main"(0 params, 8 regs) entry=B0
  B0:
    movi r1, 5
    jump B1
  B1:
    reuse #1, hit=B3, miss=B2
  B2:
    add r3, r1, 2
    add r4, r3, 1 <live-out>
    jump B3 <region-end>
  B3:
    add r5, r4, 0
    halt
)";

TEST(RegionsFromSource, WellFormedRegionLintsClean)
{
    const auto p = parseOk(kGoodRegion);
    const auto res = lintSource(p);
    EXPECT_TRUE(res.ok()) << dump(res.diagnostics);
    EXPECT_TRUE(res.diagnostics.empty()) << dump(res.diagnostics);
}

TEST(RegionsFromSource, ClaimlessRegionGetsNote)
{
    std::string src = kGoodRegion;
    src = src.substr(src.find('\n') + 1); // drop the claim directive
    const auto p = parseOk(src);
    std::vector<ir::Diagnostic> diags;
    const auto table =
        lint::regionsFromSource(*p.module, p.pragmas, diags);
    EXPECT_EQ(table.size(), 1u);
    ASSERT_EQ(countRule(diags, "lint.claims.default"), 1u)
        << dump(diags);
    EXPECT_EQ(diags.front().severity, ir::Severity::Note);
    // Empty claims then fail the audit: r1 is read but unclaimed.
    const auto res = lint::lintModule(*p.module, table, &p.instLocs);
    EXPECT_GE(countRule(res.diagnostics, "lint.region.livein.missing"),
              1u)
        << dump(res.diagnostics);
}

TEST(RegionsFromSource, UnmatchedPragmaWarnsAndBadFieldErrors)
{
    std::string src = kGoodRegion;
    src = ";! region 7 livein=\n" + src;
    const auto p = parseOk(src);
    std::vector<ir::Diagnostic> diags;
    lint::regionsFromSource(*p.module, p.pragmas, diags);
    EXPECT_EQ(countRule(diags, "lint.claims.unused"), 1u)
        << dump(diags);

    std::string bad = kGoodRegion;
    bad.replace(bad.find("livein=r1"), 9, "livein=xx");
    const auto pb = parseOk(bad);
    diags.clear();
    lint::regionsFromSource(*pb.module, pb.pragmas, diags);
    EXPECT_EQ(countRule(diags, "lint.claims.syntax"), 1u)
        << dump(diags);
}

// ----- range-suffixed memory claims ----------------------------------

constexpr const char *kRangedRegion =
    R"(;! region 1 livein= liveout=r4 mem=tab[0..31]
module "ranged"
entry @"main"
global @"tab" [64 bytes]

func @"main"(0 params, 8 regs) entry=B0
  B0:
    movga r0, @"tab"
    movi r1, 42
    store8 [r0 + 32], r1
    jump B1
  B1:
    reuse #1, hit=B3, miss=B2
  B2:
    movga r3, @"tab"
    load8 r4, [r3 + 0] <live-out> <det>
    jump B3 <region-end>
  B3:
    add r5, r4, 0
    halt
)";

TEST(RangedClaims, SuffixParsesAndDisjointStoreNeedsNoInvalidate)
{
    // mem=tab[0..31] narrows the claim; the load reads tab[0..7] (in
    // range) and the store writes tab[32..39] — provably outside the
    // claim, so the missing `invalidate #1` after it is legal. The
    // whole buffer must lint clean.
    const auto p = parseOk(kRangedRegion);
    std::vector<ir::Diagnostic> diags;
    const auto table =
        lint::regionsFromSource(*p.module, p.pragmas, diags);
    ASSERT_EQ(table.size(), 1u);
    const auto &r = table.regions().front();
    ASSERT_EQ(r.memStructs.size(), 1u);
    ASSERT_EQ(r.memRanges.size(), 1u);
    EXPECT_FALSE(r.memRange(0).whole);
    EXPECT_EQ(r.memRange(0).lo, 0u);
    EXPECT_EQ(r.memRange(0).hi, 31u);

    const auto res = lintSource(p);
    EXPECT_TRUE(res.ok()) << dump(res.diagnostics);
    EXPECT_TRUE(res.diagnostics.empty()) << dump(res.diagnostics);
}

TEST(RangedClaims, OverlappingStoreStillNeedsInvalidate)
{
    // Move the store inside the claimed bytes: the range proof no
    // longer applies and the unsummarized-store audit must fire.
    std::string src = kRangedRegion;
    src.replace(src.find("[r0 + 32]"), 9, "[r0 + 8]");
    const auto p = parseOk(src);
    const auto res = lintSource(p);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(
        countRule(res.diagnostics, "lint.region.store.unsummarized"),
        1u)
        << dump(res.diagnostics);
}

TEST(RangedClaims, LoadOutsideClaimedRangeIsRejected)
{
    // Narrow the claim past the load: tab[8..15] cannot cover the
    // load of tab[0..7].
    std::string src = kRangedRegion;
    src.replace(src.find("mem=tab[0..31]"), 14, "mem=tab[8..15]");
    const auto p = parseOk(src);
    const auto res = lintSource(p);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(countRule(res.diagnostics, "lint.region.mem.range"), 1u)
        << dump(res.diagnostics);
}

TEST(RangedClaims, UnboundableLoadRejectsNarrowedClaim)
{
    // The load's offset comes from memory (⊤ to the range analysis):
    // a narrowed claim cannot be proven to cover it and must be
    // rejected — only a whole-structure claim is sound here.
    constexpr const char *src =
        R"(;! region 1 livein=r1 liveout=r4 mem=tab[0..31]
module "ranged_unbounded"
entry @"main"
global @"tab" [64 bytes]
global @"n" [8 bytes]

func @"main"(0 params, 8 regs) entry=B0
  B0:
    movga r0, @"n"
    load8 r1, [r0 + 0]
    jump B1
  B1:
    reuse #1, hit=B3, miss=B2
  B2:
    movga r3, @"tab"
    add r6, r3, r1
    load8 r4, [r6 + 0] <live-out>
    jump B3 <region-end>
  B3:
    add r5, r4, 0
    halt
)";
    const auto p = parseOk(src);
    const auto res = lintSource(p);
    EXPECT_FALSE(res.ok());
    EXPECT_GE(countRule(res.diagnostics, "lint.region.mem.range"), 1u)
        << dump(res.diagnostics);
}

TEST(RangedClaims, MalformedOrOutOfBoundsSuffixErrors)
{
    // lo > hi, hi past the end of the global, and non-numeric bounds
    // are all claim-syntax errors.
    for (const char *range : {"[8..4]", "[0..64]", "[0..x]"}) {
        std::string src = kRangedRegion;
        src.replace(src.find("[0..31]"), 7, range);
        const auto p = parseOk(src);
        std::vector<ir::Diagnostic> diags;
        lint::regionsFromSource(*p.module, p.pragmas, diags);
        EXPECT_GE(countRule(diags, "lint.claims.syntax"), 1u)
            << range << "\n"
            << dump(diags);
    }
}

// ----- negative fixtures --------------------------------------------

lint::LintResult
lintFixture(const std::string &name)
{
    const std::string path = std::string(CCR_FIXTURE_DIR) + "/" + name;
    text::ParseResult p = text::parseModuleFile(path);
    EXPECT_TRUE(p.ok()) << dump(p.errors);
    EXPECT_FALSE(ir::hasErrors(ir::verifyModule(*p.module)));
    return lintSource(p);
}

TEST(Fixtures, MissingLiveInIsRejected)
{
    const auto res = lintFixture("bad_missing_livein.lc");
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.numErrors(), 1u) << dump(res.diagnostics);
    EXPECT_EQ(countRule(res.diagnostics, "lint.region.livein.missing"),
              1u)
        << dump(res.diagnostics);
}

TEST(Fixtures, UnsummarizedStoreIsRejected)
{
    const auto res = lintFixture("bad_unsummarized_store.lc");
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.numErrors(), 1u) << dump(res.diagnostics);
    ASSERT_EQ(
        countRule(res.diagnostics, "lint.region.store.unsummarized"),
        1u)
        << dump(res.diagnostics);
    // The finding is anchored to the offending store's source line.
    const auto it = std::find_if(
        res.diagnostics.begin(), res.diagnostics.end(),
        [](const ir::Diagnostic &d) {
            return d.rule == "lint.region.store.unsummarized";
        });
    EXPECT_TRUE(it->loc.valid());
}

TEST(Fixtures, MultiEntryRegionIsRejected)
{
    const auto res = lintFixture("bad_multi_entry.lc");
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.numErrors(), 1u) << dump(res.diagnostics);
    EXPECT_EQ(countRule(res.diagnostics, "lint.region.multi-entry"), 1u)
        << dump(res.diagnostics);
}

// ----- former/lint agreement on the real pipeline -------------------

TEST(FormerAgreement, BuiltinWorkloadsLintClean)
{
    for (const std::string name :
         {"espresso", "compress", "li", "yacc"}) {
        const Formed f = formWorkload(name);
        ASSERT_GT(f.table.size(), 0u) << name;
        const auto res =
            lint::lintModule(*f.workload.module, f.table);
        EXPECT_TRUE(res.ok()) << name << ":\n"
                              << dump(res.diagnostics);
        EXPECT_TRUE(res.diagnostics.empty())
            << name << ":\n"
            << dump(res.diagnostics);
    }
}

TEST(FormerAgreement, FunctionLevelRegionsLintClean)
{
    // mpeg2enc and pgpencode exercise the function-level former.
    for (const std::string name : {"mpeg2enc", "pgpencode"}) {
        const Formed f = formWorkload(name);
        const auto res =
            lint::lintModule(*f.workload.module, f.table);
        EXPECT_TRUE(res.ok()) << name << ":\n"
                              << dump(res.diagnostics);
    }
}

// ----- mutation detection: tampered claims must be caught -----------

TEST(MutationDetection, DroppedLiveInClaim)
{
    const Formed f = formWorkload("espresso");
    const core::ReuseRegion *victim = nullptr;
    for (const auto &r : f.table.regions()) {
        if (!r.functionLevel && !r.liveIns.empty())
            victim = &r;
    }
    ASSERT_NE(victim, nullptr);
    core::ReuseRegion patched = *victim;
    patched.liveIns.pop_back();
    const auto res = lint::lintModule(
        *f.workload.module, replaceRegion(f.table, patched));
    EXPECT_FALSE(res.ok());
    EXPECT_GE(countRule(res.diagnostics, "lint.region.livein.missing"),
              1u)
        << dump(res.diagnostics);
}

TEST(MutationDetection, DroppedLiveOutClaim)
{
    const Formed f = formWorkload("espresso");
    const core::ReuseRegion *victim = nullptr;
    for (const auto &r : f.table.regions()) {
        if (!r.functionLevel && !r.liveOuts.empty())
            victim = &r;
    }
    ASSERT_NE(victim, nullptr);
    core::ReuseRegion patched = *victim;
    patched.liveOuts.clear();
    const auto res = lint::lintModule(
        *f.workload.module, replaceRegion(f.table, patched));
    EXPECT_FALSE(res.ok());
    EXPECT_GE(
        countRule(res.diagnostics, "lint.region.liveout.missing"), 1u)
        << dump(res.diagnostics);
}

TEST(MutationDetection, DroppedMemoryClaim)
{
    const Formed f = formWorkload("compress");
    const core::ReuseRegion *victim = nullptr;
    for (const auto &r : f.table.regions()) {
        if (!r.functionLevel && !r.memStructs.empty())
            victim = &r;
    }
    ASSERT_NE(victim, nullptr) << "no memory-dependent region formed";
    core::ReuseRegion patched = *victim;
    patched.memStructs.clear();
    const auto res = lint::lintModule(
        *f.workload.module, replaceRegion(f.table, patched));
    EXPECT_FALSE(res.ok());
    EXPECT_GE(countRule(res.diagnostics, "lint.region.mem.missing"),
              1u)
        << dump(res.diagnostics);
}

TEST(MutationDetection, FlippedCyclicClaim)
{
    const Formed f = formWorkload("espresso");
    const core::ReuseRegion *victim = nullptr;
    for (const auto &r : f.table.regions()) {
        if (!r.functionLevel)
            victim = &r;
    }
    ASSERT_NE(victim, nullptr);
    core::ReuseRegion patched = *victim;
    patched.cyclic = !patched.cyclic;
    const auto res = lint::lintModule(
        *f.workload.module, replaceRegion(f.table, patched));
    EXPECT_FALSE(res.ok()) << dump(res.diagnostics);
}

TEST(MutationDetection, TamperedMemberBlocks)
{
    // An empty memberBlocks vector means "no claim" (tables built
    // outside the former), so tamper a region with several members.
    for (const std::string name : {"compress", "gcc", "go"}) {
        const Formed f = formWorkload(name);
        const core::ReuseRegion *victim = nullptr;
        for (const auto &r : f.table.regions()) {
            if (r.memberBlocks.size() >= 2)
                victim = &r;
        }
        if (victim == nullptr)
            continue;
        core::ReuseRegion patched = *victim;
        patched.memberBlocks.pop_back();
        const auto res = lint::lintModule(
            *f.workload.module, replaceRegion(f.table, patched));
        EXPECT_GE(countRule(res.diagnostics, "lint.region.members"),
                  1u)
            << name << ":\n"
            << dump(res.diagnostics);
        return;
    }
    FAIL() << "no multi-block region formed on any probed workload";
}

// ----- dynamic cross-check ------------------------------------------

TEST(CrossCheck, CleanOnFormedWorkloads)
{
    for (const std::string name : {"espresso", "compress", "li"}) {
        const auto r = workloads::lintWorkload(
            name, core::ReusePolicy{}, /*run_crosscheck=*/true);
        ASSERT_TRUE(r.ranCrossCheck);
        EXPECT_TRUE(r.ok()) << name << ":\n"
                            << dump(r.cross.diagnostics);
        EXPECT_GT(r.cross.regionEntries, 0u) << name;
        EXPECT_GT(r.cross.instsExecuted, 0u) << name;
        EXPECT_TRUE(r.cross.diagnostics.empty())
            << name << ":\n"
            << dump(r.cross.diagnostics);
    }
}

TEST(CrossCheck, DetectsNarrowedLiveInClaims)
{
    const Formed f = formWorkload("espresso");
    // Strip one live-in from every block region: whichever executes,
    // the replay must observe an unclaimed read.
    core::RegionTable tampered;
    bool stripped = false;
    for (const auto &r : f.table.regions()) {
        core::ReuseRegion copy = r;
        if (!copy.functionLevel && !copy.liveIns.empty()) {
            copy.liveIns.pop_back();
            stripped = true;
        }
        tampered.add(std::move(copy));
    }
    ASSERT_TRUE(stripped);

    emu::Machine machine(*f.workload.module);
    f.workload.prepare(machine, workloads::InputSet::Train);
    const auto res = lint::crossCheck(machine, tampered);
    EXPECT_FALSE(res.ok());
    EXPECT_GE(countRule(res.diagnostics, "lint.dyn.livein"), 1u)
        << dump(res.diagnostics);
}

TEST(CrossCheck, DetectsDroppedMemoryClaims)
{
    const Formed f = formWorkload("compress");
    core::RegionTable tampered;
    bool stripped = false;
    for (const auto &r : f.table.regions()) {
        core::ReuseRegion copy = r;
        if (!copy.memStructs.empty()) {
            copy.memStructs.clear();
            stripped = true;
        }
        tampered.add(std::move(copy));
    }
    ASSERT_TRUE(stripped) << "no memory-dependent region formed";

    emu::Machine machine(*f.workload.module);
    f.workload.prepare(machine, workloads::InputSet::Train);
    const auto res = lint::crossCheck(machine, tampered);
    EXPECT_FALSE(res.ok());
    EXPECT_GE(countRule(res.diagnostics, "lint.dyn.mem"), 1u)
        << dump(res.diagnostics);
}

// ----- dynamic validation of range-narrowed claims -------------------

/** formWorkload with an explicit policy (the range tests need
 *  function-level formation, which the default policy disables). */
Formed
formWorkloadWith(const std::string &name,
                 const core::ReusePolicy &policy)
{
    Formed f;
    f.workload = workloads::buildWorkload(name);
    const auto prof = workloads::profileWorkload(
        f.workload, workloads::InputSet::Train);
    analysis::AliasAnalysis alias(*f.workload.module);
    alias.annotateDeterminableLoads(*f.workload.module);
    core::RegionFormer former(*f.workload.module, prof, alias, policy);
    f.table = former.formAll();
    return f;
}

core::ReusePolicy
functionLevelPolicy()
{
    core::ReusePolicy p;
    p.enableFunctionLevel = true;
    return p;
}

TEST(CrossCheck, RangeClaimedCorpusWorkloadsReplayClean)
{
    // The array-kernel corpus forms function-level regions with
    // narrowed arena claims and elided journal invalidations; the
    // dynamic replay must confirm every load stays inside the claimed
    // bytes and every overlapping store is chased by its invalidate.
    for (const std::string name : {"adpcm", "quantize", "crc32"}) {
        const auto r = workloads::lintWorkload(
            name, functionLevelPolicy(), /*run_crosscheck=*/true);
        ASSERT_TRUE(r.ranCrossCheck);
        EXPECT_TRUE(r.ok()) << name << ":\n"
                            << dump(r.lint.diagnostics) << "\n"
                            << dump(r.cross.diagnostics);
        bool narrowed = false;
        for (const auto &region : r.regions.regions())
            narrowed |= !region.memRanges.empty();
        EXPECT_TRUE(narrowed)
            << name << ": no region carries a narrowed range claim";
    }
}

TEST(CrossCheck, DetectsLoadOutsideTamperedRangeClaim)
{
    // Shrink every narrowed claim to a single byte: the replayed
    // region loads must then land outside it.
    const Formed f = formWorkloadWith("quantize", functionLevelPolicy());
    core::RegionTable tampered;
    bool shrunk = false;
    for (const auto &r : f.table.regions()) {
        core::ReuseRegion copy = r;
        for (auto &mr : copy.memRanges) {
            if (!mr.whole) {
                mr.lo = 0;
                mr.hi = 0;
                shrunk = true;
            }
        }
        tampered.add(std::move(copy));
    }
    ASSERT_TRUE(shrunk) << "no narrowed range claim formed";

    emu::Machine machine(*f.workload.module);
    f.workload.prepare(machine, workloads::InputSet::Train);
    const auto res = lint::crossCheck(machine, tampered);
    EXPECT_FALSE(res.ok());
    EXPECT_GE(countRule(res.diagnostics, "lint.dyn.mem.range"), 1u)
        << dump(res.diagnostics);
}

TEST(CrossCheck, DetectsStoreMissedInvalidateOnWidenedClaim)
{
    // Widen every narrowed claim back to the whole structure while
    // keeping the module's elided invalidations: the journal stores
    // now overlap the claims with no invalidate following — the
    // replay must flag the missing notifications.
    const Formed f = formWorkloadWith("quantize", functionLevelPolicy());
    core::RegionTable tampered;
    bool widened = false;
    for (const auto &r : f.table.regions()) {
        core::ReuseRegion copy = r;
        if (!copy.memRanges.empty()) {
            copy.memRanges.clear();
            widened = true;
        }
        tampered.add(std::move(copy));
    }
    ASSERT_TRUE(widened) << "no narrowed range claim formed";

    emu::Machine machine(*f.workload.module);
    f.workload.prepare(machine, workloads::InputSet::Train);
    const auto res = lint::crossCheck(machine, tampered);
    EXPECT_FALSE(res.ok());
    EXPECT_GE(countRule(res.diagnostics,
                        "lint.dyn.store.missed-invalidate"),
              1u)
        << dump(res.diagnostics);
}

} // namespace
