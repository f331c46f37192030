/**
 * @file
 * Recursive-descent parser for the textual `.lc` IR syntax that
 * ir::Printer emits (see docs/WORKLOADS.md for the grammar).
 *
 * The parser is total: it never crashes or throws on malformed input.
 * Every error produces a Diagnostic with a 1-based line/column, and
 * parsing synchronizes at the next line so one bad statement yields
 * one diagnostic, not a cascade.
 *
 * Round-trip guarantee: for any module `m` that passes ir::verifyModule,
 * `print(parse(print(m))) == print(m)` byte-for-byte.
 */

#ifndef CCR_TEXT_PARSER_HH
#define CCR_TEXT_PARSER_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ir/module.hh"
#include "text/source.hh"

namespace ccr::text
{

struct ParseResult
{
    /** The parsed module; non-null iff there were no Error-severity
     *  diagnostics (Warn/Note findings — e.g. an unknown `;!`
     *  directive key — do not fail the parse). The module is
     *  syntactically well-formed but callers who need the structural
     *  invariants must still run ir::verifyModule. */
    std::unique_ptr<ir::Module> module;

    std::vector<Diagnostic> errors;

    /** All `;!` pragma lines, in source order (also collected on
     *  failed parses, up to the point parsing stopped). */
    std::vector<Pragma> pragmas;

    /**
     * Source location of each parsed instruction, addressable as
     * instLocs[funcId][inst.uid] (the parser assigns uids densely per
     * function, and Module::clone preserves them). Entries with
     * line == 0 mean "no location" (e.g. compiler-inserted
     * instructions in a transformed clone share the table of the
     * original module and simply have no entry).
     */
    std::vector<std::vector<SourceLoc>> instLocs;

    bool ok() const { return module != nullptr; }
};

/** Parse a `.lc` source buffer. */
ParseResult parseModule(std::string_view source);

/** Parse a `.lc` file from disk. An unreadable file reports a single
 *  diagnostic at 0:0. */
ParseResult parseModuleFile(const std::string &path);

} // namespace ccr::text

#endif // CCR_TEXT_PARSER_HH
