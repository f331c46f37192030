/**
 * @file
 * Structural IR verifier. Run after construction and after every
 * transformation pass; returns structured diagnostics (severity +
 * stable "ir.*" rule id + message).
 */

#ifndef CCR_IR_VERIFIER_HH
#define CCR_IR_VERIFIER_HH

#include <vector>

#include "ir/diagnostic.hh"
#include "ir/module.hh"

namespace ccr::ir
{

/** Verify one function; appends diagnostics to @p diags. */
void verifyFunction(const Module &mod, const Function &func,
                    std::vector<Diagnostic> &diags);

/** Verify the whole module. Returns the diagnostics (empty = OK). */
std::vector<Diagnostic> verifyModule(const Module &mod);

/** Verify and ccr_fatal() with the first message on failure. */
void verifyOrDie(const Module &mod);

} // namespace ccr::ir

#endif // CCR_IR_VERIFIER_HH
