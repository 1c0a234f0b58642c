#ifndef MTIA_LINT_RULES_H_
#define MTIA_LINT_RULES_H_

/**
 * @file
 * The mtia-lint rule engine: token-level determinism and hygiene
 * rules (wall-clock, unseeded-rng, raw-output, include-guard,
 * check-side-effect, telemetry-wall-clock, duplicate-include,
 * heap-top-copy, scalar-hot-loop, raw-intrinsics), the determinism
 * rules that need a real lexer (unordered-iteration,
 * pointer-key-ordered, parallel-capture) and the suppression-hygiene
 * rule (bare-allow). Each finding prints as `file:line: [rule] detail`;
 * the fixture ctests match on the `[rule]` part.
 */

#include <string>
#include <vector>

#include "lexer.h"

namespace mtia_lint {

struct Finding
{
    std::string file; ///< path as given (relative to --root when under it)
    int line = 0;
    std::string rule;
    std::string detail;
};

/** Which rule families apply to a file, derived from its path;
 *  --treat-as-src turns the src/, telemetry and sim-core families on
 *  everywhere. */
struct FileContext
{
    bool in_src = false;        ///< raw-output + new determinism rules
    bool logging_exempt = false;///< src/sim/logging may print
    bool telemetry = false;     ///< telemetry-wall-clock applies
    bool sim_core = false;      ///< heap-top-copy applies
    bool dtype_kernel = false;  ///< scalar-hot-loop exempt
    bool simd_kernel = false;   ///< raw-intrinsics exempt (src/core/simd*)
    bool is_header = false;     ///< include-guard applies
};

/** Run every applicable rule over @p lf. Suppressions
 *  (`// sim-lint: allow(<rule>)` on the finding's line) are already
 *  filtered out; a suppression without a trailing justification
 *  yields a bare-allow finding instead. */
std::vector<Finding> runRules(const LexedFile &lf, const std::string &file,
                              const FileContext &ctx);

} // namespace mtia_lint

#endif // MTIA_LINT_RULES_H_
