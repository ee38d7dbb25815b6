/**
 * @file
 * Fault-injection harness: deliberately break every user-facing input
 * and assert that the library degrades the way DESIGN.md §9 promises —
 * structured errors for bad input, clamped-with-warning extrapolation
 * for out-of-range lookups, a watchdog trip (never a hang) for wedged
 * simulations, and no aborts anywhere on the user-input path.
 *
 * Used by the unit tests and by the `lll selftest` CLI subcommand; a
 * deployment can run the same scenarios against an installed binary as
 * a smoke test.
 */

#ifndef LLL_FAULTINJECT_FAULTINJECT_HH
#define LLL_FAULTINJECT_FAULTINJECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace lll::faultinject
{

/** Harness knobs (CLI: `lll selftest --iterations N --seed S`). */
struct Options
{
    uint64_t seed = 1234;
    /** Iterations for the randomized stages (config fuzz, profile
     *  byte-fuzz); the deterministic scenarios always run once. */
    int fuzzIterations = 50;
    bool verbose = false;
};

/** Outcome of one scenario. */
struct ScenarioResult
{
    std::string scenario;
    bool passed = false;
    std::string detail;   //!< what was observed (error text, counts)
};

/** All scenario outcomes of one harness run. */
struct Report
{
    std::vector<ScenarioResult> entries;

    bool allPassed() const;
    int failures() const;
    /** Human-readable per-scenario PASS/FAIL listing. */
    std::string render(bool verbose) const;
};

// --- Profile corruptors (exposed for the unit tests) ----------------

/** Cut the text in the middle of its last point line. */
std::string truncateMidLine(const std::string &text);

/** Insert a line with an unknown key at a random position. */
std::string injectGarbageLine(const std::string &text, Rng &rng);

/** Negate the latency of the first point (physically impossible). */
std::string negatePoint(const std::string &text);

/** Flip @p flips random bytes (may hit digits, keys or newlines). */
std::string flipRandomBytes(const std::string &text, Rng &rng, int flips);

/**
 * The socket front-end under deliberately hostile clients (DESIGN.md
 * §14), each pointed at its own net::LocalServer: a non-JSON line, an
 * oversized line, a slow-loris partial request, a mid-request
 * disconnect, a client that never reads its responses, and a wedged
 * request.  Every scenario asserts the same invariant — the listener
 * answers with a structured error or reaps the connection, and *keeps
 * serving other requests* — and the first four also check the run
 * status after the server stops (the first three its net.* counters
 * too).  These scenarios are the one place tier-1 checks those four
 * contracts.  Implemented in netfaults.cc so the core harness stays
 * free of the net layer.
 */
std::vector<ScenarioResult> listenerScenarios();

/** Run every scenario; never aborts on user-input errors by design. */
Report runAll(const Options &opts = Options());

} // namespace lll::faultinject

#endif // LLL_FAULTINJECT_FAULTINJECT_HH
