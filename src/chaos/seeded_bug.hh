/**
 * @file
 * The deliberately seeded defect used to prove the chaos campaign can
 * actually catch bugs. A chaos engine that has never found anything
 * is indistinguishable from one that cannot find anything; this
 * module arms a small, deterministic stats-only defect that breaks
 * the cache-monotonicity metamorphic invariant without perturbing
 * timing, so the campaign must detect it and the shrinker must reduce
 * it to a minimal reproducer. The defect lives where the invariants
 * read results, not in the model: the chaos runner (runMachine in
 * chaos/invariants.cc) counts the misses of each L2 of 8 MB or larger
 * twice. The model itself never asks whether it is armed.
 *
 * Two ways to arm it, strongest first:
 *   1. setSeededBug(true/false) — explicit programmatic override,
 *      used by the in-process mutation test in the default suite.
 *   2. The S64V_CHAOS_SEEDED_BUG environment variable (any value),
 *      read once per process.
 */

#ifndef S64V_CHAOS_SEEDED_BUG_HH
#define S64V_CHAOS_SEEDED_BUG_HH

namespace s64v::chaos
{

/** Whether the seeded defect is live (see file comment). */
bool seededBugArmed();

/** Arm/disarm explicitly, overriding the environment. */
void setSeededBug(bool armed);

/** Drop the setSeededBug() override; the environment rules. */
void clearSeededBugOverride();

} // namespace s64v::chaos

#endif // S64V_CHAOS_SEEDED_BUG_HH
