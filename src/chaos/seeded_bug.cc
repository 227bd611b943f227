#include "chaos/seeded_bug.hh"

#include <atomic>
#include <cstdlib>

namespace s64v::chaos
{

namespace
{

/** -1 = no override (the environment decides), else 0/1. */
std::atomic<int> seededBugOverride{-1};

} // namespace

bool
seededBugArmed()
{
    // Relaxed: arming is a test-setup action, not something raced
    // against the runs that read it.
    const int v = seededBugOverride.load(std::memory_order_relaxed);
    if (v >= 0)
        return v != 0;
    static const bool armed =
        std::getenv("S64V_CHAOS_SEEDED_BUG") != nullptr;
    return armed;
}

void
setSeededBug(bool armed)
{
    seededBugOverride.store(armed ? 1 : 0, std::memory_order_relaxed);
}

void
clearSeededBugOverride()
{
    seededBugOverride.store(-1, std::memory_order_relaxed);
}

} // namespace s64v::chaos
