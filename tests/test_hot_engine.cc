/**
 * @file
 * Fast-engine tests beyond skip-ahead identity (test_skipahead.cc):
 * the DenseBits struct-of-arrays scan masks, and the kernel-level
 * proofs that memoized quiescence and deferred idle ticks are
 * invisible — the fast engine does the same work at the same cycles
 * as the plain per-cycle loop, every cycle of a component is either
 * ticked or replayed through elide() exactly once, a stamped idle
 * component is served from the memo, and a component without an
 * activity stamp is re-asked at every skip decision and never
 * deferred.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/bitutil.hh"
#include "sim/clocked.hh"

namespace s64v
{
namespace
{

// --- DenseBits: the SoA scan mask ---------------------------------

TEST(DenseBitsSoA, SetClearCountAcrossWordBoundaries)
{
    DenseBits bits;
    bits.resize(130); // three words, last one partial.
    EXPECT_FALSE(bits.any());
    for (std::size_t i : {0u, 63u, 64u, 127u, 128u, 129u})
        bits.set(i);
    EXPECT_TRUE(bits.any());
    EXPECT_EQ(bits.count(), 6u);
    EXPECT_TRUE(bits.test(63));
    EXPECT_FALSE(bits.test(62));
    bits.clear(63);
    EXPECT_FALSE(bits.test(63));
    EXPECT_EQ(bits.count(), 5u);
    bits.assign(63, true);
    bits.assign(0, false);
    EXPECT_TRUE(bits.test(63));
    EXPECT_FALSE(bits.test(0));
    bits.reset();
    EXPECT_FALSE(bits.any());
    EXPECT_EQ(bits.count(), 0u);
}

TEST(DenseBitsSoA, FindFirstSkipsWholeEmptyAndFullWords)
{
    DenseBits bits;
    bits.resize(200);
    EXPECT_EQ(bits.findFirst(), -1);
    EXPECT_EQ(bits.findFirstZero(), 0);
    bits.set(131);
    EXPECT_EQ(bits.findFirst(), 131);
    for (std::size_t i = 0; i < 130; ++i)
        bits.set(i);
    EXPECT_EQ(bits.findFirst(), 0);
    EXPECT_EQ(bits.findFirstZero(), 130);
    for (std::size_t i = 0; i < 200; ++i)
        bits.set(i);
    EXPECT_EQ(bits.findFirstZero(), -1);
}

TEST(DenseBitsSoA, ForEachVisitsInOrderAndHonorsEarlyStop)
{
    DenseBits bits;
    bits.resize(150);
    const std::vector<std::size_t> want{3, 64, 65, 149};
    for (std::size_t i : want)
        bits.set(i);

    std::vector<std::size_t> seen;
    bits.forEach([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, want);

    seen.clear();
    bits.forEach([&](std::size_t i) -> bool {
        seen.push_back(i);
        return i < 64; // stop after the first second-word bit.
    });
    EXPECT_EQ(seen, (std::vector<std::size_t>{3, 64}));
}

// --- Kernel-level components --------------------------------------

/**
 * Does work only at multiples of @p stride (quiescent in between),
 * drains once it has worked at or past @p done_at, and exposes the
 * monotone activity stamp the memoization layer keys on. Counts
 * ticks and nextWorkCycle() calls so the tests can see the memo and
 * the idle-tick deferral engage.
 */
class StampedStrided final : public Clocked
{
  public:
    StampedStrided(Cycle stride, Cycle done_at)
        : stride_(stride), doneAt_(done_at)
    {
    }

    void tick(Cycle cycle) override
    {
        ++ticks;
        if (cycle % stride_ == 0)
            work.push_back(cycle);
    }
    bool done() const override
    {
        return !work.empty() && work.back() >= doneAt_;
    }
    Cycle nextWorkCycle(Cycle now) const override
    {
        ++asks;
        return (now + stride_ - 1) / stride_ * stride_;
    }
    void elide(Cycle from, std::uint64_t cycles) override
    {
        (void)from;
        elided += cycles;
    }
    std::uint64_t activityStamp() const override
    {
        return withStamp ? work.size() : kNoActivityStamp;
    }
    const char *profileClass() const override { return "strided"; }

    std::vector<Cycle> work;
    std::uint64_t ticks = 0;
    std::uint64_t elided = 0;
    mutable std::uint64_t asks = 0;
    bool withStamp = true;

  private:
    Cycle stride_;
    Cycle doneAt_;
};

// --- CycleKernel: memoized quiescence -----------------------------

/**
 * One kernel run of a busy (stride 7) and a mostly idle (stride 1000)
 * component. Both work for the last time at cycle 7000; the kernel
 * sees them drained at the next visited cycle, 7001, which ticks
 * nothing.
 */
struct MemoRun
{
    StampedStrided busy{7, 7000};
    StampedStrided idle{1000, 7000};
    std::uint64_t visited = 0;
    std::uint64_t elided = 0;

    MemoRun(bool fast, bool idle_stamped)
    {
        idle.withStamp = idle_stamped;
        CycleKernel kernel;
        kernel.setSkipAhead(fast);
        kernel.attach(&busy);
        kernel.attach(&idle);
        // Polled without a horizon: counts visited cycles without
        // bounding the skip.
        kernel.attachPolledProbe([this](Cycle) {
            ++visited;
            return true;
        });
        const CycleKernel::Outcome out = kernel.run(100000);
        EXPECT_EQ(out.stop, CycleKernel::Stop::Drained);
        EXPECT_EQ(out.cycle, 7001u);
        elided = kernel.elidedCycles();
    }
};

TEST(CycleKernelMemo, MemoizedRunIsIdenticalAndSkipsIdleScans)
{
    // At nearly every visited cycle the idle component's stamp is
    // unchanged, so the fast engine reuses its cached answer instead
    // of re-asking, and defers its idle ticks.
    const MemoRun plain(false, true);
    const MemoRun fast(true, true);
    EXPECT_EQ(plain.busy.work, fast.busy.work);
    EXPECT_EQ(plain.idle.work, fast.idle.work);
    EXPECT_EQ(plain.elided, 0u);
    EXPECT_GT(fast.elided, 0u);
    // Every cycle the plain loop ticks is, on the fast engine, either
    // a real tick or replayed through elide() — exactly once.
    for (const StampedStrided *c : {&fast.busy, &fast.idle})
        EXPECT_EQ(c->ticks + c->elided, plain.idle.ticks);
    // The memo must actually engage: the idle component is re-asked
    // far less often than once per visited cycle, and its idle ticks
    // on visited cycles are deferred rather than run.
    EXPECT_LT(fast.idle.asks * 2, fast.visited);
    EXPECT_LT(fast.idle.ticks * 2, fast.visited);
}

TEST(CycleKernelMemo, ComponentWithoutStampIsAlwaysReasked)
{
    // kNoActivityStamp opts a component out: the fast engine must ask
    // its nextWorkCycle() at every skip decision while it is live (no
    // early-out — the refreshed memo doubles as the idle-tick
    // deferral proof) and never defer its tick. Only the last two
    // visited cycles (7000, where it drains, and 7001) make no such
    // decision, and only 7001 ticks nothing. Its work still matches
    // the plain loop, and a stamped twin is served from the memo.
    const MemoRun plain(false, false);
    const MemoRun unstamped(true, false);
    const MemoRun stamped(true, true);
    EXPECT_EQ(plain.idle.work, unstamped.idle.work);
    EXPECT_EQ(plain.idle.work, stamped.idle.work);
    EXPECT_EQ(unstamped.idle.asks, unstamped.visited - 2);
    EXPECT_EQ(unstamped.idle.ticks, unstamped.visited - 1);
    EXPECT_EQ(unstamped.idle.ticks + unstamped.idle.elided,
              plain.idle.ticks);
    EXPECT_LT(stamped.idle.asks * 2, unstamped.idle.asks);
}

} // namespace
} // namespace s64v
