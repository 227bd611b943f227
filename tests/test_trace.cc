#include "trace/trace.hh"

#include <cstdint>
#include <latch>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "model/fingerprint.hh"
#include "trace/filters.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

TraceRecord
makeRec(Addr pc, InstrClass cls)
{
    TraceRecord r;
    r.pc = pc;
    r.cls = cls;
    if (isMemClass(cls)) {
        r.ea = 0x1000;
        r.size = 8;
    }
    return r;
}

TEST(Trace, AppendAndIndex)
{
    InstrTrace t("wl");
    t.append(makeRec(0x100, InstrClass::IntAlu));
    t.append(makeRec(0x104, InstrClass::Load));
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].pc, 0x100u);
    EXPECT_EQ(t[1].cls, InstrClass::Load);
    EXPECT_EQ(t.workloadName(), "wl");
}

TEST(Trace, VectorSourceIteration)
{
    InstrTrace t;
    for (int i = 0; i < 5; ++i)
        t.append(makeRec(0x100 + 4 * i, InstrClass::IntAlu));

    VectorTraceSource src(t);
    TraceRecord r;
    int n = 0;
    while (src.peek(r)) {
        EXPECT_EQ(r.pc, 0x100u + 4 * n);
        src.pop();
        ++n;
    }
    EXPECT_EQ(n, 5);
    EXPECT_EQ(src.consumed(), 5u);

    src.rewind();
    EXPECT_TRUE(src.peek(r));
    EXPECT_EQ(r.pc, 0x100u);
    EXPECT_EQ(src.consumed(), 0u);
}

TEST(Trace, RecordFlags)
{
    TraceRecord r;
    r.flags = kFlagTaken | kFlagPrivileged;
    EXPECT_TRUE(r.taken());
    EXPECT_TRUE(r.privileged());
    EXPECT_FALSE(r.sharedData());
}

TEST(Trace, SampleClampsToEnd)
{
    InstrTrace t;
    for (int i = 0; i < 10; ++i)
        t.append(makeRec(4 * i, InstrClass::IntAlu));

    const InstrTrace s1 = sampleTrace(t, 4, 3);
    EXPECT_EQ(s1.size(), 3u);
    EXPECT_EQ(s1[0].pc, 16u);

    const InstrTrace s2 = sampleTrace(t, 8, 100);
    EXPECT_EQ(s2.size(), 2u);

    const InstrTrace s3 = sampleTrace(t, 100, 10);
    EXPECT_TRUE(s3.empty());
}

TEST(Trace, PeriodicSampleTakesWindows)
{
    InstrTrace t;
    for (int i = 0; i < 100; ++i)
        t.append(makeRec(4 * i, InstrClass::IntAlu));
    const InstrTrace s = periodicSample(t, 25, 5);
    // Windows at 0, 25, 50, 75: 20 records.
    ASSERT_EQ(s.size(), 20u);
    EXPECT_EQ(s[0].pc, 0u);
    EXPECT_EQ(s[5].pc, 4u * 25);
    EXPECT_EQ(s[10].pc, 4u * 50);
}

TEST(Trace, PeriodicSampleClampsLastWindow)
{
    InstrTrace t;
    for (int i = 0; i < 28; ++i)
        t.append(makeRec(4 * i, InstrClass::IntAlu));
    const InstrTrace s = periodicSample(t, 25, 5);
    EXPECT_EQ(s.size(), 8u); // 5 + 3 (clamped).
}

TEST(Trace, PeriodicSampleRejectsBadGeometry)
{
    setThrowOnError(true);
    InstrTrace t;
    t.append(makeRec(0, InstrClass::IntAlu));
    EXPECT_THROW(periodicSample(t, 4, 5), std::runtime_error);
    EXPECT_THROW(periodicSample(t, 4, 0), std::runtime_error);
    setThrowOnError(false);
}

TEST(Trace, ValidateCatchesBadRecords)
{
    InstrTrace good;
    good.append(makeRec(0x100, InstrClass::Load));
    EXPECT_EQ(validateTrace(good), "");

    InstrTrace bad;
    TraceRecord r = makeRec(0x100, InstrClass::Load);
    r.size = 0;
    bad.append(r);
    EXPECT_NE(validateTrace(bad), "");

    InstrTrace bad2;
    TraceRecord b = makeRec(0x100, InstrClass::BranchCond);
    b.flags = kFlagTaken;
    b.ea = 0;
    bad2.append(b);
    EXPECT_NE(validateTrace(bad2), "");
}

TEST(Trace, SummaryFractions)
{
    InstrTrace t;
    t.append(makeRec(0x100, InstrClass::Load));
    t.append(makeRec(0x104, InstrClass::Store));
    TraceRecord br = makeRec(0x108, InstrClass::BranchCond);
    br.flags = kFlagTaken;
    br.ea = 0x100;
    t.append(br);
    t.append(makeRec(0x10c, InstrClass::IntAlu));

    const TraceSummary s = summarizeTrace(t);
    EXPECT_EQ(s.instructions, 4u);
    EXPECT_DOUBLE_EQ(s.loadFraction, 0.25);
    EXPECT_DOUBLE_EQ(s.storeFraction, 0.25);
    EXPECT_DOUBLE_EQ(s.branchFraction, 0.25);
    EXPECT_DOUBLE_EQ(s.takenFraction, 1.0);
    EXPECT_EQ(s.distinctBranchPcs, 1u);
    EXPECT_FALSE(s.toString().empty());
}

// --- Memoized fingerprint -----------------------------------------

InstrTrace
sampleWorkloadTrace()
{
    return TraceGenerator(tpccProfile(), 1).generate(3001, 0);
}

TEST(TraceFingerprint, MemoEqualsAFreshHashOfTheSameBytes)
{
    const InstrTrace t = sampleWorkloadTrace();
    const std::uint64_t first = fingerprintTrace(t);
    EXPECT_EQ(fingerprintTrace(t), first); // the memo hit.
    EXPECT_EQ(computeTraceFingerprint(t), first);

    // A trace rebuilt record by record never saw the memo.
    InstrTrace rebuilt(t.workloadName());
    for (const TraceRecord &r : t.records())
        rebuilt.append(r);
    EXPECT_EQ(fingerprintTrace(rebuilt), first);
}

TEST(TraceFingerprint, MutationInvalidatesTheMemo)
{
    InstrTrace t = sampleWorkloadTrace();
    const std::uint64_t before = fingerprintTrace(t);

    t.append(makeRec(0x100, InstrClass::IntAlu));
    const std::uint64_t appended = fingerprintTrace(t);
    EXPECT_NE(appended, before);
    EXPECT_EQ(appended, computeTraceFingerprint(t));

    const std::string name = t.workloadName();
    t.setWorkloadName(name + "-renamed");
    EXPECT_NE(fingerprintTrace(t), appended);
    EXPECT_EQ(fingerprintTrace(t), computeTraceFingerprint(t));
    t.setWorkloadName(name);
    EXPECT_EQ(fingerprintTrace(t), appended);
}

TEST(TraceFingerprint, CopiesAndMovesHashEqual)
{
    InstrTrace t = sampleWorkloadTrace();
    const InstrTrace unhashed_copy = t;
    const std::uint64_t want = fingerprintTrace(t);
    EXPECT_EQ(fingerprintTrace(unhashed_copy), want);

    InstrTrace copy = t; // carries the memo.
    EXPECT_EQ(fingerprintTrace(copy), want);
    copy.append(makeRec(0x100, InstrClass::IntAlu));
    EXPECT_NE(fingerprintTrace(copy), want);
    EXPECT_EQ(fingerprintTrace(t), want); // the original is untouched.

    copy = t;
    EXPECT_EQ(fingerprintTrace(copy), want);
    InstrTrace moved = std::move(copy);
    EXPECT_EQ(fingerprintTrace(moved), want);
    // Whatever a moved-from trace holds, its memo matches it.
    EXPECT_EQ(fingerprintTrace(copy), computeTraceFingerprint(copy));
    copy = std::move(moved);
    EXPECT_EQ(fingerprintTrace(copy), want);
    EXPECT_EQ(fingerprintTrace(moved), computeTraceFingerprint(moved));
}

TEST(TraceFingerprint, ConcurrentFirstUseAgrees)
{
    // Sweep workers checkpointing points that share one pooled trace
    // race to fill its memo; every one must see the same value.
    const auto trace =
        std::make_shared<const InstrTrace>(sampleWorkloadTrace());
    constexpr unsigned kThreads = 8;
    std::vector<std::uint64_t> got(kThreads, 0);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            got[i] = fingerprintTrace(*trace);
        });
    }
    for (std::thread &th : threads)
        th.join();
    const std::uint64_t want = computeTraceFingerprint(*trace);
    for (unsigned i = 0; i < kThreads; ++i)
        EXPECT_EQ(got[i], want) << "thread " << i;
}

} // namespace
} // namespace s64v
