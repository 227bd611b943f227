#include "cpu/lsq.hh"

#include <gtest/gtest.h>

#include "ckpt/snapshot.hh"
#include "common/logging.hh"

namespace s64v
{
namespace
{

struct Rig
{
    stats::Group root{"t"};
    MemParams mp;
    CoreParams cp;
    std::unique_ptr<MemSystem> mem;
    std::unique_ptr<LoadStoreQueue> lsq;

    Rig()
    {
        mem = std::make_unique<MemSystem>(mp, 1, &root);
        lsq = std::make_unique<LoadStoreQueue>(cp, 0, *mem, &root);
    }

    /** Warm a line into the L1D. */
    void
    warm(Addr addr)
    {
        mem->data(0, addr, false, 0);
    }
};

TEST(Lsq, LoadHitCompletes)
{
    Rig rig;
    rig.warm(0x1000); // line in flight until ~cycle 200.
    const auto slot = rig.lsq->allocateLoad(100);
    ASSERT_GE(slot, 0);
    rig.lsq->setAddress(slot, false, 0x1008, 400);
    rig.lsq->tick(400);
    ASSERT_EQ(rig.lsq->completedLoads().size(), 1u);
    const LoadCompletion &lc = rig.lsq->completedLoads()[0];
    EXPECT_EQ(lc.seq, 100u);
    EXPECT_TRUE(lc.l1Hit);
    EXPECT_EQ(lc.completion, 400u + rig.mp.l1d.latency);
}

TEST(Lsq, LoadWaitsForAddress)
{
    Rig rig;
    const auto slot = rig.lsq->allocateLoad(100);
    rig.lsq->setAddress(slot, false, 0x1000, 60);
    rig.lsq->tick(50); // before the address is generated.
    EXPECT_TRUE(rig.lsq->completedLoads().empty());
    rig.lsq->tick(60);
    EXPECT_EQ(rig.lsq->completedLoads().size(), 1u);
}

TEST(Lsq, DualPortsTwoPerCycle)
{
    Rig rig;
    rig.warm(0x1000);
    rig.warm(0x2000);
    rig.warm(0x3000);
    // Three ready loads to distinct banks; only two ports.
    const auto s1 = rig.lsq->allocateLoad(1);
    const auto s2 = rig.lsq->allocateLoad(2);
    const auto s3 = rig.lsq->allocateLoad(3);
    rig.lsq->setAddress(s1, false, 0x1000, 400);
    rig.lsq->setAddress(s2, false, 0x2004, 400);
    rig.lsq->setAddress(s3, false, 0x3008, 400);
    rig.lsq->tick(400);
    EXPECT_EQ(rig.lsq->completedLoads().size(), 2u);
    rig.lsq->tick(401);
    EXPECT_EQ(rig.lsq->completedLoads().size(), 3u);
}

TEST(Lsq, BankConflictAbortsYounger)
{
    Rig rig;
    rig.warm(0x1000);
    // Two loads to the same (dword-granular) bank: addresses whose
    // bits [5:3] match.
    const auto s1 = rig.lsq->allocateLoad(1);
    const auto s2 = rig.lsq->allocateLoad(2);
    rig.lsq->setAddress(s1, false, 0x1000, 400);
    rig.lsq->setAddress(s2, false, 0x1040, 400); // same bank 0.
    rig.lsq->tick(400);
    EXPECT_EQ(rig.lsq->completedLoads().size(), 1u);
    EXPECT_EQ(rig.lsq->completedLoads()[0].seq, 1u);
    EXPECT_EQ(rig.lsq->bankConflicts(), 1u);
    rig.lsq->tick(401); // retried.
    EXPECT_EQ(rig.lsq->completedLoads().size(), 2u);
}

TEST(Lsq, StoreToLoadForwarding)
{
    Rig rig;
    const auto st = rig.lsq->allocateStore(1);
    rig.lsq->setAddress(st, true, 0x4000, 5);
    const auto ld = rig.lsq->allocateLoad(2);
    rig.lsq->setAddress(ld, false, 0x4000, 6);
    rig.lsq->tick(10);
    ASSERT_EQ(rig.lsq->completedLoads().size(), 1u);
    EXPECT_EQ(rig.lsq->completedLoads()[0].completion, 11u);
    EXPECT_EQ(rig.lsq->storeForwards(), 1u);
}

TEST(Lsq, NoForwardAcrossDifferentDwords)
{
    Rig rig;
    rig.warm(0x4000);
    const auto st = rig.lsq->allocateStore(1);
    rig.lsq->setAddress(st, true, 0x4000, 400);
    const auto ld = rig.lsq->allocateLoad(2);
    rig.lsq->setAddress(ld, false, 0x4010, 401);
    rig.lsq->tick(401);
    ASSERT_EQ(rig.lsq->completedLoads().size(), 1u);
    EXPECT_EQ(rig.lsq->storeForwards(), 0u);
}

TEST(Lsq, YoungerStoreDoesNotForwardToOlderLoad)
{
    Rig rig;
    rig.warm(0x5000);
    const auto ld = rig.lsq->allocateLoad(1); // older than the store.
    rig.lsq->setAddress(ld, false, 0x5000, 400);
    const auto st = rig.lsq->allocateStore(2);
    rig.lsq->setAddress(st, true, 0x5000, 400);
    rig.lsq->tick(400);
    EXPECT_EQ(rig.lsq->storeForwards(), 0u);
}

TEST(Lsq, StoreWriteIssuesAfterCommitAndFrees)
{
    Rig rig;
    rig.warm(0x6000); // line in flight until ~cycle 200.
    const auto st = rig.lsq->allocateStore(1);
    rig.lsq->setAddress(st, true, 0x6000, 400);
    rig.lsq->tick(401);
    EXPECT_FALSE(rig.lsq->sqEmpty()); // not committed yet.
    rig.lsq->commitStore(st);
    rig.lsq->tick(402); // write issues.
    // Entry frees once the write completes.
    rig.lsq->tick(402 + rig.mp.l1d.latency + 1);
    EXPECT_TRUE(rig.lsq->sqEmpty());
}

TEST(Lsq, SqMissHoldsEntryUntilLineReady)
{
    Rig rig;
    const auto st = rig.lsq->allocateStore(1);
    rig.lsq->setAddress(st, true, 0x777000, 5); // cold: L2+mem miss.
    rig.lsq->commitStore(st);
    rig.lsq->tick(6);
    rig.lsq->tick(20);
    EXPECT_FALSE(rig.lsq->sqEmpty()); // line still in flight.
    rig.lsq->tick(2000);
    EXPECT_TRUE(rig.lsq->sqEmpty());
}

TEST(Lsq, CapacityChecks)
{
    Rig rig;
    for (unsigned i = 0; i < rig.cp.loadQueueEntries; ++i)
        EXPECT_GE(rig.lsq->allocateLoad(i), 0);
    EXPECT_TRUE(rig.lsq->lqFull());
    EXPECT_EQ(rig.lsq->allocateLoad(99), -1);

    for (unsigned i = 0; i < rig.cp.storeQueueEntries; ++i)
        EXPECT_GE(rig.lsq->allocateStore(100 + i), 0);
    EXPECT_TRUE(rig.lsq->sqFull());
    EXPECT_EQ(rig.lsq->allocateStore(199), -1);
}

TEST(Lsq, FreeLoadReleasesSlot)
{
    Rig rig;
    const auto s = rig.lsq->allocateLoad(1);
    rig.lsq->freeLoad(s);
    EXPECT_FALSE(rig.lsq->lqFull());
    EXPECT_TRUE(rig.lsq->drained());
}

TEST(Lsq, PendingCompletionsSurviveCheckpoint)
{
    // Saved after a tick but before the core drained the completions:
    // the restored queue must hand the core the same ones.
    Rig rig;
    rig.warm(0x1000);
    rig.warm(0x2000);
    const auto s1 = rig.lsq->allocateLoad(7);
    const auto s2 = rig.lsq->allocateLoad(8);
    rig.lsq->setAddress(s1, false, 0x1000, 400);
    rig.lsq->setAddress(s2, false, 0x2008, 400); // another bank.
    rig.lsq->tick(400);
    const std::vector<LoadCompletion> want = rig.lsq->completedLoads();
    ASSERT_EQ(want.size(), 2u);

    ckpt::SnapshotWriter w;
    w.beginSection("lsq");
    rig.lsq->saveState(w);
    const std::vector<std::uint8_t> image = w.finish("t");

    Rig other;
    ckpt::SnapshotReader r = ckpt::SnapshotReader::fromBytes(image, "lsq");
    r.openSection("lsq");
    other.lsq->restoreState(r);
    r.closeSection();

    const std::vector<LoadCompletion> &got = other.lsq->completedLoads();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].seq, want[i].seq);
        EXPECT_EQ(got[i].slot, want[i].slot);
        EXPECT_EQ(got[i].completion, want[i].completion);
        EXPECT_EQ(got[i].l1Hit, want[i].l1Hit);
        EXPECT_EQ(got[i].missKnownAt, want[i].missKnownAt);
        EXPECT_EQ(got[i].l2Hit, want[i].l2Hit);
        EXPECT_EQ(got[i].tlbMiss, want[i].tlbMiss);
    }
    // Nothing else was lost either: the restored queue saves the same
    // bytes.
    ckpt::SnapshotWriter again;
    again.beginSection("lsq");
    other.lsq->saveState(again);
    EXPECT_EQ(again.finish("t"), image);

    // A damaged completion whose checksum was resealed reaches the
    // decoder. It must be a clean fatal unless it names the issued
    // load in its slot: the core would mark its seq Done.
    ckpt::SnapshotWriter empty;
    empty.beginSection("lsq");
    const std::size_t payload_end = image.size() - 8; // checksum last.
    const std::size_t payload_begin =
        payload_end - (image.size() - empty.finish("t").size());
    constexpr std::size_t kRecord = 8 + 8 + 8 + 1 + 8 + 1 + 1;
    const std::size_t first = payload_end - want.size() * kRecord;
    struct Case
    {
        const char *what;
        std::size_t at;
        std::uint64_t value;
    };
    const Case cases[] = {
        {"seq of no load", first, 999},
        {"seq of the other load", first, want[1].seq},
        {"slot of the other load", first + 8,
         static_cast<std::uint64_t>(want[1].slot)},
        {"free slot", first + 8, rig.cp.loadQueueEntries - 1},
    };
    setThrowOnError(true);
    for (const Case &c : cases) {
        std::vector<std::uint8_t> bad = image;
        ckpt::storeLe(bad.data() + c.at, c.value);
        ckpt::storeLe(bad.data() + payload_end,
                      ckpt::hashBytes(bad.data() + payload_begin,
                                      payload_end - payload_begin));
        Rig victim;
        ckpt::SnapshotReader br =
            ckpt::SnapshotReader::fromBytes(bad, c.what);
        br.openSection("lsq");
        try {
            victim.lsq->restoreState(br);
            ADD_FAILURE() << c.what << ": the damaged completion restored";
        } catch (const std::runtime_error &e) {
            EXPECT_TRUE(std::string_view(e.what()).starts_with("fatal: "))
                << c.what << ": " << e.what();
        }
    }
    setThrowOnError(false);
}

} // namespace
} // namespace s64v
