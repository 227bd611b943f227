/**
 * @file
 * Durability tests for the snapshot container (ckpt/snapshot.hh) and
 * the whole-system checkpoint orchestrator (ckpt/checkpoint.hh): the
 * typed put/get API must round-trip exactly, every corruption of a
 * snapshot image (bit flips, truncations, injected write faults) must
 * be rejected with a clean fatal() diagnostic rather than a crash,
 * and a run restored from a checkpoint must complete bit-identically
 * — same SimResult, same stats dump, same golden-checker verdict — to
 * a run that was never interrupted, uniprocessor and 4P alike. The
 * table codecs of the cache arrays and the BHT must write the same
 * bytes as field-by-field puts, and a damaged real whole-system image
 * or component count must fail to restore with fatal(), never crash.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hh"
#include "ckpt/snapshot.hh"
#include "check/fault_inject.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "cpu/branch_pred.hh"
#include "cpu/fetch.hh"
#include "golden/checker.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "model/fingerprint.hh"
#include "model/params.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

#include "address_space_cap.hh"

namespace s64v
{
namespace
{

using testutil::runUnderAddressSpaceCap;

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** Panics/fatals throw for the duration of one scope. */
class ScopedThrow
{
  public:
    ScopedThrow() { setThrowOnError(true); }
    ~ScopedThrow() { setThrowOnError(false); }
};

// --- Snapshot container -------------------------------------------

std::vector<std::uint8_t>
sampleImage()
{
    ckpt::SnapshotWriter w;
    w.beginSection("alpha");
    w.putU8(0xab);
    w.putU16(0xbeef);
    w.putU32(0xdeadbeefu);
    w.putU64(0x0123456789abcdefull);
    w.putBool(true);
    w.putDouble(1.0 / 3.0);
    w.putString("hello snapshot");
    w.beginSection("beta");
    w.putU64Vec({1, 2, 3, 0xffffffffffffffffull});
    w.putI64(-42);
    // A payload of several 32-byte checksum blocks plus a byte tail,
    // so the fuzz tests below flip bits in every part of hashBytes().
    w.beginSection("bulk");
    for (unsigned i = 0; i < 109; ++i)
        w.putU8(static_cast<std::uint8_t>(i * 37 + 11));
    return w.finish("s64v-test");
}

TEST(Snapshot, TypedValuesRoundTripExactly)
{
    ckpt::SnapshotReader r =
        ckpt::SnapshotReader::fromBytes(sampleImage(), "mem");
    EXPECT_EQ(r.modelVersion(), "s64v-test");
    EXPECT_TRUE(r.hasSection("alpha"));
    EXPECT_TRUE(r.hasSection("beta"));
    EXPECT_FALSE(r.hasSection("gamma"));

    // Sections may be opened in any order, each consumed exactly.
    r.openSection("beta");
    EXPECT_EQ(r.getU64Vec(),
              (std::vector<std::uint64_t>{
                  1, 2, 3, 0xffffffffffffffffull}));
    EXPECT_EQ(r.getI64(), -42);
    r.closeSection();

    r.openSection("alpha");
    EXPECT_EQ(r.getU8(), 0xab);
    EXPECT_EQ(r.getU16(), 0xbeef);
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.getBool());
    EXPECT_EQ(r.getDouble(), 1.0 / 3.0); // bit-exact, not approx.
    EXPECT_EQ(r.getString(), "hello snapshot");
    r.closeSection();
}

TEST(Snapshot, UnderAndOverConsumptionAreRejected)
{
    ScopedThrow guard;
    {
        ckpt::SnapshotReader r =
            ckpt::SnapshotReader::fromBytes(sampleImage(), "mem");
        r.openSection("beta");
        EXPECT_THROW(
            {
                // Only 5*8 + 8 bytes exist; a 6-element vector read
                // runs past the section end.
                r.getU64Vec();
                r.getU64Vec();
            },
            std::runtime_error);
    }
    {
        ckpt::SnapshotReader r =
            ckpt::SnapshotReader::fromBytes(sampleImage(), "mem");
        r.openSection("beta");
        r.getU64Vec();
        // -42 left unread: the layout mismatch must be loud.
        EXPECT_THROW(r.closeSection(), std::runtime_error);
    }
    {
        ckpt::SnapshotReader r =
            ckpt::SnapshotReader::fromBytes(sampleImage(), "mem");
        EXPECT_THROW(r.openSection("gamma"), std::runtime_error);
    }
}

TEST(Snapshot, EveryBitFlipIsDetectedNeverACrash)
{
    runUnderAddressSpaceCap([] {
        const std::vector<std::uint8_t> good = sampleImage();
        const ckpt::SnapshotReader ref =
            ckpt::SnapshotReader::fromBytes(good, "ref");

        ScopedThrow guard;
        std::size_t rejected = 0;
        for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
            std::vector<std::uint8_t> bad = good;
            bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            // A damaged image must either fail validation with a clean
            // diagnostic, or — when the flip lands in an unchecksummed
            // header string (model version, a section name) — still parse
            // into something visibly different from the original, which
            // the restore-side identity checks then reject. What it must
            // never do is crash or reproduce the pristine snapshot.
            try {
                ckpt::SnapshotReader r = ckpt::SnapshotReader::fromBytes(
                    std::move(bad), "fuzz");
                EXPECT_TRUE(r.modelVersion() != ref.modelVersion() ||
                            !r.hasSection("alpha") ||
                            !r.hasSection("beta") ||
                            !r.hasSection("bulk"))
                    << "undetected flip of bit " << bit;
            } catch (const std::runtime_error &) {
                ++rejected;
            }
        }
        // The checksummed payload bytes are the bulk of the image, so the
        // overwhelming majority of flips must be hard rejections.
        EXPECT_GT(rejected, good.size() * 8 / 2);
    });
}

TEST(Snapshot, EveryTruncationIsRejectedCleanly)
{
    runUnderAddressSpaceCap([] {
        const std::vector<std::uint8_t> good = sampleImage();
        ScopedThrow guard;
        for (std::size_t len = 0; len < good.size(); ++len) {
            std::vector<std::uint8_t> bad(good.begin(),
                                          good.begin() +
                                              static_cast<long>(len));
            EXPECT_THROW(ckpt::SnapshotReader::fromBytes(std::move(bad),
                                                         "truncated"),
                         std::runtime_error)
                << "prefix of " << len << " bytes parsed";
        }
        // Appended garbage is equally fatal.
        std::vector<std::uint8_t> padded = good;
        padded.push_back(0);
        EXPECT_THROW(
            ckpt::SnapshotReader::fromBytes(std::move(padded), "padded"),
            std::runtime_error);
    });
}

TEST(Snapshot, OldFormatVersionIsRejectedByVersionNotChecksum)
{
    // The header of an image written by a format-1 build: same magic,
    // version field 1. It must fail on the version, up front, not on
    // the first checksum that no longer matches.
    std::vector<std::uint8_t> old = sampleImage();
    const std::uint8_t v1[4] = {1, 0, 0, 0};
    std::memcpy(old.data() + 8, v1, sizeof v1);
    ScopedThrow guard;
    try {
        ckpt::SnapshotReader::fromBytes(std::move(old), "v1");
        FAIL() << "a format-1 image parsed";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported format version 1 (this build "
                      "reads version 2)"),
                  std::string::npos)
            << e.what();
    }
}

// --- The section checksum -----------------------------------------

std::vector<std::uint8_t>
patternBytes(std::size_t len)
{
    std::vector<std::uint8_t> v(len);
    for (std::size_t i = 0; i < len; ++i)
        v[i] = static_cast<std::uint8_t>(i * 7 + 1);
    return v;
}

TEST(Snapshot, ChecksumKnownAnswers)
{
    // Pinned: a change to hashBytes() orphans every snapshot written
    // before it, so it must come with a format version bump and new
    // values here, never by accident.
    const std::vector<std::uint8_t> b = patternBytes(100);
    EXPECT_EQ(ckpt::hashBytes(nullptr, 0), 0x50f39765693d1085ull);
    EXPECT_EQ(ckpt::hashBytes("abc", 3), 0xb9de38f36eb8948full);
    EXPECT_EQ(ckpt::hashBytes(b.data(), 32), 0x09524245cd79febaull);
    EXPECT_EQ(ckpt::hashBytes(b.data(), 100), 0xffc32695da7d227eull);
    EXPECT_EQ(ckpt::hashBytes(b.data(), 100, 0x5eed),
              0xf437cbe39f5e19dfull);
    // fnv1a() keys the sweep journal; its output must not move.
    EXPECT_EQ(ckpt::fnv1a(nullptr, 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(ckpt::fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
}

TEST(Snapshot, ChecksumIsTheSameAtEveryAlignment)
{
    const std::vector<std::uint8_t> b = patternBytes(96);
    const std::uint64_t want = ckpt::hashBytes(b.data(), b.size());
    std::vector<std::uint8_t> buf(b.size() + 8);
    for (std::size_t off = 0; off < 8; ++off) {
        std::memcpy(buf.data() + off, b.data(), b.size());
        EXPECT_EQ(ckpt::hashBytes(buf.data() + off, b.size()), want)
            << "offset " << off;
    }
}

TEST(Snapshot, ChecksumCatchesEverySingleBitFlip)
{
    // Every length up to three full blocks: all four lanes, several
    // blocks, whole tail words and every partial tail length.
    for (std::size_t len = 0; len <= 96; ++len) {
        std::vector<std::uint8_t> b = patternBytes(len);
        const std::uint64_t want = ckpt::hashBytes(b.data(), len);
        for (std::size_t bit = 0; bit < len * 8; ++bit) {
            b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            EXPECT_NE(ckpt::hashBytes(b.data(), len), want)
                << "len " << len << " bit " << bit;
            b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
    }
}

TEST(Snapshot, ChecksumCatchesPairedTopBitFlips)
{
    // A plain (h ^ w) * odd step carries a flip of a word's top bit
    // only into the state's top bit, so any two such flips cancel;
    // the rotation in hashBytes() must prevent that.
    std::vector<std::uint8_t> b = patternBytes(96);
    const std::uint64_t want = ckpt::hashBytes(b.data(), b.size());
    for (std::size_t i = 0; i < 12; ++i) {
        for (std::size_t j = i + 1; j < 12; ++j) {
            b[8 * i + 7] ^= 0x80;
            b[8 * j + 7] ^= 0x80;
            EXPECT_NE(ckpt::hashBytes(b.data(), b.size()), want)
                << "words " << i << " and " << j;
            b[8 * i + 7] ^= 0x80;
            b[8 * j + 7] ^= 0x80;
        }
    }
}



// --- Whole-system checkpoint/restore ------------------------------

std::vector<InstrTrace>
makeTraces(const WorkloadProfile &profile, unsigned num_cpus,
           std::size_t instrs)
{
    TraceGenerator gen(profile, num_cpus);
    std::vector<InstrTrace> traces;
    for (unsigned cpu = 0; cpu < num_cpus; ++cpu)
        traces.push_back(gen.generate(instrs, cpu));
    return traces;
}

void
attachAll(System &sys, const std::vector<InstrTrace> &traces)
{
    for (CpuId cpu = 0; cpu < traces.size(); ++cpu)
        sys.attachTrace(cpu, traces[cpu]);
}

struct RunOutcome
{
    SimResult res;
    std::string stats;
};

RunOutcome
runFull(const SystemParams &sp, const std::vector<InstrTrace> &traces)
{
    System sys(sp);
    attachAll(sys, traces);
    RunOutcome out;
    out.res = sys.run();
    out.stats = sys.statsDump();
    return out;
}

/**
 * Run with a stop-at-checkpoint at @p at, then restore a fresh System
 * from the file and run it to completion — the interrupted path whose
 * outcome must be indistinguishable from runFull()'s.
 */
RunOutcome
runThroughCheckpoint(const SystemParams &sp,
                     const std::vector<InstrTrace> &traces, Cycle at,
                     const std::string &path)
{
    {
        SystemParams cp = sp;
        cp.checkpoint.atCycle = at;
        cp.checkpoint.path = path;
        cp.checkpoint.stopAfter = true;
        System sys(cp);
        attachAll(sys, traces);
        const SimResult first = sys.run();
        EXPECT_TRUE(first.stoppedAtCheckpoint);
        EXPECT_FALSE(first.hitCycleCap);
    }
    System sys(sp);
    attachAll(sys, traces);
    ckpt::restoreSystemCheckpoint(sys, path);
    RunOutcome out;
    out.res = sys.run();
    out.stats = sys.statsDump();
    return out;
}

void
expectSameSim(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.measured, b.measured);
    EXPECT_EQ(a.ipc, b.ipc); // bit-identical, not approximately.
    EXPECT_EQ(a.warmupEndCycle, b.warmupEndCycle);
    EXPECT_EQ(a.hitCycleCap, b.hitCycleCap);
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t c = 0; c < a.cores.size(); ++c) {
        EXPECT_EQ(a.cores[c].committed, b.cores[c].committed);
        EXPECT_EQ(a.cores[c].measured, b.cores[c].measured);
        EXPECT_EQ(a.cores[c].lastCommitCycle,
                  b.cores[c].lastCommitCycle);
        EXPECT_EQ(a.cores[c].ipc, b.cores[c].ipc);
    }
}

TEST(Checkpoint, UpSpecRestoreIsBitIdentical)
{
    constexpr std::size_t kInstrs = 20000;
    SystemParams sp = sparc64vBase().sys;
    sp.warmupInstrs = kInstrs / 5;
    const std::vector<InstrTrace> traces =
        makeTraces(specint95Profile(), 1, kInstrs);

    const RunOutcome base = runFull(sp, traces);
    ASSERT_FALSE(base.res.hitCycleCap);
    ASSERT_EQ(checkReplay(traces[0], base.res), "");
    ASSERT_GT(base.res.warmupEndCycle, 0u);

    // One cut inside the warm-up window, one inside the measurement
    // window: both the pre-reset and post-reset bookkeeping must
    // survive the round trip.
    const Cycle cuts[2] = {
        base.res.warmupEndCycle / 2,
        base.res.warmupEndCycle + base.res.cycles / 2};
    for (const Cycle at : cuts) {
        const std::string path = tempPath("up_spec.ckpt");
        const RunOutcome resumed =
            runThroughCheckpoint(sp, traces, at, path);
        expectSameSim(base.res, resumed.res);
        EXPECT_EQ(base.stats, resumed.stats)
            << "stats dump diverged for a checkpoint at cycle " << at;
        EXPECT_EQ(checkReplay(traces[0], resumed.res), "");
        EXPECT_EQ(checkAgainstGolden(traces[0], resumed.res),
                  checkAgainstGolden(traces[0], base.res));
        std::remove(path.c_str());
    }
}

TEST(Checkpoint, SmpTpccRestoreIsBitIdentical)
{
    constexpr std::size_t kInstrsPerCpu = 6000;
    SystemParams sp = sparc64vBase(4).sys;
    sp.warmupInstrs = kInstrsPerCpu / 5;
    const std::vector<InstrTrace> traces =
        makeTraces(tpccProfile(), 4, kInstrsPerCpu);

    const RunOutcome base = runFull(sp, traces);
    ASSERT_FALSE(base.res.hitCycleCap);
    ASSERT_EQ(base.res.cores.size(), 4u);
    for (CpuId cpu = 0; cpu < 4; ++cpu)
        ASSERT_EQ(checkReplay(traces[cpu], base.res, cpu), "");

    const std::string path = tempPath("smp_tpcc.ckpt");
    const Cycle at = base.res.warmupEndCycle + base.res.cycles / 2;
    const RunOutcome resumed =
        runThroughCheckpoint(sp, traces, at, path);
    expectSameSim(base.res, resumed.res);
    EXPECT_EQ(base.stats, resumed.stats);
    for (CpuId cpu = 0; cpu < 4; ++cpu)
        EXPECT_EQ(checkReplay(traces[cpu], resumed.res, cpu), "");
    std::remove(path.c_str());
}

TEST(Checkpoint, MidRunCheckpointDoesNotPerturbTheRun)
{
    constexpr std::size_t kInstrs = 12000;
    const SystemParams sp = sparc64vBase().sys;
    const std::vector<InstrTrace> traces =
        makeTraces(specint2000Profile(), 1, kInstrs);
    const RunOutcome base = runFull(sp, traces);

    // Checkpoint without stopping: the run carries on to completion
    // and must be unaffected by the snapshot being cut mid-flight.
    const std::string path = tempPath("passthrough.ckpt");
    SystemParams cp = sp;
    cp.checkpoint.atCycle = base.res.cycles / 2;
    cp.checkpoint.path = path;
    cp.checkpoint.stopAfter = false;
    System sys(cp);
    attachAll(sys, traces);
    const SimResult through = sys.run();
    EXPECT_FALSE(through.stoppedAtCheckpoint);
    expectSameSim(base.res, through);
    EXPECT_EQ(base.stats, sys.statsDump());

    // And the file it left behind is itself a valid resume point.
    System resumed(sp);
    attachAll(resumed, traces);
    ckpt::restoreSystemCheckpoint(resumed, path);
    expectSameSim(base.res, resumed.run());
    std::remove(path.c_str());
}

TEST(Checkpoint, MismatchedConfigurationIsRejected)
{
    constexpr std::size_t kInstrs = 8000;
    const std::vector<InstrTrace> traces =
        makeTraces(tpccProfile(), 1, kInstrs);
    const std::string path = tempPath("mismatch.ckpt");

    SystemParams sp = sparc64vBase().sys;
    sp.checkpoint.atCycle = 2000;
    sp.checkpoint.path = path;
    sp.checkpoint.stopAfter = true;
    System writer(sp);
    attachAll(writer, traces);
    ASSERT_TRUE(writer.run().stoppedAtCheckpoint);

    ScopedThrow guard;
    {
        // A different machine configuration must be rejected up
        // front: restoring a 4-wide snapshot into a 2-wide machine
        // can only diverge.
        System narrow(withIssueWidth(sparc64vBase(), 2).sys);
        attachAll(narrow, traces);
        EXPECT_THROW(ckpt::restoreSystemCheckpoint(narrow, path),
                     std::runtime_error);
    }
    {
        // Same machine, different workload: the per-CPU trace
        // identity hash must catch it.
        System other(sparc64vBase().sys);
        attachAll(other,
                  makeTraces(specint95Profile(), 1, kInstrs));
        EXPECT_THROW(ckpt::restoreSystemCheckpoint(other, path),
                     std::runtime_error);
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, FlippedTraceRecordIsRejected)
{
    // Same workload name and length as the checkpointed trace, one bit
    // different: only the record-bytes hash can tell them apart. The
    // length is chosen so the records do not fill whole 32-byte hash
    // blocks, which puts the last record in the tail words hashBytes()
    // folds after its lanes.
    constexpr std::size_t kInstrs = 8002;
    static_assert(kInstrs * sizeof(TraceRecord) % 32 != 0);
    const std::vector<InstrTrace> traces =
        makeTraces(tpccProfile(), 1, kInstrs);
    const std::string path = tempPath("trace_flip.ckpt");

    SystemParams sp = sparc64vBase().sys;
    sp.checkpoint.atCycle = 2000;
    sp.checkpoint.path = path;
    sp.checkpoint.stopAfter = true;
    System writer(sp);
    attachAll(writer, traces);
    ASSERT_TRUE(writer.run().stoppedAtCheckpoint);

    ScopedThrow guard;
    // First record, a middle one (hashed in the lanes), and the last
    // (hashed in the tail); a low bit of the first byte and a high bit
    // of the last.
    const std::size_t at[3][2] = {
        {0, 0}, {kInstrs / 2, 8 * sizeof(TraceRecord) - 1},
        {kInstrs - 1, 8 * sizeof(TraceRecord) - 1}};
    for (const auto &[rec, bit] : at) {
        // Rebuilt through append(), the only way to change a trace's
        // records, so the flipped copy cannot carry the memoized
        // fingerprint of the original.
        std::vector<InstrTrace> flipped(
            1, InstrTrace(traces[0].workloadName()));
        for (std::size_t i = 0; i < traces[0].size(); ++i) {
            TraceRecord r = traces[0][i];
            if (i == rec) {
                auto *bytes = reinterpret_cast<unsigned char *>(&r);
                bytes[bit / 8] ^=
                    static_cast<unsigned char>(1u << (bit % 8));
            }
            flipped[0].append(r);
        }
        ASSERT_EQ(flipped[0].workloadName(), traces[0].workloadName());
        ASSERT_EQ(flipped[0].size(), traces[0].size());
        System reader(sparc64vBase().sys);
        attachAll(reader, flipped);
        EXPECT_THROW(ckpt::restoreSystemCheckpoint(reader, path),
                     std::runtime_error)
            << "record " << rec << " bit " << bit;
    }
    // The untouched trace still restores.
    System reader(sparc64vBase().sys);
    attachAll(reader, traces);
    EXPECT_NO_THROW(ckpt::restoreSystemCheckpoint(reader, path));
    std::remove(path.c_str());
}

TEST(Checkpoint, DamagedFetchCountsAreCleanFatals)
{
    // Fetch-section counts whose checksum was resealed reach the
    // decoder. Each must be checked against the configured machine
    // before it sizes an allocation: a clean fatal(), never bad_alloc.
    stats::Group root("t");
    const CoreParams cp;
    const MemParams mp;
    MemSystem mem(mp, 1, &root);
    BranchPredictor bpred(cp.bpred, &root);
    FetchUnit fetch(cp, 0, bpred, mem, &root);

    constexpr std::uint64_t kHuge = 1ull << 40;
    struct Case
    {
        const char *what;
        std::uint64_t groups, groupSize, queue;
    };
    const Case cases[] = {{"group count", kHuge, 0, 0},
                          {"group size", 1, kHuge, 0},
                          {"queue count", 0, 0, kHuge}};
    runUnderAddressSpaceCap([&] {
        ScopedThrow guard;
        for (const Case &c : cases) {
            ckpt::SnapshotWriter w;
            w.beginSection("fetch");
            w.putU64(c.groups);
            if (c.groups) {
                w.putU64(0); // availableAt
                w.putU64(c.groupSize);
            } else {
                w.putU64(c.queue);
            }
            ckpt::SnapshotReader r =
                ckpt::SnapshotReader::fromBytes(w.finish("t"), c.what);
            r.openSection("fetch");
            try {
                fetch.restoreState(r);
                ADD_FAILURE() << c.what << ": the damaged count restored";
            } catch (const std::runtime_error &e) {
                EXPECT_TRUE(
                    std::string_view(e.what()).starts_with("fatal: "))
                    << c.what << ": " << e.what();
            }
        }
    });
}

TEST(Checkpoint, InjectedWriteCorruptionIsCaughtOnRestore)
{
    constexpr std::size_t kInstrs = 8000;
    const std::vector<InstrTrace> traces =
        makeTraces(tpccProfile(), 1, kInstrs);
    const std::string path = tempPath("corrupt.ckpt");

    std::string sink;
    setLogSink(&sink);
    check::activeFaultPlan().parse("corrupt-ckpt:4242");
    SystemParams sp = sparc64vBase().sys;
    sp.checkpoint.atCycle = 2000;
    sp.checkpoint.path = path;
    sp.checkpoint.stopAfter = true;
    System writer(sp);
    attachAll(writer, traces);
    ASSERT_TRUE(writer.run().stoppedAtCheckpoint);
    check::activeFaultPlan().clear();
    check::armFaultExitCode();
    setLogSink(nullptr);
    EXPECT_NE(sink.find("flipped a bit"), std::string::npos) << sink;

    ScopedThrow guard;
    System reader(sparc64vBase().sys);
    attachAll(reader, traces);
    EXPECT_THROW(ckpt::restoreSystemCheckpoint(reader, path),
                 std::runtime_error);
    std::remove(path.c_str());
}

// --- Table codecs --------------------------------------------------

/** The snapshot image of one section "t" written by @p save. */
std::vector<std::uint8_t>
sectionImage(const std::function<void(ckpt::SnapshotWriter &)> &save)
{
    ckpt::SnapshotWriter w;
    w.beginSection("t");
    save(w);
    return w.finish("s64v-test");
}

TEST(Checkpoint, TableEncodingMatchesFieldEncoding)
{
    // A cache array with valid, dirty, prefetched and evicted lines.
    CacheParams cp;
    cp.sizeBytes = 16 << 10;
    cp.assoc = 4;
    CacheArray cache(cp);
    Rng rng(7);
    for (int i = 0; i < 600; ++i) {
        const Addr a = rng.below(64 << 10);
        if (i % 7 == 0)
            cache.invalidate(a);
        else if (!cache.access(a))
            cache.insert(a, i % 3 == 0, i % 5 == 0);
    }
    std::size_t dirty = 0;
    std::size_t prefetched = 0;
    for (const CacheArray::Line &l : cache.lines()) {
        dirty += l.valid && l.dirty;
        prefetched += l.valid && l.prefetched;
    }
    ASSERT_GT(cache.validLines(), 0u);
    ASSERT_LT(cache.validLines(), cache.lines().size());
    ASSERT_GT(dirty, 0u);
    ASSERT_GT(prefetched, 0u);

    const std::vector<std::uint8_t> cache_img =
        sectionImage([&](ckpt::SnapshotWriter &w) { cache.saveState(w); });
    const std::vector<std::uint8_t> cache_ref =
        sectionImage([&](ckpt::SnapshotWriter &w) {
            w.putU64(cache.lruTick());
            w.putU64(cache.lines().size());
            for (const CacheArray::Line &l : cache.lines()) {
                w.putU64(l.tag);
                w.putU8(static_cast<std::uint8_t>(
                    (l.valid ? 1 : 0) | (l.dirty ? 2 : 0) |
                    (l.prefetched ? 4 : 0)));
                w.putU64(l.lru);
            }
        });
    EXPECT_EQ(cache_img, cache_ref);

    CacheArray cache_back(cp);
    ckpt::SnapshotReader cr =
        ckpt::SnapshotReader::fromBytes(cache_img, "cache");
    cr.openSection("t");
    cache_back.restoreState(cr);
    cr.closeSection();
    EXPECT_EQ(cache_back.lruTick(), cache.lruTick());
    ASSERT_EQ(cache_back.lines().size(), cache.lines().size());
    for (std::size_t i = 0; i < cache.lines().size(); ++i) {
        const CacheArray::Line &a = cache.lines()[i];
        const CacheArray::Line &b = cache_back.lines()[i];
        EXPECT_TRUE(a.tag == b.tag && a.valid == b.valid &&
                    a.dirty == b.dirty &&
                    a.prefetched == b.prefetched && a.lru == b.lru)
            << "line " << i;
    }

    // A BHT with valid entries at every counter value.
    stats::Group g("t");
    BranchPredParams bp;
    BranchPredictor bht(bp, &g);
    for (int i = 0; i < 20000; ++i) {
        const Addr pc = 0x10000 + 4 * rng.below(1 << 15);
        const bool taken = rng.below(3) != 0;
        bht.predict(pc, taken);
        bht.update(pc, taken);
    }
    unsigned counters = 0;
    for (const BranchPredictor::Entry &e : bht.entries()) {
        if (e.valid)
            counters |= 1u << e.counter;
    }
    ASSERT_EQ(counters, 0xfu);

    const std::vector<std::uint8_t> bht_img =
        sectionImage([&](ckpt::SnapshotWriter &w) { bht.saveState(w); });
    const std::vector<std::uint8_t> bht_ref =
        sectionImage([&](ckpt::SnapshotWriter &w) {
            w.putU64(bht.lruTick());
            w.putU64(bht.entries().size());
            for (const BranchPredictor::Entry &e : bht.entries()) {
                w.putU64(e.tag);
                w.putU8(e.counter);
                w.putBool(e.valid);
                w.putU64(e.lru);
            }
        });
    EXPECT_EQ(bht_img, bht_ref);

    stats::Group g_back("t");
    BranchPredictor bht_back(bp, &g_back);
    ckpt::SnapshotReader br =
        ckpt::SnapshotReader::fromBytes(bht_img, "bht");
    br.openSection("t");
    bht_back.restoreState(br);
    br.closeSection();
    EXPECT_EQ(bht_back.lruTick(), bht.lruTick());
    ASSERT_EQ(bht_back.entries().size(), bht.entries().size());
    for (std::size_t i = 0; i < bht.entries().size(); ++i) {
        const BranchPredictor::Entry &a = bht.entries()[i];
        const BranchPredictor::Entry &b = bht_back.entries()[i];
        EXPECT_TRUE(a.tag == b.tag && a.counter == b.counter &&
                    a.valid == b.valid && a.lru == b.lru)
            << "entry " << i;
    }
}

TEST(Checkpoint, TableGeometryMismatchIsRejectedBeforeTheTableRead)
{
    // The record count is checked against the configured table before
    // the table is taken, so a snapshot from another geometry fails
    // on the geometry, not on a read sized from the file.
    CacheParams small;
    small.sizeBytes = 8 << 10;
    small.assoc = 2;
    CacheArray from(small);
    CacheParams big = small;
    big.sizeBytes = 16 << 10;
    CacheArray into(big);
    ckpt::SnapshotReader r = ckpt::SnapshotReader::fromBytes(
        sectionImage([&](ckpt::SnapshotWriter &w) { from.saveState(w); }),
        "geometry");
    ScopedThrow guard;
    r.openSection("t");
    try {
        into.restoreState(r);
        FAIL() << "a smaller cache's table restored";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("cache geometry differs"),
                  std::string::npos)
            << e.what();
    }
}

// --- Damage to a real whole-system image ---------------------------

/** Where the container's structure lies in a snapshot image. */
struct ImageLayout
{
    /**
     * Every offset where the structure changes: the header fields,
     * and per section the record start, payload start, payload end
     * and record end.
     */
    std::vector<std::size_t> offsets;
    /** Each section's payload as [begin, end); its checksum at end. */
    std::vector<std::pair<std::size_t, std::size_t>> payloads;
};

ImageLayout
imageLayout(const std::vector<std::uint8_t> &img)
{
    auto le = [&](std::size_t at, unsigned n) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i)
            v |= static_cast<std::uint64_t>(img.at(at + i)) << (8 * i);
        return static_cast<std::size_t>(v);
    };
    ImageLayout out;
    out.offsets = {0, 8, 12, 16};
    const std::size_t count = le(12, 4);
    std::size_t at = 16 + 4 + le(16, 4); // past the model version
    out.offsets.push_back(at);
    for (std::size_t i = 0; i < count; ++i) {
        at += 4 + le(at, 4); // name
        out.offsets.push_back(at);
        const std::size_t size = le(at, 8);
        at += 8;
        out.offsets.push_back(at);
        out.payloads.emplace_back(at, at + size);
        at += size;
        out.offsets.push_back(at);
        at += 8; // checksum
        out.offsets.push_back(at);
    }
    EXPECT_EQ(at, img.size());
    return out;
}

/** A small 1P TPC-C checkpoint image and the traces it was cut from. */
struct RealImage
{
    std::vector<InstrTrace> traces;
    std::vector<std::uint8_t> bytes;
};

RealImage
cutRealImage(const std::string &path)
{
    RealImage img;
    img.traces = makeTraces(tpccProfile(), 1, 8000);
    SystemParams sp = sparc64vBase().sys;
    sp.checkpoint.atCycle = 2000;
    sp.checkpoint.path = path;
    sp.checkpoint.stopAfter = true;
    System writer(sp);
    attachAll(writer, img.traces);
    EXPECT_TRUE(writer.run().stoppedAtCheckpoint);
    std::ifstream in(path, std::ios::binary);
    img.bytes.assign(std::istreambuf_iterator<char>(in), {});
    return img;
}

/**
 * Write @p bytes to @p path and restore a fresh System from it: the
 * restore must fail through fatal(). Any other exception (bad_alloc
 * from a read sized by a damaged count) escapes to the caller.
 */
void
expectFatalRestore(const std::vector<std::uint8_t> &bytes,
                   const std::vector<InstrTrace> &traces,
                   const std::string &path, const std::string &what)
{
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    System sys(sparc64vBase().sys);
    attachAll(sys, traces);
    try {
        ckpt::restoreSystemCheckpoint(sys, path);
        ADD_FAILURE() << what << ": the damaged image restored";
    } catch (const std::runtime_error &e) {
        EXPECT_TRUE(std::string_view(e.what()).starts_with("fatal: "))
            << what << ": " << e.what();
    }
}

TEST(Checkpoint, TruncatedRealImageIsRejectedNeverACrash)
{
    const std::string path = tempPath("real_trunc.ckpt");
    const RealImage img = cutRealImage(path);
    ASSERT_GT(img.bytes.size(), 0u);
    {
        // The pristine image restores, so every failure below is the
        // damage's.
        System sys(sparc64vBase().sys);
        attachAll(sys, img.traces);
        ckpt::restoreSystemCheckpoint(sys, path);
    }

    std::vector<std::size_t> lens;
    for (const std::size_t at : imageLayout(img.bytes).offsets) {
        for (const std::size_t len : {at - 1, at, at + 1}) {
            if (at > 0 && len < img.bytes.size())
                lens.push_back(len);
        }
    }
    Rng rng(0x7a11);
    for (int i = 0; i < 200; ++i)
        lens.push_back(rng.below(img.bytes.size()));

    runUnderAddressSpaceCap([&] {
        ScopedThrow guard;
        for (const std::size_t len : lens) {
            const std::vector<std::uint8_t> cut(
                img.bytes.begin(),
                img.bytes.begin() + static_cast<long>(len));
            expectFatalRestore(cut, img.traces, path,
                               "prefix of " + std::to_string(len) +
                                   " bytes");
        }
    });
    std::remove(path.c_str());
}

TEST(Checkpoint, BitFlippedRealImageIsRejectedNeverACrash)
{
    const std::string path = tempPath("real_flip.ckpt");
    const RealImage img = cutRealImage(path);
    ASSERT_GT(img.bytes.size(), 0u);

    Rng rng(0xf11b);
    std::vector<std::size_t> bits;
    for (int i = 0; i < 200; ++i)
        bits.push_back(rng.below(img.bytes.size() * 8));
    // And one flip inside every header field and section frame.
    for (const std::size_t at : imageLayout(img.bytes).offsets) {
        if (at < img.bytes.size())
            bits.push_back(8 * at + rng.below(8));
    }

    runUnderAddressSpaceCap([&] {
        ScopedThrow guard;
        for (const std::size_t bit : bits) {
            std::vector<std::uint8_t> bad = img.bytes;
            bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            expectFatalRestore(bad, img.traces, path,
                               "flip of bit " + std::to_string(bit));
        }
    });
    std::remove(path.c_str());
}

TEST(Checkpoint, ResealedPayloadDamageNeverCrashesTheDecoders)
{
    // A flip whose section checksum is recomputed gets past the
    // container and reaches the component decoders, counts and
    // geometry fields included. The restore may then succeed (a
    // damaged LRU stamp is still a machine) or fail via fatal(), but
    // must never crash or size an allocation from the damaged value.
    const std::string path = tempPath("real_reseal.ckpt");
    const RealImage img = cutRealImage(path);
    const ImageLayout layout = imageLayout(img.bytes);

    Rng rng(0x5ea1);
    runUnderAddressSpaceCap([&] {
        ScopedThrow guard;
        std::size_t rejected = 0;
        for (const auto &[begin, end] : layout.payloads) {
            for (int i = 0; i < 40; ++i) {
                std::vector<std::uint8_t> bad = img.bytes;
                const std::size_t bit =
                    8 * begin + rng.below(8 * (end - begin));
                bad[bit / 8] ^=
                    static_cast<std::uint8_t>(1u << (bit % 8));
                ckpt::storeLe(bad.data() + end,
                              ckpt::hashBytes(bad.data() + begin,
                                              end - begin));
                {
                    std::ofstream out(path,
                                      std::ios::binary | std::ios::trunc);
                    out.write(reinterpret_cast<const char *>(bad.data()),
                              static_cast<std::streamsize>(bad.size()));
                }
                System sys(sparc64vBase().sys);
                attachAll(sys, img.traces);
                try {
                    ckpt::restoreSystemCheckpoint(sys, path);
                } catch (const std::runtime_error &e) {
                    ++rejected;
                    EXPECT_TRUE(
                        std::string_view(e.what()).starts_with("fatal: "))
                        << "bit " << bit << ": " << e.what();
                }
            }
        }
        // Some of the damage is caught by the components' own checks.
        EXPECT_GT(rejected, 0u);
    });
    std::remove(path.c_str());
}

TEST(Checkpoint, WatchdogEscalationWritesEmergencyCheckpoint)
{
    const std::string path = tempPath("emergency.ckpt");
    std::remove(path.c_str());

    SystemParams sp = sparc64vBase().sys;
    sp.watchdogCycles = 2; // absurdly tight: fires immediately.
    sp.emergencyCheckpointPath = path; // the path arms escalation.
    System sys(sp);
    attachAll(sys, makeTraces(tpccProfile(), 1, 8000));

    std::string sink;
    setLogSink(&sink);
    {
        ScopedThrow guard;
        EXPECT_THROW(sys.run(), std::runtime_error);
    }
    setLogSink(nullptr);

    // The deadlock still kills the run, but the dying machine's state
    // made it to disk first — and is a readable snapshot.
    EXPECT_NE(sink.find("emergency checkpoint"), std::string::npos)
        << sink;
    ckpt::SnapshotReader r = ckpt::SnapshotReader::fromFile(path);
    EXPECT_EQ(r.modelVersion(), modelVersionString());
    EXPECT_TRUE(r.hasSection("config"));
    EXPECT_TRUE(r.hasSection("run"));
    EXPECT_TRUE(r.hasSection("cpu0"));
    std::remove(path.c_str());
}

} // namespace
} // namespace s64v
