/**
 * @file
 * Tests for the write-ahead run journal (exp/journal.hh): a record
 * must round-trip every field bit-exactly (doubles travel as IEEE-754
 * bit patterns), and load() must read a real journal back after any
 * damage without ever crashing or accepting a changed value: every
 * truncation loads exactly the whole records before it, silently;
 * every single-bit flip loses exactly the damaged record, with a
 * warning when later records survive; a hostile length or count is
 * rejected without a large allocation; an oversized file is refused
 * before anything is allocated. Opening a journal for append cuts a
 * torn final record and nothing else. The truncate-journal fault injection
 * must tear exactly the configured append. The --journal/--resume
 * observability flags are parsed here too.
 */

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/fault_inject.hh"
#include "ckpt/snapshot.hh"
#include "common/logging.hh"
#include "exp/journal.hh"
#include "obs/run_obs.hh"

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

void
writeFile(const std::string &path, std::string_view bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

/** warn()/inform() output goes to `text` for one scope, also when an
 *  ASSERT returns early. */
class ScopedLogSink
{
  public:
    ScopedLogSink() { setLogSink(&text); }
    ~ScopedLogSink() { setLogSink(nullptr); }
    ScopedLogSink(const ScopedLogSink &) = delete;
    ScopedLogSink &operator=(const ScopedLogSink &) = delete;

    std::string text;
};

/** Panics/fatals throw for the duration of one scope. */
class ScopedThrow
{
  public:
    ScopedThrow() { setThrowOnError(true); }
    ~ScopedThrow() { setThrowOnError(false); }
};

exp::JournalEntry
sampleEntry()
{
    exp::JournalEntry e;
    e.index = 7;
    e.label = "tpcc/4w \"quoted\"\n\ttab";
    e.configHash = 0xfeedfacecafebeefull;
    e.workloadHash = 0x123456789abcdef0ull;
    e.modelVersion = "s64v-test";
    e.status = "ok";
    e.attempts = 3;
    e.error = "";
    e.sim.cycles = 123456;
    e.sim.instructions = 240000;
    e.sim.measured = 200000;
    e.sim.ipc = 1.0 / 3.0; // must survive bit-exactly.
    e.sim.hitCycleCap = false;
    e.sim.interrupted = false;
    e.sim.stoppedAtCheckpoint = true;
    e.sim.warmupEndCycle = 9999;
    CoreResult cr;
    cr.committed = 60000;
    cr.measured = 50000;
    cr.lastCommitCycle = 123400;
    cr.ipc = 5e-324; // denormal: the acid test for bit round-trips.
    e.sim.cores.assign(4, cr);
    e.metrics["mispredict"] = 0.1 + 0.2; // != 0.3 in binary.
    e.metrics["bus_util"] = 0.75;
    return e;
}

void
expectSameEntry(const exp::JournalEntry &a, const exp::JournalEntry &b)
{
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.configHash, b.configHash);
    EXPECT_EQ(a.workloadHash, b.workloadHash);
    EXPECT_EQ(a.modelVersion, b.modelVersion);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.sim.instructions, b.sim.instructions);
    EXPECT_EQ(a.sim.measured, b.sim.measured);
    // Bit patterns, not values: memcmp catches -0.0 vs 0.0 and NaN.
    EXPECT_EQ(std::memcmp(&a.sim.ipc, &b.sim.ipc, sizeof(double)), 0);
    EXPECT_EQ(a.sim.hitCycleCap, b.sim.hitCycleCap);
    EXPECT_EQ(a.sim.interrupted, b.sim.interrupted);
    EXPECT_EQ(a.sim.stoppedAtCheckpoint, b.sim.stoppedAtCheckpoint);
    EXPECT_EQ(a.sim.warmupEndCycle, b.sim.warmupEndCycle);
    ASSERT_EQ(a.sim.cores.size(), b.sim.cores.size());
    for (std::size_t c = 0; c < a.sim.cores.size(); ++c) {
        EXPECT_EQ(a.sim.cores[c].committed, b.sim.cores[c].committed);
        EXPECT_EQ(a.sim.cores[c].measured, b.sim.cores[c].measured);
        EXPECT_EQ(a.sim.cores[c].lastCommitCycle,
                  b.sim.cores[c].lastCommitCycle);
        EXPECT_EQ(std::memcmp(&a.sim.cores[c].ipc, &b.sim.cores[c].ipc,
                              sizeof(double)),
                  0);
    }
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (const auto &[name, value] : a.metrics) {
        ASSERT_TRUE(b.metrics.count(name)) << name;
        const double other = b.metrics.at(name);
        EXPECT_EQ(std::memcmp(&value, &other, sizeof(double)), 0)
            << name;
    }
}

TEST(Journal, EncodeDecodeRoundTripsEveryFieldBitExactly)
{
    const exp::JournalEntry e = sampleEntry();
    const std::string record = exp::encodeJournalEntry(e);
    EXPECT_EQ(record.substr(0, 8), "S64VJRN2")
        << "a record opens with the format-v2 magic";

    exp::JournalEntry back;
    ASSERT_TRUE(exp::decodeJournalEntry(record, back));
    expectSameEntry(e, back);

    // Every SimResult flag travels, not just the set one above.
    exp::JournalEntry flags = e;
    flags.sim.hitCycleCap = true;
    flags.sim.interrupted = true;
    flags.sim.stoppedAtCheckpoint = false;
    flags.sim.cores.clear();
    flags.metrics.clear();
    ASSERT_TRUE(
        exp::decodeJournalEntry(exp::encodeJournalEntry(flags), back));
    expectSameEntry(flags, back);
}

TEST(Journal, FailedEntryCarriesTheError)
{
    exp::JournalEntry e = sampleEntry();
    e.status = "failed";
    e.error = "panic: no instruction committed in 2 cycles";
    exp::JournalEntry back;
    ASSERT_TRUE(
        exp::decodeJournalEntry(exp::encodeJournalEntry(e), back));
    EXPECT_EQ(back.status, "failed");
    EXPECT_EQ(back.error, e.error);
}

TEST(Journal, AppendLoadRoundTripsInOrder)
{
    const std::string path = tempPath("roundtrip.journal");
    std::remove(path.c_str());

    exp::JournalEntry a = sampleEntry();
    a.index = 0;
    a.label = "first";
    exp::JournalEntry b = sampleEntry();
    b.index = 1;
    b.label = "second";
    b.status = "failed";
    b.error = "transient";

    {
        exp::RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        EXPECT_TRUE(journal.isOpen());
        journal.append(a);
        journal.append(b);
    }
    // Reopening appends — resume grows the same file.
    {
        exp::RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        exp::JournalEntry c = sampleEntry();
        c.index = 1;
        c.label = "second";
        c.attempts = 2;
        journal.append(c);
    }

    const auto loaded = exp::RunJournal::load(path);
    ASSERT_EQ(loaded.size(), 3u);
    expectSameEntry(a, loaded[0]);
    expectSameEntry(b, loaded[1]);
    EXPECT_EQ(loaded[2].attempts, 2u);
    std::remove(path.c_str());
}

TEST(Journal, MissingFileLoadsEmpty)
{
    EXPECT_TRUE(
        exp::RunJournal::load(tempPath("never_written.journal"))
            .empty());
}

TEST(Journal, TornFinalRecordIsSkippedSilently)
{
    const std::string path = tempPath("torn.journal");
    const std::string record = exp::encodeJournalEntry(sampleEntry());
    // Crash mid-append: the last record is torn.
    writeFile(path, record + record + record.substr(0, record.size() / 2));
    std::string sink;
    setLogSink(&sink);
    const auto loaded = exp::RunJournal::load(path);
    setLogSink(nullptr);
    EXPECT_EQ(loaded.size(), 2u);
    // The torn tail is the normal crash signature — no warning.
    EXPECT_EQ(sink.find("journal"), std::string::npos) << sink;
    std::remove(path.c_str());
}

TEST(Journal, CorruptInteriorRecordWarnsAndIsSkipped)
{
    const std::string path = tempPath("interior.journal");
    const std::string record = exp::encodeJournalEntry(sampleEntry());
    std::string damaged = record;
    damaged[damaged.size() / 2] ^= 0x10;
    writeFile(path, record + damaged + record);
    std::string sink;
    setLogSink(&sink);
    const auto loaded = exp::RunJournal::load(path);
    setLogSink(nullptr);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_NE(sink.find("offset " + std::to_string(record.size())),
              std::string::npos)
        << sink;
    std::remove(path.c_str());
}

TEST(Journal, OpenCutsATornTailButNothingElse)
{
    const std::string path = tempPath("cut.journal");
    const std::string record = exp::encodeJournalEntry(sampleEntry());
    std::string damaged = record;
    damaged[damaged.size() / 2] ^= 0x10;
    const std::string v1 = "{\"v\":1,\"index\":0}\n";
    struct Case
    {
        std::string bytes;
        std::size_t keep; ///< bytes left after open().
    };
    const Case cases[] = {
        // Torn appends: a prefix of a record, however short.
        {record + record.substr(0, record.size() / 2), record.size()},
        {record + record.substr(0, 3), record.size()},
        {record.substr(0, 20), 0},
        // Whole records, interior damage and foreign bytes stay.
        {record + record, 2 * record.size()},
        {record + damaged + record, 3 * record.size()},
        {record + "garbage", record.size() + 7},
        {v1, v1.size()},
        {"", 0},
    };
    ScopedLogSink sink;
    for (const Case &c : cases) {
        writeFile(path, c.bytes);
        {
            exp::RunJournal journal;
            ASSERT_TRUE(journal.open(path));
        }
        EXPECT_EQ(readFile(path), c.bytes.substr(0, c.keep))
            << "input of " << c.bytes.size() << " bytes";
    }
    EXPECT_TRUE(sink.text.empty()) << sink.text;
    std::remove(path.c_str());
}

/** Three distinct records, written through RunJournal as a sweep does. */
struct RealJournal
{
    std::vector<exp::JournalEntry> entries;
    std::vector<std::size_t> ends; ///< end offset of each record.
    std::string bytes;
};

RealJournal
writeRealJournal(const std::string &path)
{
    RealJournal j;
    for (std::uint64_t i = 0; i < 3; ++i) {
        exp::JournalEntry e = sampleEntry();
        e.index = i;
        e.label = "point" + std::to_string(i);
        e.sim.cycles += i;
        if (i == 1) {
            e.status = "failed";
            e.error = "fatal: injected";
        }
        j.entries.push_back(e);
    }
    std::remove(path.c_str());
    {
        exp::RunJournal journal;
        EXPECT_TRUE(journal.open(path));
        std::size_t end = 0;
        for (const exp::JournalEntry &e : j.entries) {
            journal.append(e);
            end += exp::encodeJournalEntry(e).size();
            j.ends.push_back(end);
        }
    }
    j.bytes = readFile(path);
    EXPECT_EQ(j.bytes.size(), j.ends.back());
    return j;
}

TEST(Journal, EveryTruncationLoadsExactlyTheWholeRecords)
{
    runUnderAddressSpaceCap([] {
        const std::string path = tempPath("fuzz_trunc.journal");
        const RealJournal j = writeRealJournal(path);

        // A strict prefix of one record is never a record.
        exp::JournalEntry out;
        const std::string first = j.bytes.substr(0, j.ends[0]);
        for (std::size_t len = 0; len < first.size(); ++len) {
            EXPECT_FALSE(exp::decodeJournalEntry(
                std::string_view(first).substr(0, len), out))
                << "prefix of " << len << " bytes decoded";
        }

        // A journal cut anywhere loads the records wholly inside the
        // cut, and no warning: a cut is a torn tail.
        ScopedLogSink sink;
        for (std::size_t len = 0; len <= j.bytes.size(); ++len) {
            writeFile(path, std::string_view(j.bytes).substr(0, len));
            sink.text.clear();
            const auto loaded = exp::RunJournal::load(path);
            std::size_t whole = 0;
            while (whole < j.ends.size() && j.ends[whole] <= len)
                ++whole;
            ASSERT_EQ(loaded.size(), whole) << "cut at " << len;
            for (std::size_t i = 0; i < whole; ++i)
                expectSameEntry(j.entries[i], loaded[i]);
            EXPECT_TRUE(sink.text.empty())
                << "cut at " << len << ": " << sink.text;
        }
        std::remove(path.c_str());
    });
}

TEST(Journal, EveryBitFlipLoadsOnlyTheUndamagedRecords)
{
    runUnderAddressSpaceCap([] {
        const std::string path = tempPath("fuzz_flip.journal");
        const RealJournal j = writeRealJournal(path);

        ScopedLogSink sink;
        for (std::size_t bit = 0; bit < j.bytes.size() * 8; ++bit) {
            const std::size_t byte = bit / 8;
            std::string bad = j.bytes;
            bad[byte] = static_cast<char>(bad[byte] ^ (1 << (bit % 8)));
            writeFile(path, bad);
            sink.text.clear();
            const auto loaded = exp::RunJournal::load(path);

            std::size_t hit = 0;
            while (j.ends[hit] <= byte)
                ++hit;
            ASSERT_EQ(loaded.size(), 2u) << "flip of bit " << bit;
            std::size_t k = 0;
            for (std::size_t i = 0; i < j.entries.size(); ++i) {
                if (i != hit)
                    expectSameEntry(j.entries[i], loaded[k++]);
            }
            if (::testing::Test::HasFailure()) {
                ADD_FAILURE() << "flip of bit " << bit;
                break;
            }
            // Damage followed by an intact record is interior damage.
            const bool interior = hit + 1 < j.entries.size();
            EXPECT_EQ(sink.text.find("damaged") != std::string::npos,
                      interior)
                << "flip of bit " << bit << ": " << sink.text;
        }
        std::remove(path.c_str());
    });
}

/** Find @p pattern in @p record's payload and overwrite its first four
 *  bytes with @p value, then reseal the checksum. */
std::string
patchAndReseal(std::string record, std::string_view pattern,
               std::uint32_t value)
{
    const std::size_t at = record.find(pattern, 12);
    EXPECT_NE(at, std::string::npos);
    if (at != std::string::npos)
        ckpt::storeLe(reinterpret_cast<std::uint8_t *>(&record[at]),
                      value, 4);
    auto *p = reinterpret_cast<std::uint8_t *>(record.data());
    const std::size_t len = record.size() - 12 - 8;
    ckpt::storeLe(p + 12 + len, ckpt::hashBytes(p + 12, len));
    return record;
}

std::string
le32(std::uint32_t v)
{
    std::string s(4, '\0');
    ckpt::storeLe(reinterpret_cast<std::uint8_t *>(s.data()), v, 4);
    return s;
}

std::string
le64(std::uint64_t v)
{
    std::string s(8, '\0');
    ckpt::storeLe(reinterpret_cast<std::uint8_t *>(s.data()), v);
    return s;
}

TEST(Journal, HostileLengthsAreRejectedWithoutAllocating)
{
    runUnderAddressSpaceCap([] {
        const exp::JournalEntry e = sampleEntry();
        const std::string good = exp::encodeJournalEntry(e);
        exp::JournalEntry out;

        // The reseal itself is sound: resealing the true label length
        // leaves a valid record.
        const std::string label = le32(static_cast<std::uint32_t>(
                                      e.label.size())) + e.label;
        ASSERT_TRUE(exp::decodeJournalEntry(
            patchAndReseal(good, label,
                           static_cast<std::uint32_t>(e.label.size())),
            out));

        // Each count is followed by what it counts, which names it.
        const std::string counts[] = {
            label,
            le32(4) + le64(e.sim.cores[0].committed),
            le32(2) + le32(8) + "bus_util",
        };
        for (const std::string &pattern : counts) {
            for (const std::uint32_t hostile :
                 {0xffffffffu, 0x80000000u, 0x01000000u}) {
                const std::string bad =
                    patchAndReseal(good, pattern, hostile);
                EXPECT_FALSE(exp::decodeJournalEntry(bad, out))
                    << "count " << hostile << " accepted";

                // In a journal, the bad record is interior damage.
                const std::string path = tempPath("hostile.journal");
                writeFile(path, bad + good);
                ScopedLogSink sink;
                EXPECT_EQ(exp::RunJournal::load(path).size(), 1u);
                EXPECT_NE(sink.text.find("offset 0"), std::string::npos)
                    << sink.text;
                std::remove(path.c_str());
            }
        }
    });
}

TEST(Journal, OversizedJournalIsRefusedBeforeAllocating)
{
    runUnderAddressSpaceCap([] {
        // A sparse file one byte over the bound: no real bytes are
        // written, and a loader that allocated before checking would
        // hit the address-space cap.
        const std::string path = tempPath("oversized.journal");
        const int fd =
            ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(
                                      exp::kMaxJournalBytes + 1)),
                  0);
        ::close(fd);

        ScopedThrow guard;
        try {
            (void)exp::RunJournal::load(path);
            ADD_FAILURE() << "an oversized journal loaded";
        } catch (const std::runtime_error &err) {
            const std::string what = err.what();
            EXPECT_NE(what.find(path), std::string::npos) << what;
            EXPECT_NE(what.find("size"), std::string::npos) << what;
        }
        std::remove(path.c_str());
    });
}

TEST(Journal, TruncateJournalFaultTearsTheConfiguredAppend)
{
    const std::string path = tempPath("fault.journal");
    std::remove(path.c_str());

    std::string sink;
    setLogSink(&sink);
    check::activeFaultPlan().parse("truncate-journal:1");
    {
        exp::RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        exp::JournalEntry e = sampleEntry();
        e.index = 0;
        journal.append(e); // append 0: intact.
        e.index = 1;
        journal.append(e); // append 1: torn mid-record, journal dies.
        e.index = 2;
        journal.append(e); // dropped: the process is "dead".
    }
    check::activeFaultPlan().clear();
    check::armFaultExitCode();
    setLogSink(nullptr);
    EXPECT_NE(sink.find("fault injection"), std::string::npos) << sink;

    // Resume semantics: only the intact first append survives; the
    // torn record is skipped like any crash tail.
    const auto loaded = exp::RunJournal::load(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].index, 0u);
    std::remove(path.c_str());
}

TEST(Journal, DurabilityFlagsParse)
{
    obs::runObsOptions() = obs::ObsOptions{};
    const char *argv[] = {"sim",
                          "--journal=sweep.journal",
                          "--watchdog-escalate",
                          "--checkpoint-at=100000",
                          "--checkpoint-out=run.ckpt",
                          "--checkpoint-stop",
                          "--restore=old.ckpt"};
    obs::parseObsArgs(7, argv);
    const obs::ObsOptions &o = obs::runObsOptions();
    EXPECT_EQ(o.journalPath, "sweep.journal");
    EXPECT_FALSE(o.resume);
    EXPECT_TRUE(o.watchdogEscalate);
    EXPECT_EQ(o.checkpointAt, 100000u);
    EXPECT_EQ(o.checkpointOut, "run.ckpt");
    EXPECT_TRUE(o.checkpointStop);
    EXPECT_EQ(o.restorePath, "old.ckpt");

    // --resume=<path> names the journal and turns resumption on.
    obs::runObsOptions() = obs::ObsOptions{};
    const char *argv2[] = {"sim", "--resume=sweep.journal"};
    obs::parseObsArgs(2, argv2);
    EXPECT_TRUE(obs::runObsOptions().resume);
    EXPECT_EQ(obs::runObsOptions().journalPath, "sweep.journal");
    obs::runObsOptions() = obs::ObsOptions{};
}

} // namespace
} // namespace s64v
