/**
 * @file
 * Tests for the write-ahead run journal (exp/journal.hh): the JSONL
 * encoding must round-trip every field bit-exactly (doubles travel as
 * IEEE-754 bit patterns), load() must tolerate the crash signatures —
 * a torn final line silently, a corrupt interior line with a warning —
 * without ever crashing, and the truncate-journal fault injection
 * must tear exactly the configured append. The --journal/--resume
 * observability flags are parsed here too.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "check/fault_inject.hh"
#include "common/logging.hh"
#include "exp/journal.hh"
#include "obs/run_obs.hh"

namespace s64v
{
namespace
{

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

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
    const std::string line = exp::encodeJournalEntry(e);
    EXPECT_EQ(line.find('\n'), std::string::npos)
        << "a journal line must be exactly one line";

    exp::JournalEntry back;
    ASSERT_TRUE(exp::decodeJournalEntry(line, back)) << line;
    expectSameEntry(e, back);
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

    // Older builds wrote "quarantined" for a point they gave up on;
    // it reads back as an ordinary failure, which resume re-runs.
    e.status = "quarantined";
    ASSERT_TRUE(
        exp::decodeJournalEntry(exp::encodeJournalEntry(e), back));
    EXPECT_EQ(back.status, "failed");
}

TEST(Journal, MalformedLinesAreRejectedNotCrashes)
{
    const std::string good =
        exp::encodeJournalEntry(sampleEntry());
    exp::JournalEntry out;

    // Every strict prefix models a torn append.
    for (std::size_t len = 0; len < good.size(); ++len) {
        EXPECT_FALSE(exp::decodeJournalEntry(
            std::string_view(good).substr(0, len), out))
            << "prefix of " << len << " bytes decoded";
    }
    EXPECT_FALSE(exp::decodeJournalEntry("", out));
    EXPECT_FALSE(exp::decodeJournalEntry("not json at all", out));
    EXPECT_FALSE(exp::decodeJournalEntry("{}", out));
    EXPECT_FALSE(exp::decodeJournalEntry("[1,2,3]", out));
    EXPECT_FALSE(exp::decodeJournalEntry("{\"v\":1}", out));
    // Nesting is bounded: a hostile line cannot recurse the parser
    // off the end of the stack.
    EXPECT_FALSE(exp::decodeJournalEntry(std::string(1'000'000, '['),
                                         out));

    // A future schema version is skipped, not misread.
    std::string future = good;
    const std::size_t at = future.find("\"v\":1");
    ASSERT_NE(at, std::string::npos);
    future.replace(at, 5, "\"v\":9");
    EXPECT_FALSE(exp::decodeJournalEntry(future, out));

    // Negative counters are nonsense, not huge unsigned values.
    EXPECT_FALSE(exp::decodeJournalEntry(
        "{\"v\":1,\"index\":-1,\"label\":\"x\",\"config\":0,"
        "\"workload\":0,\"model\":\"m\",\"status\":\"ok\","
        "\"attempts\":1,\"error\":\"\",\"sim\":{\"cycles\":0,"
        "\"instructions\":0,\"measured\":0,\"ipc_bits\":0,"
        "\"hit_cycle_cap\":false,\"interrupted\":false,"
        "\"stopped_at_checkpoint\":false,\"warmup_end\":0,"
        "\"cores\":[]},\"metrics\":{}}",
        out));
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

TEST(Journal, TornFinalLineIsSkippedSilently)
{
    const std::string path = tempPath("torn.journal");
    const std::string line = exp::encodeJournalEntry(sampleEntry());
    {
        std::ofstream out(path, std::ios::trunc);
        out << line << '\n'
            << line << '\n'
            << line.substr(0, line.size() / 2); // crash mid-append.
    }
    std::string sink;
    setLogSink(&sink);
    const auto loaded = exp::RunJournal::load(path);
    setLogSink(nullptr);
    EXPECT_EQ(loaded.size(), 2u);
    // The torn tail is the normal crash signature — no warning.
    EXPECT_EQ(sink.find("journal"), std::string::npos) << sink;
    std::remove(path.c_str());
}

TEST(Journal, CorruptInteriorLineWarnsAndIsSkipped)
{
    const std::string path = tempPath("interior.journal");
    const std::string line = exp::encodeJournalEntry(sampleEntry());
    {
        std::ofstream out(path, std::ios::trunc);
        out << line << '\n'
            << "{\"v\":1,\"garbage\"" << '\n' // damaged mid-file.
            << line << '\n';
    }
    std::string sink;
    setLogSink(&sink);
    const auto loaded = exp::RunJournal::load(path);
    setLogSink(nullptr);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_NE(sink.find("line 2"), std::string::npos) << sink;
    std::remove(path.c_str());
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
        journal.append(e); // append 1: torn mid-line, journal dies.
        e.index = 2;
        journal.append(e); // dropped: the process is "dead".
    }
    check::activeFaultPlan().clear();
    check::armFaultExitCode();
    setLogSink(nullptr);
    EXPECT_NE(sink.find("fault injection"), std::string::npos) << sink;

    // Resume semantics: only the intact first append survives; the
    // torn line is skipped like any crash tail.
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
