/**
 * @file
 * Tests for the experiment engine (exp/sweep.hh, exp/trace_pool.hh):
 * serial and parallel sweeps must produce identical SimResults point
 * for point, a panicking point must be reported per point without
 * killing the sweep, traces must be shared rather than re-synthesized,
 * the cycle-cap outcome must be surfaced, and heartbeat=N must reach
 * every point of a serial or parallel sweep. The parallel cases also
 * serve as the TSan workload for the sweep engine (see the "tsan"
 * test preset).
 */

#include <mutex>
#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "exp/sweep.hh"
#include "exp/trace_pool.hh"
#include "model/fingerprint.hh"
#include "model/perf_model.hh"
#include "obs/heartbeat.hh"
#include "obs/run_obs.hh"
#include "scoped_obs_options.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

constexpr std::size_t kRun = 20000;

/** A small two-workload, two-machine sweep. */
exp::Sweep
smallSweep()
{
    exp::Sweep sweep;
    sweep.add("tpcc/4w", sparc64vBase(), tpccProfile(), kRun);
    sweep.add("tpcc/2w", withIssueWidth(sparc64vBase(), 2),
              tpccProfile(), kRun);
    sweep.add("int/4w", sparc64vBase(), specint2000Profile(), kRun);
    sweep.add("int/2w", withIssueWidth(sparc64vBase(), 2),
              specint2000Profile(), kRun);
    return sweep;
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
        EXPECT_EQ(a.cores[c].ipc, b.cores[c].ipc);
    }
}

TEST(SweepRunner, SerialAndParallelResultsAreIdentical)
{
    const exp::Sweep sweep = smallSweep();

    exp::SweepOptions serial_opts;
    serial_opts.threads = 1;
    const auto serial = exp::SweepRunner(serial_opts).run(sweep);

    exp::SweepOptions parallel_opts;
    parallel_opts.threads = 4;
    const auto parallel = exp::SweepRunner(parallel_opts).run(sweep);

    ASSERT_EQ(serial.size(), sweep.size());
    ASSERT_EQ(parallel.size(), sweep.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(serial[i].ok) << serial[i].error;
        EXPECT_TRUE(parallel[i].ok) << parallel[i].error;
        EXPECT_EQ(serial[i].label, parallel[i].label);
        expectSameSim(serial[i].sim, parallel[i].sim);
    }
}

TEST(SweepRunner, MatchesADirectSingleRun)
{
    // A sweep point must be bit-identical to the plain serial API on
    // the same machine and workload.
    const SimResult direct =
        PerfModel::simulate(sparc64vBase(), tpccProfile(), kRun);

    exp::Sweep sweep;
    sweep.add("tpcc", sparc64vBase(), tpccProfile(), kRun);
    const auto results = exp::runSweep(sweep);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    expectSameSim(results[0].sim, direct);
}

TEST(SweepRunner, PanickingPointIsIsolated)
{
    // An absurdly tight watchdog makes one configuration panic
    // mid-run; the sweep must report that point as failed and still
    // finish every other point, serially and in parallel.
    for (const unsigned threads : {1u, 4u}) {
        exp::Sweep sweep;
        sweep.add("ok-before", sparc64vBase(), tpccProfile(), kRun);
        MachineParams sick = sparc64vBase();
        sick.sys.watchdogCycles = 2;
        sweep.add("sick", sick, tpccProfile(), kRun);
        sweep.add("ok-after", sparc64vBase(), tpccProfile(), kRun);

        exp::SweepOptions opts;
        opts.threads = threads;
        const auto results = exp::SweepRunner(opts).run(sweep);

        ASSERT_EQ(results.size(), 3u);
        EXPECT_TRUE(results[0].ok) << results[0].error;
        EXPECT_FALSE(results[1].ok);
        EXPECT_NE(results[1].error.find("no instruction committed"),
                  std::string::npos)
            << results[1].error;
        EXPECT_TRUE(results[2].ok) << results[2].error;
        expectSameSim(results[0].sim, results[2].sim);
    }
}

TEST(SweepRunner, MetricProbeRunsPerPoint)
{
    exp::Sweep sweep;
    sweep.add("big", sparc64vBase(), tpccProfile(), kRun);
    sweep.add("small", withSmallBht(sparc64vBase()), tpccProfile(),
              kRun);
    sweep.setMetricFn([](PerfModel &model, const SimResult &res,
                         std::map<std::string, double> &metrics) {
        metrics["mispredict"] =
            model.system().core(0).bpred().mispredictRatio();
        metrics["ipc_copy"] = res.ipc;
    });

    const auto results = exp::runSweep(sweep);
    ASSERT_EQ(results.size(), 2u);
    for (const exp::PointResult &p : results) {
        ASSERT_TRUE(p.ok) << p.error;
        EXPECT_EQ(p.metrics.at("ipc_copy"), p.sim.ipc);
        EXPECT_GT(p.metrics.at("mispredict"), 0.0);
    }
    // The small BHT mispredicts more.
    EXPECT_GT(results[1].metrics.at("mispredict"),
              results[0].metrics.at("mispredict"));
}

TEST(SweepRunner, CycleCapSurfacesInTheResult)
{
    MachineParams capped = sparc64vBase();
    capped.sys.maxCycles = 50; // far too few to drain the trace.
    capped.sys.watchdogCycles = 0;

    exp::Sweep sweep;
    sweep.add("capped", capped, tpccProfile(), kRun);
    const auto results = exp::runSweep(sweep);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_TRUE(results[0].sim.hitCycleCap);
}

TEST(SweepRunner, EffectiveThreadsClampsToPointCount)
{
    exp::SweepOptions opts;
    opts.threads = 64;
    const exp::SweepRunner runner(opts);
    EXPECT_EQ(runner.effectiveThreads(3), 3u);
    EXPECT_EQ(runner.effectiveThreads(100), 64u);
    EXPECT_EQ(runner.effectiveThreads(0), 1u);
}

TEST(SweepRunner, ProgressCallbackSeesEveryPoint)
{
    // A MetricFn runs on the worker as each point finishes, before
    // the board counts it.
    std::mutex mutex;
    std::vector<obs::SweepProgress> snaps;
    exp::Sweep sweep = smallSweep();
    sweep.setMetricFn([&](PerfModel &, const SimResult &,
                          std::map<std::string, double> &) {
        const obs::SweepProgress sp = obs::sweepProgress();
        std::lock_guard<std::mutex> lock(mutex);
        snaps.push_back(sp);
    });
    exp::SweepOptions opts;
    opts.threads = 2;
    const auto results = exp::SweepRunner(opts).run(sweep);
    ASSERT_EQ(results.size(), 4u);

    ASSERT_EQ(snaps.size(), 4u);
    for (const obs::SweepProgress &sp : snaps) {
        EXPECT_TRUE(sp.active);
        EXPECT_EQ(sp.total, 4u);
        EXPECT_LT(sp.done, 4u);
        EXPECT_GE(sp.kips(), 0.0);
    }
    // The closed board has counted every point.
    EXPECT_EQ(obs::sweepProgress().done, 4u);
}

TEST(SweepRunner, ProgressBoardTracksLiveSweep)
{
    // Outside a sweep the board is inactive.
    EXPECT_FALSE(obs::sweepProgress().active);

    std::vector<obs::SweepProgress> snaps;
    exp::Sweep sweep;
    sweep.add("a", sparc64vBase(), specint95Profile(), 6000);
    sweep.add("b", sparc64vBase(), specint95Profile(), 6000);
    sweep.setMetricFn([&](PerfModel &, const SimResult &,
                          std::map<std::string, double> &) {
        snaps.push_back(obs::sweepProgress());
    });
    exp::SweepOptions opts;
    opts.threads = 1;
    const auto results = exp::SweepRunner(opts).run(sweep);
    ASSERT_TRUE(results[0].ok);
    ASSERT_TRUE(results[1].ok);
    ASSERT_EQ(snaps.size(), 2u);

    // The snapshot as point "b" finishes: active, counting point "a"
    // and its committed instructions, with wall time advancing.
    EXPECT_TRUE(snaps[1].active);
    EXPECT_EQ(snaps[1].done, 1u);
    EXPECT_EQ(snaps[1].total, 2u);
    EXPECT_EQ(snaps[1].instrs, results[0].sim.instructions);
    EXPECT_GE(snaps[1].seconds, snaps[0].seconds);
    // run() closes the board on the way out, with both points counted.
    const obs::SweepProgress end = obs::sweepProgress();
    EXPECT_FALSE(end.active);
    EXPECT_EQ(end.done, 2u);
    EXPECT_EQ(end.instrs, results[0].sim.instructions +
                              results[1].sim.instructions);
}

/** Count the log lines carrying the sweep-progress heartbeat suffix. */
std::size_t
sweepHeartbeats(const std::string &log)
{
    std::size_t n = 0;
    std::istringstream lines(log);
    for (std::string line; std::getline(lines, line);) {
        if (line.find("heartbeat:") != std::string::npos &&
            line.find(" pts, ") != std::string::npos &&
            line.find("KIPS agg") != std::string::npos)
            ++n;
    }
    return n;
}

TEST(SweepRunner, HeartbeatPropagatesAndCarriesSweepSuffix)
{
    ScopedObsOptions restore;
    obs::runObsOptions().heartbeatPeriod = 500; // several beats/point.
    std::string sink;
    setLogSink(&sink);
    exp::SweepOptions opts;
    opts.threads = 1;
    exp::Sweep sweep;
    sweep.add("hb", sparc64vBase(), specint95Profile(), 8000);
    const auto results = exp::SweepRunner(opts).run(sweep);
    setLogSink(nullptr);
    ASSERT_TRUE(results[0].ok) << results[0].error;

    // The embedded point took the heartbeat=N period, and its lines
    // carry the live sweep-progress suffix.
    EXPECT_NE(sink.find("sweep 0/1 pts"), std::string::npos) << sink;
    EXPECT_GT(sweepHeartbeats(sink), 1u) << sink;
}

TEST(SweepRunner, CliHeartbeatReachesEveryParallelPoint)
{
    // heartbeat=N on a 2-worker sweep: both workers beat into one log
    // sink at once (the TSan preset runs this), and every point beats.
    ScopedObsOptions restore;
    obs::runObsOptions().heartbeatPeriod = 1000;
    std::string sink;
    setLogSink(&sink);
    exp::SweepOptions opts;
    opts.threads = 2;
    const auto results = exp::SweepRunner(opts).run(smallSweep());
    setLogSink(nullptr);

    // A point beats once per 1000 cycles of its whole run, which is
    // at least as long as its measured window.
    std::uint64_t atLeast = 0;
    for (const exp::PointResult &r : results) {
        ASSERT_TRUE(r.ok) << r.error;
        atLeast += r.sim.cycles / 1000;
    }
    EXPECT_GT(atLeast, 0u);
    EXPECT_GE(sweepHeartbeats(sink), atLeast) << sink;
}

TEST(TracePool, SynthesizesEachDistinctWorkloadOnce)
{
    exp::TracePool pool;
    const auto &a = pool.acquire(tpccProfile(), 1, 5000);
    const auto &b = pool.acquire(tpccProfile(), 1, 5000);
    EXPECT_EQ(pool.setsSynthesized(), 1u);
    ASSERT_EQ(a.size(), 1u);
    // Same shared_ptr, not merely an equal trace.
    EXPECT_EQ(a[0].get(), b[0].get());

    pool.acquire(specint2000Profile(), 1, 5000);
    pool.acquire(tpccProfile(), 2, 5000);
    pool.acquire(tpccProfile(), 1, 6000);
    EXPECT_EQ(pool.setsSynthesized(), 4u);
}

TEST(TracePool, KeysOnTheWholeProfile)
{
    // Custom workloads may share a name and a seed. A profile that
    // differs in its mix or its regions is a different workload and
    // must not be handed the other's traces.
    exp::TracePool pool;
    const WorkloadProfile base = tpccProfile();
    WorkloadProfile mix = base;
    mix.mix.load += 0.05;
    WorkloadProfile regions = base;
    ASSERT_FALSE(regions.userRegions.empty());
    regions.userRegions[0].size *= 2;

    const auto &a = pool.acquire(base, 1, 5000);
    const auto &b = pool.acquire(mix, 1, 5000);
    const auto &c = pool.acquire(regions, 1, 5000);
    EXPECT_EQ(pool.setsSynthesized(), 3u);
    EXPECT_NE(a[0].get(), b[0].get());
    EXPECT_NE(a[0].get(), c[0].get());
    EXPECT_NE(computeTraceFingerprint(*a[0]),
              computeTraceFingerprint(*b[0]));
    EXPECT_NE(computeTraceFingerprint(*a[0]),
              computeTraceFingerprint(*c[0]));

    // An identical profile, even as a separate object, is synthesized
    // once.
    const WorkloadProfile same = base;
    EXPECT_EQ(pool.acquire(same, 1, 5000)[0].get(), a[0].get());
    EXPECT_EQ(pool.setsSynthesized(), 3u);
}

TEST(TracePool, SweepPointsShareOneTrace)
{
    // Two models over the same workload must reference one immutable
    // trace: the use_count of the pooled pointer rises while systems
    // hold it.
    exp::TracePool pool;
    const auto &set = pool.acquire(tpccProfile(), 1, 5000);
    const long before = set[0].use_count();

    PerfModel a(sparc64vBase());
    a.loadTrace(0, set[0]);
    a.prepare();
    PerfModel b(sparc64vBase());
    b.loadTrace(0, set[0]);
    b.prepare();
    EXPECT_GT(set[0].use_count(), before);
}

} // namespace
} // namespace s64v
