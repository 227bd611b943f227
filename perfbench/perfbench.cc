/**
 * @file
 * Repository benchmark: runs one workload of the SPARC64 V
 * model for a fixed host-time budget and prints every metric by name
 * with its unit, then one JSON result line. The model is measured
 * from outside only: every layer is timed around calls into its
 * public functions (TraceGenerator, System::run plus a TickProfiler,
 * MemSystem::fetch/data, obs::exportStatsJson, the checkpoint
 * orchestrator, fingerprintTrace, exp::SweepRunner/TracePool).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>] [--spans-out <file>]
 *             [--sweep-workers <n>] [--instrs <n>]
 *             [--force-digest-mismatch]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones (a separate traced run, see README.md). Exit code 0 only when
 * every correctness check passed.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "ckpt/snapshot.hh"
#include "common/file_util.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "exp/sweep.hh"
#include "exp/trace_pool.hh"
#include "golden/checker.hh"
#include "mem/hierarchy.hh"
#include "model/fingerprint.hh"
#include "model/params.hh"
#include "model/versions.hh"
#include "obs/json.hh"
#include "obs/stats_export.hh"
#include "sim/clocked.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

using namespace s64v;

namespace
{

// ------------------------------------------------------------ clocks

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double threadCpuNow() { return clockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double processCpuNow() { return clockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** CPUs this process may run on (its affinity mask), in order. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/**
 * Pin the calling thread to the @p rep'th allowed CPU (round robin).
 * Rotating every repetition samples every CPU the host gives us; on
 * a shared machine a neighbour's contention differs per CPU, and the
 * best-repetition statistic then reports the quietest one instead of
 * whichever CPU the scheduler kept the run on throughout.
 */
void
pinRepetition(const std::vector<int> &cpus, unsigned rep)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[rep % cpus.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
digestOf(const std::string &s)
{
    return ckpt::fnv1a(s.data(), s.size());
}

// ----------------------------------------------------------- tracing

/**
 * In-memory span recorder. A span is one call into a model layer:
 * name, start, end, parent span and the id of the workload run
 * (repetition) it belongs to. Spans are kept in memory and written
 * out once, when the benchmark ends. Disabled, it records nothing;
 * the Span guard still measures, so timed code has one path.
 */
class Tracer
{
  public:
    struct Record
    {
        std::uint32_t run = 0;
        std::string name;
        int parent = -1;
        double start = 0.0; ///< wall seconds since the tracer began.
        double end = 0.0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled), t0_(wallNow()) {}

    void setRun(std::uint32_t run) { run_ = run; }

    int
    open(const char *name, double start)
    {
        if (!enabled_)
            return -1;
        Record r;
        r.run = run_;
        r.name = name;
        r.parent = stack_.empty() ? -1 : stack_.back();
        r.start = start - t0_;
        records_.push_back(std::move(r));
        stack_.push_back(static_cast<int>(records_.size() - 1));
        return stack_.back();
    }

    void
    close(int index, double end)
    {
        if (index < 0)
            return;
        records_[index].end = end - t0_;
        if (!stack_.empty() && stack_.back() == index)
            stack_.pop_back();
    }

    /**
     * Chrome trace_events JSON (whole microseconds): pid = run id,
     * the span's index and its parent's in args.
     */
    bool
    write(const std::string &path, const std::string &workload,
          std::uint64_t seed) const
    {
        const auto us = [](double seconds) {
            return static_cast<std::uint64_t>(std::llround(seconds * 1e6));
        };
        obs::JsonWriter w;
        w.beginObject();
        w.field("workload", workload);
        w.field("seed", seed);
        w.beginArray("traceEvents");
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            w.beginObject();
            w.field("name", r.name);
            w.field("ph", "X");
            w.field("pid", std::uint64_t{r.run});
            w.field("tid", std::uint64_t{0});
            w.field("ts", us(r.start));
            w.field("dur", us(r.end - r.start));
            w.beginObject("args");
            w.field("id", std::uint64_t{i});
            w.field("parent", std::int64_t{r.parent});
            w.end();
            w.end();
        }
        w.end();
        w.end();
        return atomicWriteFile(path, w.str());
    }

  private:
    bool enabled_;
    double t0_;
    std::uint32_t run_ = 0;
    std::vector<Record> records_;
    std::vector<int> stack_;
};

/** Times one layer call (wall and thread CPU) and records its span. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name)
        : tracer_(tracer), wall0_(wallNow()), cpu0_(threadCpuNow()),
          index_(tracer.open(name, wall0_))
    {
    }
    ~Span() { finish(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void
    finish()
    {
        if (done_)
            return;
        const double w = wallNow();
        cpu_ = threadCpuNow() - cpu0_;
        wall_ = w - wall0_;
        tracer_.close(index_, w);
        done_ = true;
    }

    double wall() { finish(); return wall_; }
    double cpu() { finish(); return cpu_; }

  private:
    Tracer &tracer_;
    double wall0_;
    double cpu0_;
    int index_;
    bool done_ = false;
    double wall_ = 0.0;
    double cpu_ = 0.0;
};

// -------------------------------------------------------- profiling

/**
 * The benchmark's own TickProfiler: it times every cycle the kernel
 * visits (so tick and probe seconds are measured, not extrapolated)
 * and counts visited cycles, core ticks and elided cycles.
 */
class BenchProfiler final : public TickProfiler
{
  public:
    bool
    sampleCycle(Cycle) override
    {
        ++visited;
        return true;
    }
    void
    recordTick(const Clocked &, std::uint64_t ns) override
    {
        ++ticks;
        tickNs += ns;
    }
    void
    recordGroupTicks(const char *, std::uint64_t components,
                     std::uint64_t ns) override
    {
        ticks += components;
        tickNs += ns;
    }
    void recordProbes(std::uint64_t ns) override { probeNs += ns; }
    void recordElided(std::uint64_t cycles) override { elided += cycles; }

    std::uint64_t visited = 0;
    std::uint64_t elided = 0;
    std::uint64_t ticks = 0;
    std::uint64_t tickNs = 0;
    std::uint64_t probeNs = 0;
};

/** Deterministic memory-hierarchy counters of one run's stats tree. */
struct MemCounters
{
    double l1iAcc = 0, l1iMiss = 0, l1dAcc = 0, l1dMiss = 0;
    double l2Acc = 0, l2Miss = 0, busTx = 0;

    MemCounters &
    operator+=(const MemCounters &o)
    {
        l1iAcc += o.l1iAcc; l1iMiss += o.l1iMiss;
        l1dAcc += o.l1dAcc; l1dMiss += o.l1dMiss;
        l2Acc += o.l2Acc; l2Miss += o.l2Miss; busTx += o.busTx;
        return *this;
    }
};

MemCounters
readMemCounters(const stats::Group &root)
{
    struct Reader : stats::Visitor
    {
        MemCounters c;
        void
        visitScalar(const stats::Group &g, const std::string &name,
                    const std::string &, const stats::Scalar &s) override
        {
            const std::string grp = g.localName();
            const double v = static_cast<double>(s.value());
            const bool acc = name == "accesses";
            const bool miss = name == "misses";
            if (grp == "l1i") {
                c.l1iAcc += acc ? v : 0; c.l1iMiss += miss ? v : 0;
            } else if (grp == "l1d") {
                c.l1dAcc += acc ? v : 0; c.l1dMiss += miss ? v : 0;
            } else if (grp == "l2") {
                c.l2Acc += acc ? v : 0; c.l2Miss += miss ? v : 0;
            } else if (grp == "bus" && name == "transactions") {
                c.busTx += v;
            }
        }
    } reader;
    root.visit(reader);
    return reader.c;
}

using TraceSet = exp::TracePool::TraceSet;

/**
 * Memory-hierarchy replay probe: the workload's fetch-block and data
 * stream, CPUs interleaved round-robin, through a standalone
 * MemSystem with the run's parameters. Each access waits for the
 * previous one (a blocking in-order replay), so it measures host
 * cost per access, not a timing model. @return accesses made.
 */
std::uint64_t
replayMemory(const MachineParams &machine, const TraceSet &traces)
{
    stats::Group root("replay");
    const unsigned cpus = static_cast<unsigned>(traces.size());
    MemSystem mem(machine.sys.mem, cpus, &root);
    const Addr block_mask = ~Addr(machine.sys.core.fetchBytes - 1);
    std::vector<Addr> last_block(cpus, ~Addr{0});
    std::size_t longest = 0;
    for (const auto &t : traces)
        longest = std::max(longest, t->size());
    Cycle cycle = 0;
    std::uint64_t accesses = 0;
    for (std::size_t i = 0; i < longest; ++i) {
        for (CpuId c = 0; c < cpus; ++c) {
            if (i >= traces[c]->size())
                continue;
            const TraceRecord &rec = (*traces[c])[i];
            const Addr block = rec.pc & block_mask;
            if (block != last_block[c]) {
                last_block[c] = block;
                cycle = std::max(cycle + 1,
                                 mem.fetch(c, block, cycle).ready);
                ++accesses;
            }
            if (rec.isMem()) {
                cycle = std::max(
                    cycle + 1,
                    mem.data(c, rec.ea, rec.isStore(), cycle).ready);
                ++accesses;
            }
        }
    }
    return accesses;
}

// -------------------------------------------------------- workloads

/** One simulated configuration: machine + workload + trace length. */
struct Job
{
    std::string label;
    MachineParams machine;
    WorkloadProfile profile;
    std::size_t instrs = 0; ///< per CPU.
};

/**
 * The sweep's effective machine, as SweepRunner builds it (standard
 * warm-up: a fifth of the trace). Single runs use the same rule.
 */
MachineParams
withWarmup(MachineParams m, std::size_t instrs)
{
    m.sys.warmupInstrs = instrs / 5;
    return m;
}

MachineParams
plainReference(MachineParams m)
{
    m.sys.skipAhead = false;
    m.sys.flatDispatch = false;
    m.sys.memoQuiescence = false;
    return m;
}

WorkloadProfile
seeded(WorkloadProfile p, std::uint64_t seed)
{
    p.seed = mixSeeds(seed, p.seed);
    return p;
}

TraceSet
synthesize(const Job &job)
{
    const unsigned cpus = job.machine.sys.numCpus;
    TraceGenerator gen(job.profile, cpus);
    TraceSet set;
    for (CpuId c = 0; c < cpus; ++c) {
        set.push_back(std::make_shared<const InstrTrace>(
            gen.generate(job.instrs, c)));
    }
    return set;
}

std::unique_ptr<System>
buildSystem(const MachineParams &m, const TraceSet &traces)
{
    auto sys = std::make_unique<System>(m.sys, m.name);
    for (CpuId c = 0; c < traces.size(); ++c)
        sys->attachTrace(c, traces[c]);
    return sys;
}

/** Last cycle any core committed (absolute). */
Cycle
finalCycle(const SimResult &res)
{
    Cycle c = 0;
    for (const CoreResult &cr : res.cores)
        c = std::max(c, cr.lastCommitCycle);
    return c;
}

// ---------------------------------------------------------- results

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".";
    std::string spansOut;
    unsigned sweepWorkers = 2;
    std::size_t instrs = 0; ///< 0 = the workload's own length.
    bool forceDigestMismatch = false;
};

/** Operation bookkeeping: a run, a checkpoint round trip, a point. */
struct Ops
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    record(const std::string &what, const std::string &error)
    {
        ++attempted;
        if (error.empty())
            return;
        ++failed;
        std::printf("FAIL %s: %s\n", what.c_str(), error.c_str());
    }
};

/** Per-repetition samples, one vector per metric name. */
using Samples = std::map<std::string, std::vector<double>>;

/**
 * Compares stats-JSON digests: against the plain reference loop
 * (computed once, outside the timed region) and across repetitions.
 */
struct DigestGate
{
    std::vector<std::uint64_t> reference; ///< per job.
    std::vector<std::uint64_t> first;     ///< per job; 0 = none yet.

    std::string
    check(std::size_t job, std::uint64_t digest)
    {
        if (first[job] == 0)
            first[job] = digest;
        if (digest != first[job])
            return "stats digest differs from the first repetition";
        if (digest != reference[job])
            return "stats digest differs from the plain reference loop";
        return "";
    }
};

// -------------------------------------------------------- benchmark

/** Per-repetition sums of the traced runs (all jobs of the rep). */
struct TraceAcc
{
    double visited = 0, elided = 0, ticks = 0, tickS = 0, probeS = 0;
    double tracedWall = 0, tracedCpu = 0, untracedCpu = 0;
    double cycles = 0, measured = 0;
    double replayAccesses = 0, replayS = 0;
    MemCounters mem;
};

class Bench
{
  public:
    Bench(const Options &opts, std::vector<Job> jobs, bool sweep)
        : opts_(opts), jobs_(std::move(jobs)), sweep_(sweep),
          tracer_(opts.trace)
    {
    }

    /** Reference, timed repetitions, report. @return exit code. */
    int run();

  private:
    void computeReference();
    void singleRep();
    void sweepRep();
    std::string tracedRun(std::size_t j, const TraceSet &traces);
    void closeTracedRep();
    void computeModelError();
    std::string checkpointRoundTrip(std::size_t j, const TraceSet &traces,
                                    std::uint64_t want_digest);
    std::string runChecks(std::size_t j, const TraceSet &traces,
                          const SimResult &res, std::uint64_t digest);
    std::string ckptPath(const char *tag) const;
    void guarded(const std::string &what,
                 const std::function<std::string()> &op);

    Options opts_;
    std::vector<Job> jobs_;
    bool sweep_;
    Tracer tracer_;
    Ops ops_;
    DigestGate digests_;
    std::vector<Cycle> ckptCycle_;  ///< per job: the mid-run cut.
    std::vector<double> refIpc_;    ///< per job, from the reference.
    Samples s_;
    TraceAcc acc_;
    double modelErrPct_ = 0.0;
};

/** Runs one operation; an exception or a returned error fails it. */
void
Bench::guarded(const std::string &what,
               const std::function<std::string()> &op)
{
    std::string err;
    try {
        err = op();
    } catch (const std::exception &e) {
        err = std::string("exception: ") + e.what();
    }
    ops_.record(what, err);
}

std::string
Bench::ckptPath(const char *tag) const
{
    return opts_.workDir + "/" + opts_.workload + "-" +
        std::to_string(::getpid()) + "-" + tag + ".ckpt";
}

void
Bench::computeReference()
{
    // Once per invocation, outside the timed region: the plain
    // per-cycle loop with skip-ahead, flat dispatch and quiescence
    // memoization all off. Every timed run must reproduce its stats.
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
        const TraceSet traces = synthesize(jobs_[j]);
        auto sys = buildSystem(plainReference(jobs_[j].machine), traces);
        const SimResult res = sys->run();
        std::uint64_t d = digestOf(obs::exportStatsJson(sys->root(), &res));
        if (opts_.forceDigestMismatch)
            d ^= 1;
        digests_.reference.push_back(d);
        ckptCycle_.push_back(finalCycle(res) / 2);
        refIpc_.push_back(res.ipc);
    }
    digests_.first.assign(jobs_.size(), 0);
    std::printf("digest %s seed=%llu", opts_.workload.c_str(),
                static_cast<unsigned long long>(opts_.seed));
    for (std::uint64_t d : digests_.reference)
        std::printf(" %016llx", static_cast<unsigned long long>(d));
    std::printf("\n");
}

std::string
Bench::runChecks(std::size_t j, const TraceSet &traces,
                 const SimResult &res, std::uint64_t digest)
{
    if (res.hitCycleCap)
        return "run hit the cycle cap";
    std::string err = digests_.check(j, digest);
    if (err.empty() && jobs_[j].machine.sys.numCpus == 1) {
        Span s(tracer_, "golden.check");
        err = checkReplay(*traces[0], res);
        if (err.empty())
            err = checkAgainstGolden(*traces[0], res);
    }
    return err;
}

std::string
Bench::checkpointRoundTrip(std::size_t j, const TraceSet &traces,
                           std::uint64_t want_digest)
{
    Span round(tracer_, "ckpt.round_trip");
    const Job &job = jobs_[j];
    const std::string cut_path = ckptPath("cut");
    const std::string path = ckptPath("bench");
    struct RemoveOnExit
    {
        std::vector<std::string> paths;
        ~RemoveOnExit()
        {
            std::error_code ec;
            for (const std::string &p : paths)
                std::filesystem::remove(p, ec);
        }
    } cleanup{{cut_path, path}};

    // Run to the mid-run cut. The model writes its own snapshot at
    // the trigger; the benchmark then times a second write of the
    // stopped machine through the public entry point.
    MachineParams stop_at = job.machine;
    stop_at.sys.checkpoint.atCycle = ckptCycle_[j];
    stop_at.sys.checkpoint.path = cut_path;
    stop_at.sys.checkpoint.stopAfter = true;
    auto first = buildSystem(stop_at, traces);
    {
        Span s(tracer_, "sim.run_to_cut");
        if (!first->run().stoppedAtCheckpoint)
            return "run did not stop at the checkpoint cycle";
    }
    {
        Span s(tracer_, "ckpt.trace_fingerprint");
        std::uint64_t h = 0;
        for (const auto &t : traces)
            h ^= fingerprintTrace(*t);
        s_["ckpt.trace_fingerprint_s"].push_back(s.cpu());
        if (h == 0)
            return "trace fingerprint is zero";
    }
    {
        Span s(tracer_, "ckpt.write");
        ckpt::writeSystemCheckpoint(*first, path);
        s_["ckpt_write_s"].push_back(s.cpu());
    }
    s_["ckpt.bytes"].push_back(
        static_cast<double>(std::filesystem::file_size(path)));
    first.reset();

    auto resumed = buildSystem(job.machine, traces);
    {
        Span s(tracer_, "ckpt.restore");
        ckpt::restoreSystemCheckpoint(*resumed, path);
        s_["ckpt_restore_s"].push_back(s.cpu());
    }
    SimResult res;
    {
        Span s(tracer_, "sim.run_resumed");
        res = resumed->run();
    }
    if (digestOf(obs::exportStatsJson(resumed->root(), &res)) !=
        want_digest) {
        return "checkpoint-resumed stats JSON differs from the "
               "uninterrupted run's";
    }
    return "";
}

std::string
Bench::tracedRun(std::size_t j, const TraceSet &traces)
{
    const Job &job = jobs_[j];
    // Untraced twin first: the overhead ratio compares like with like.
    {
        auto sys = buildSystem(job.machine, traces);
        Span s(tracer_, "sim.run_untraced");
        sys->run();
        acc_.untracedCpu += s.cpu();
    }
    BenchProfiler prof;
    auto sys = buildSystem(job.machine, traces);
    sys->attachProfiler(&prof);
    SimResult res;
    {
        Span s(tracer_, "sim.run_traced");
        res = sys->run();
        acc_.tracedWall += s.wall();
        acc_.tracedCpu += s.cpu();
    }
    acc_.mem += readMemCounters(sys->root());
    {
        Span s(tracer_, "mem.replay");
        acc_.replayAccesses +=
            static_cast<double>(replayMemory(job.machine, traces));
        acc_.replayS += s.cpu();
    }
    acc_.visited += static_cast<double>(prof.visited);
    acc_.elided += static_cast<double>(prof.elided);
    acc_.ticks += static_cast<double>(prof.ticks);
    acc_.tickS += static_cast<double>(prof.tickNs) * 1e-9;
    acc_.probeS += static_cast<double>(prof.probeNs) * 1e-9;
    acc_.cycles += static_cast<double>(res.cycles);
    acc_.measured += static_cast<double>(res.measured);
    // The profiler observes; it must not perturb the simulation.
    if (digestOf(obs::exportStatsJson(sys->root(), &res)) !=
        digests_.reference[j]) {
        return "traced run's stats differ from the plain reference loop";
    }
    return "";
}

void
Bench::closeTracedRep()
{
    const TraceAcc &a = acc_;
    const MemCounters &m = a.mem;
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    s_["sim.visited_cycles"].push_back(a.visited);
    s_["sim.elided_cycles"].push_back(a.elided);
    s_["sim.elided_ratio"].push_back(ratio(a.elided, a.visited + a.elided));
    s_["sim.kernel_self_s"].push_back(a.tracedWall - a.tickS - a.probeS);
    s_["sim.probe_s"].push_back(a.probeS);
    s_["sim.trace_overhead_ratio"].push_back(
        ratio(a.tracedCpu, a.untracedCpu));
    s_["cpu.tick_s"].push_back(a.tickS);
    s_["cpu.ticks"].push_back(a.ticks);
    s_["cpu.ns_per_tick"].push_back(ratio(a.tickS * 1e9, a.ticks));
    s_["cpu.sim_ipc"].push_back(ratio(a.measured, a.cycles));
    s_["cpu.sim_cycles"].push_back(a.cycles);
    s_["mem.access_ns"].push_back(ratio(a.replayS * 1e9, a.replayAccesses));
    s_["mem.accesses"].push_back(m.l1iAcc + m.l1dAcc);
    s_["mem.l1i_miss_ratio"].push_back(ratio(m.l1iMiss, m.l1iAcc));
    s_["mem.l1d_miss_ratio"].push_back(ratio(m.l1dMiss, m.l1dAcc));
    s_["mem.l2_miss_ratio"].push_back(ratio(m.l2Miss, m.l2Acc));
    s_["mem.bus_transactions"].push_back(m.busTx);
    acc_ = TraceAcc{};
}

void
Bench::singleRep()
{
    Span rep(tracer_, "rep");
    const Job &job = jobs_[0];
    TraceSet traces;
    std::unique_ptr<System> sys;
    {
        Span setup(tracer_, "setup");
        {
            Span s(tracer_, "workload.synth");
            traces = synthesize(job);
            s_["workload.synth_s"].push_back(s.cpu());
        }
        {
            Span s(tracer_, "sim.construct");
            sys = buildSystem(job.machine, traces);
        }
        s_["setup_s"].push_back(setup.cpu());
    }
    std::uint64_t digest = 0;
    guarded("run", [&]() -> std::string {
        const double p0 = processCpuNow();
        SimResult res;
        {
            Span s(tracer_, "sim.run");
            res = sys->run();
            const double cpu = s.cpu();
            const double wall = s.wall();
            s_["sim_kips"].push_back(
                static_cast<double>(res.instructions) / cpu / 1e3);
            s_["sweep_s"].push_back(wall);
            s_["exp.worker_busy_ratio"].push_back(
                (processCpuNow() - p0) / wall);
        }
        std::string json;
        {
            Span s(tracer_, "obs.export");
            json = obs::exportStatsJson(sys->root(), &res);
            s_["obs.export_s"].push_back(s.cpu());
        }
        s_["obs.export_bytes"].push_back(static_cast<double>(json.size()));
        digest = digestOf(json);
        return runChecks(0, traces, res, digest);
    });
    sys.reset();
    s_["exp.points"].push_back(1);
    s_["exp.synth_sets"].push_back(1);
    guarded("checkpoint round trip", [&] {
        return checkpointRoundTrip(0, traces, digest);
    });
    if (opts_.trace) {
        guarded("traced run", [&] { return tracedRun(0, traces); });
        closeTracedRep();
    }
}

void
Bench::sweepRep()
{
    Span rep(tracer_, "rep");
    exp::TracePool pool;
    std::vector<const TraceSet *> sets;
    {
        Span setup(tracer_, "setup");
        {
            Span s(tracer_, "workload.synth");
            for (const Job &job : jobs_) {
                sets.push_back(&pool.acquire(
                    job.profile, job.machine.sys.numCpus, job.instrs));
            }
            s_["workload.synth_s"].push_back(s.cpu());
        }
        s_["setup_s"].push_back(setup.cpu());
    }

    exp::Sweep sweep;
    for (const Job &job : jobs_)
        sweep.add(job.label, job.machine, job.profile, job.instrs);
    // The digest travels back through the point's metric map as two
    // exactly representable 32-bit halves.
    sweep.setMetricFn([](PerfModel &model, const SimResult &res,
                         std::map<std::string, double> &metrics) {
        const double c0 = threadCpuNow();
        const std::string json =
            obs::exportStatsJson(model.system().root(), &res);
        metrics["export_s"] = threadCpuNow() - c0;
        metrics["export_bytes"] = static_cast<double>(json.size());
        const std::uint64_t d = digestOf(json);
        metrics["digest_hi"] = static_cast<double>(d >> 32);
        metrics["digest_lo"] = static_cast<double>(d & 0xffffffffu);
    });
    exp::SweepOptions so;
    so.threads = opts_.sweepWorkers;
    std::vector<exp::PointResult> points;
    {
        const double p0 = processCpuNow();
        Span s(tracer_, "exp.sweep");
        points = exp::SweepRunner(so).run(sweep);
        const double wall = s.wall();
        double instrs = 0;
        for (const exp::PointResult &p : points)
            instrs += static_cast<double>(p.sim.instructions);
        s_["sweep_s"].push_back(wall);
        s_["sim_kips"].push_back(instrs / wall / 1e3);
        s_["exp.worker_busy_ratio"].push_back(
            (processCpuNow() - p0) /
            (wall * so.threads));
    }
    s_["exp.points"].push_back(static_cast<double>(points.size()));
    s_["exp.synth_sets"].push_back(
        static_cast<double>(pool.setsSynthesized()));

    double export_s = 0, export_bytes = 0;
    std::uint64_t ckpt_digest = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
        const exp::PointResult &p = points[j];
        guarded("point " + p.label, [&]() -> std::string {
            if (!p.ok)
                return p.error;
            const std::uint64_t d =
                (static_cast<std::uint64_t>(p.metrics.at("digest_hi"))
                 << 32) |
                static_cast<std::uint64_t>(p.metrics.at("digest_lo"));
            export_s += p.metrics.at("export_s");
            export_bytes += p.metrics.at("export_bytes");
            if (j + 1 == jobs_.size())
                ckpt_digest = d;
            return runChecks(j, *sets[j], p.sim, d);
        });
    }
    s_["obs.export_s"].push_back(export_s);
    s_["obs.export_bytes"].push_back(export_bytes);

    // The checkpoint round trip cuts the grid's last point (TPC-C on
    // the 4-way machine, the largest snapshot of the grid).
    guarded("checkpoint round trip", [&] {
        return checkpointRoundTrip(jobs_.size() - 1, *sets.back(),
                                   ckpt_digest);
    });
    if (opts_.trace) {
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            guarded("traced point " + jobs_[j].label,
                    [&] { return tracedRun(j, *sets[j]); });
        }
        closeTracedRep();
    }
}

void
Bench::computeModelError()
{
    // IPC error of the model against the physicalMachine() stand-in,
    // over every job that runs the base machine (mean absolute %).
    double sum = 0;
    unsigned n = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
        const Job &job = jobs_[j];
        const unsigned cpus = job.machine.sys.numCpus;
        if (job.machine.name != sparc64vBase(cpus).name)
            continue;
        const TraceSet traces = synthesize(job);
        auto sys = buildSystem(
            withWarmup(physicalMachine(cpus), job.instrs), traces);
        const SimResult phys = sys->run();
        sum += std::fabs(refIpc_[j] / phys.ipc - 1.0) * 100.0;
        ++n;
    }
    modelErrPct_ = n ? sum / n : 0.0;
}

/**
 * How a metric's per-repetition samples become its value. Host
 * interference on a shared machine is one-sided and bimodal (a
 * repetition runs at full speed or up to ~1.6x slower while
 * neighbours contend for the memory system), so the median of a run
 * tracks the neighbours' duty cycle; the best repetition tracks the
 * code. End-to-end host times therefore report the best repetition,
 * per-layer numbers (no bound, attribution only) the median.
 */
enum class Stat
{
    Median,
    Lowest,  ///< best repetition of a lower-is-better time.
    Highest, ///< best repetition of a higher-is-better rate.
};

struct MetricDef
{
    const char *name;
    const char *unit;
    Stat stat = Stat::Median;
};

constexpr MetricDef kEndToEnd[] = {
    {"sim_kips", "kinstr/s", Stat::Highest},
    {"setup_s", "s", Stat::Lowest},
    {"ckpt_write_s", "s", Stat::Lowest},
    {"ckpt_restore_s", "s", Stat::Lowest},
    {"sweep_s", "s", Stat::Lowest},
    {"rss_mb", "MiB", Stat::Median},
};

constexpr MetricDef kPerLayer[] = {
    {"workload.synth_s", "s"},
    {"sim.visited_cycles", "cycles"},
    {"sim.elided_cycles", "cycles"},
    {"sim.elided_ratio", "ratio"},
    {"sim.kernel_self_s", "s"},
    {"sim.probe_s", "s"},
    {"sim.trace_overhead_ratio", "ratio"},
    {"cpu.tick_s", "s"},
    {"cpu.ticks", "count"},
    {"cpu.ns_per_tick", "ns"},
    {"cpu.sim_ipc", "instr/cycle"},
    {"cpu.sim_cycles", "cycles"},
    {"mem.access_ns", "ns"},
    {"mem.accesses", "count"},
    {"mem.l1i_miss_ratio", "ratio"},
    {"mem.l1d_miss_ratio", "ratio"},
    {"mem.l2_miss_ratio", "ratio"},
    {"mem.bus_transactions", "count"},
    {"obs.export_s", "s"},
    {"obs.export_bytes", "bytes"},
    {"ckpt.bytes", "bytes"},
    {"ckpt.trace_fingerprint_s", "s"},
    {"exp.points", "count"},
    {"exp.synth_sets", "count"},
    {"exp.worker_busy_ratio", "ratio"},
    {"model.err_vs_physical_pct", "%"},
};

int
Bench::run()
{
    computeReference();
    if (opts_.trace)
        computeModelError();

    // At least three repetitions: medians need them, and the
    // cross-repetition digest check needs a second one.
    constexpr unsigned kMinReps = 3;
    const std::vector<int> cpus = allowedCpus();
    const double end = wallNow() + opts_.seconds;
    unsigned reps = 0;
    while (reps < kMinReps || wallNow() < end) {
        // The sweep's workers stay free for the scheduler to balance.
        if (!sweep_)
            pinRepetition(cpus, reps);
        tracer_.setRun(reps++);
        if (sweep_)
            sweepRep();
        else
            singleRep();
    }
    s_["rss_mb"].push_back(peakRssMb());
    s_["model.err_vs_physical_pct"].push_back(modelErrPct_);

    if (opts_.trace && !opts_.spansOut.empty() &&
        !tracer_.write(opts_.spansOut, opts_.workload, opts_.seed)) {
        std::printf("warning: could not write spans to %s\n",
                    opts_.spansOut.c_str());
    }

    // Every metric must have samples; one without (all its operations
    // threw) is itself a failure, reported as 0.
    const std::vector<MetricDef> defs = opts_.trace
        ? std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer))
        : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd));
    std::vector<double> values;
    for (const MetricDef &m : defs) {
        const std::vector<double> &xs = s_[m.name];
        if (xs.empty()) {
            ops_.record(std::string("metric ") + m.name, "no samples");
            values.push_back(0.0);
            continue;
        }
        const double lo = *std::min_element(xs.begin(), xs.end());
        const double hi = *std::max_element(xs.begin(), xs.end());
        const double v = m.stat == Stat::Lowest ? lo
            : m.stat == Stat::Highest           ? hi
                                                : median(xs);
        std::printf("metric %-28s %.9g %s (%s of %zu: min %.6g, median "
                    "%.6g, max %.6g)\n",
                    m.name, v, m.unit,
                    m.stat == Stat::Median ? "median" : "best", xs.size(),
                    lo, median(xs), hi);
        values.push_back(v);
    }

    std::printf("workload %s seed=%llu reps=%u ops=%llu failed=%llu "
                "fail_ratio=%.6f\n",
                opts_.workload.c_str(),
                static_cast<unsigned long long>(opts_.seed), reps,
                static_cast<unsigned long long>(ops_.attempted),
                static_cast<unsigned long long>(ops_.failed),
                static_cast<double>(ops_.failed) /
                    static_cast<double>(ops_.attempted));

    // The result line: every value with all its digits.
    std::string json = "{\"correct\": ";
    json += ops_.failed ? "false" : "true";
    json += ", \"attempted\": " + std::to_string(ops_.attempted);
    json += ", \"failed\": " + std::to_string(ops_.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", defs[i].name, values[i], defs[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return ops_.failed ? 1 : 0;
}

// -------------------------------------------------------------- main

/** Trace length per CPU of each workload (see README.md). */
constexpr std::size_t kUpInstrs = 400'000;
constexpr std::size_t kSmpInstrs = 100'000;
constexpr std::size_t kSweepInstrs = 150'000;

std::vector<Job>
jobsFor(const Options &o, bool &sweep)
{
    const auto len = [&](std::size_t def) {
        return o.instrs ? o.instrs : def;
    };
    const auto job = [&](std::string label, MachineParams m,
                         const WorkloadProfile &p, std::size_t n) {
        return Job{std::move(label), withWarmup(std::move(m), n),
                   seeded(p, o.seed), n};
    };
    sweep = false;
    if (o.workload == "tpcc_up")
        return {job("TPC-C / UP", sparc64vBase(1), tpccProfile(),
                    len(kUpInstrs))};
    if (o.workload == "specint_up")
        return {job("SPECint2000 / UP", sparc64vBase(1),
                    specint2000Profile(), len(kUpInstrs))};
    if (o.workload == "tpcc_smp4")
        return {job("TPC-C / 4P", sparc64vBase(4), tpccProfile(),
                    len(kSmpInstrs))};
    if (o.workload == "sweep_fig08") {
        // Figure 8's grid: every paper workload on the 2-way and the
        // 4-way machine, rows then variants as runGrid orders them.
        sweep = true;
        std::vector<Job> jobs;
        for (const std::string &name : workloadNames()) {
            const WorkloadProfile p = workloadByName(name);
            jobs.push_back(job(name + " / 2-way",
                               withIssueWidth(sparc64vBase(1), 2), p,
                               len(kSweepInstrs)));
            jobs.push_back(job(name + " / 4-way", sparc64vBase(1), p,
                               len(kSweepInstrs)));
        }
        return jobs;
    }
    return {};
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "tpcc_up|specint_up|tpcc_smp4|sweep_fig08 --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] "
                 "[--spans-out FILE] [--sweep-workers N] [--instrs N] "
                 "[--force-digest-mismatch]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--force-digest-mismatch") {
            o.forceDigestMismatch = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = parseCount("--seed", v);
        } else if (a == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(v, &end);
            if (*end || !(o.seconds >= 0.0))
                usage("bad value for --seconds");
        } else if (a == "--trace") {
            o.trace = parseCount("--trace", v) != 0;
        } else if (a == "--work-dir") {
            o.workDir = v;
        } else if (a == "--spans-out") {
            o.spansOut = v;
        } else if (a == "--sweep-workers") {
            o.sweepWorkers = static_cast<unsigned>(
                parseCount("--sweep-workers", v));
            if (o.sweepWorkers == 0)
                usage("--sweep-workers must be at least 1");
        } else if (a == "--instrs") {
            o.instrs = parseCount("--instrs", v);
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    bool sweep = false;
    std::vector<Job> jobs = jobsFor(opts, sweep);
    if (jobs.empty())
        usage(("unknown workload '" + opts.workload + "'").c_str());
    // Model errors become exceptions, counted as failed operations.
    setThrowOnError(true);
    if (logLevel() > LogLevel::Warn)
        setLogLevel(LogLevel::Warn);
    std::error_code ec;
    std::filesystem::create_directories(opts.workDir, ec);
    try {
        Bench bench(opts, std::move(jobs), sweep);
        return bench.run();
    } catch (const std::exception &e) {
        // Outside any counted operation (reference run, synthesis):
        // no result can be trusted, so none is printed.
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
