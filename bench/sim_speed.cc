/**
 * @file
 * Simulation-speed microbench (§2.1): the paper's model ran at 7.8K
 * instructions/second on a 1-GHz Pentium III for a multi-user
 * interactive (TPC-C) trace in UP configuration. This measures our
 * model's simulated-instructions-per-second on the same kind of
 * workload — each configuration twice, with the plain per-cycle
 * reference loop and with the fast engine (skip-ahead, memoized
 * quiescence, deferred idle ticks), so BENCH_sim_speed.json records
 * per-workload KIPS for both plus the fast engine's speedup.
 */

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "model/perf_model.hh"
#include "obs/bench_record.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

using namespace s64v;

namespace
{

/**
 * KIPS of the plain loop per workload, recorded when its row
 * finishes; the benchmark registration order (plain first per
 * workload) guarantees it exists when the fast-engine row derives
 * "<workload>_speedup" from it.
 */
std::map<std::string, double> &
plainKips()
{
    static std::map<std::string, double> m;
    return m;
}

void
recordVariant(const std::string &workload, bool skip, double kips)
{
    obs::setBenchMetric(workload + (skip ? "_skip_kips" : "_plain_kips"),
                        kips);
    if (!skip) {
        plainKips()[workload] = kips;
        return;
    }
    const auto plain = plainKips().find(workload);
    if (plain != plainKips().end() && plain->second > 0.0)
        obs::setBenchMetric(workload + "_speedup", kips / plain->second);
}

/**
 * Run @p instrs_per_cpu instructions of @p profile on an
 * @p num_cpus-way sparc64vBase machine once per iteration, timing
 * only the model runs (trace synthesis is hoisted out). @p skip
 * selects the fast engine, otherwise the plain per-cycle loop.
 */
void
simSpeed(benchmark::State &state, const WorkloadProfile &profile,
         unsigned num_cpus, std::size_t instrs_per_cpu,
         bool skip, const char *workload)
{
    TraceGenerator gen(profile, num_cpus);
    std::vector<std::shared_ptr<const InstrTrace>> traces;
    for (CpuId c = 0; c < num_cpus; ++c)
        traces.push_back(std::make_shared<const InstrTrace>(
            gen.generate(instrs_per_cpu, c)));

    double run_seconds = 0.0;
    for (auto _ : state) {
        MachineParams mp = sparc64vBase(num_cpus);
        mp.sys.skipAhead = skip;
        PerfModel m(mp);
        for (CpuId c = 0; c < num_cpus; ++c)
            m.loadTrace(c, traces[c]);
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(m.run().cycles);
        run_seconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    }

    const std::uint64_t instrs_per_iter = num_cpus * instrs_per_cpu;
    const double total_kinstr =
        static_cast<double>(state.iterations() * instrs_per_iter) /
        1000.0;
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() *
                                  instrs_per_iter));
    state.counters["KIPS"] = benchmark::Counter(
        total_kinstr, benchmark::Counter::kIsRate);
    if (run_seconds > 0.0)
        recordVariant(workload, skip, total_kinstr / run_seconds);
}

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            generateTrace(tpccProfile(), n).size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}

} // namespace

// Plain before the fast engine per workload: recordVariant()
// derives each speedup against the plain number.
BENCHMARK_CAPTURE(simSpeed, tpcc_up_plain, tpccProfile(), 1, 30000,
                  false, "tpcc_up")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(simSpeed, tpcc_up_skip, tpccProfile(), 1, 30000,
                  true, "tpcc_up")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(simSpeed, specint_up_plain, specint2000Profile(),
                  1, 30000, false, "specint_up")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(simSpeed, specint_up_skip, specint2000Profile(),
                  1, 30000, true, "specint_up")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(simSpeed, tpcc_smp4_plain, tpccProfile(), 4, 8000,
                  false, "tpcc_smp4")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(simSpeed, tpcc_smp4_skip, tpccProfile(), 4, 8000,
                  true, "tpcc_smp4")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceGeneration)->Arg(50000)
    ->Unit(benchmark::kMillisecond);
