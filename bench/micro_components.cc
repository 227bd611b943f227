/**
 * @file
 * Component microbenches: per-operation costs of the hot simulator
 * structures (cache lookup, BHT, bus arbitration, TLB), the bytes/s
 * of the checkpoint checksum and the trace identity hash, and a whole
 * 4P checkpoint write and restore.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "ckpt/snapshot.hh"
#include "common/random.hh"
#include "cpu/branch_pred.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "model/fingerprint.hh"
#include "model/params.hh"
#include "sim/system.hh"
#include "trace/trace.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

using namespace s64v;

namespace
{

void
BM_CacheLookupHit(benchmark::State &state)
{
    stats::Group g("b");
    CacheParams p;
    p.sizeBytes = 128 << 10;
    p.assoc = 2;
    TimedCache cache(p, &g);
    Rng rng(1);
    std::vector<Addr> addrs;
    for (int i = 0; i < 1024; ++i) {
        const Addr a = rng.below(64 << 10);
        cache.fill(a, 0, false);
        addrs.push_back(a);
    }
    std::size_t i = 0;
    Cycle c = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.lookup(addrs[i++ & 1023], false, ++c).ready);
    }
}

void
BM_CacheLookupMissStream(benchmark::State &state)
{
    stats::Group g("b");
    CacheParams p;
    p.sizeBytes = 2 << 20;
    p.assoc = 4;
    TimedCache cache(p, &g);
    Addr a = 0;
    Cycle c = 0;
    for (auto _ : state) {
        auto res = cache.lookup(a, false, ++c);
        if (!res.hit && !res.merged)
            cache.fill(a, c + 200, false);
        a += 64;
        benchmark::DoNotOptimize(res.ready);
    }
}

void
BM_BhtPredictUpdate(benchmark::State &state)
{
    stats::Group g("b");
    BranchPredParams p;
    BranchPredictor bp(p, &g);
    Rng rng(2);
    std::vector<Addr> pcs;
    for (int i = 0; i < 4096; ++i)
        pcs.push_back(0x10000 + 4 * rng.below(8192));
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr pc = pcs[i++ & 4095];
        const bool t = (pc >> 3) & 1;
        benchmark::DoNotOptimize(bp.predict(pc, t));
        bp.update(pc, t);
    }
}

void
BM_BusTransfer(benchmark::State &state)
{
    stats::Group g("b");
    Bus bus(BusParams{}, "bus", &g);
    Cycle c = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bus.transfer(c, 64));
        c += 4;
    }
}

void
BM_TlbTranslate(benchmark::State &state)
{
    stats::Group g("b");
    Tlb tlb(TlbParams{}, "tlb", &g);
    Rng rng(3);
    std::vector<Addr> addrs;
    for (int i = 0; i < 1024; ++i)
        addrs.push_back(rng.below(1ull << 30));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tlb.translate(addrs[i++ & 1023], 0));
    }
}

void
BM_SnapshotChecksum(benchmark::State &state)
{
    Rng rng(4);
    std::vector<std::uint8_t> buf(1 << 20);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.below(256));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ckpt::hashBytes(buf.data(), buf.size()));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * buf.size()));
}

void
BM_TraceFingerprint(benchmark::State &state)
{
    // perfbench's tpcc_up trace length: the hash the first checkpoint
    // of a trace pays once per CPU. computeTraceFingerprint() bypasses
    // the memo, so every iteration times the hash itself.
    const InstrTrace trace =
        TraceGenerator(tpccProfile(), 1).generate(400000, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(computeTraceFingerprint(trace));
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * trace.size() * sizeof(TraceRecord)));
}

/**
 * A 4P TPC-C machine stopped at a mid-run checkpoint, the snapshot
 * it wrote (in the system temp directory) and the traces a restored
 * machine needs: the image perfbench's tpcc_smp4 workload writes and
 * restores, at a quarter of its trace length.
 */
class SmpCut
{
  public:
    static constexpr unsigned kCpus = 4;

    SmpCut()
        : path_((std::filesystem::temp_directory_path() /
                 ("s64v_micro_" + std::to_string(::getpid()) +
                  ".ckpt"))
                    .string())
    {
        TraceGenerator gen(tpccProfile(), kCpus);
        for (unsigned cpu = 0; cpu < kCpus; ++cpu)
            traces_.push_back(gen.generate(25000, cpu));
        SystemParams sp = sparc64vBase(kCpus).sys;
        sp.checkpoint.atCycle = 40000;
        sp.checkpoint.path = path_;
        sp.checkpoint.stopAfter = true;
        sys_ = std::make_unique<System>(sp);
        attach(*sys_);
        sys_->run();
    }

    ~SmpCut() { std::remove(path_.c_str()); }

    void attach(System &sys) const
    {
        for (unsigned cpu = 0; cpu < kCpus; ++cpu)
            sys.attachTrace(cpu, traces_[cpu]);
    }

    System &stopped() { return *sys_; }
    const std::string &path() const { return path_; }
    std::uintmax_t bytes() const
    {
        return std::filesystem::file_size(path_);
    }

  private:
    std::string path_;
    std::vector<InstrTrace> traces_;
    std::unique_ptr<System> sys_;
};

void
BM_CheckpointWrite(benchmark::State &state)
{
    SmpCut cut;
    for (auto _ : state) {
        ckpt::writeSystemCheckpoint(cut.stopped(), cut.path());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * cut.bytes()));
}

void
BM_CheckpointRestore(benchmark::State &state)
{
    SmpCut cut;
    const SystemParams sp = sparc64vBase(SmpCut::kCpus).sys;
    for (auto _ : state) {
        // Restore wants a freshly built machine; building it is not
        // part of the restore.
        state.PauseTiming();
        auto sys = std::make_unique<System>(sp);
        cut.attach(*sys);
        state.ResumeTiming();
        ckpt::restoreSystemCheckpoint(*sys, cut.path());
        benchmark::DoNotOptimize(sys->continuation().nextCycle);
        state.PauseTiming();
        sys.reset();
        state.ResumeTiming();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * cut.bytes()));
}

} // namespace

BENCHMARK(BM_CacheLookupHit);
BENCHMARK(BM_CacheLookupMissStream);
BENCHMARK(BM_BhtPredictUpdate);
BENCHMARK(BM_BusTransfer);
BENCHMARK(BM_TlbTranslate);
BENCHMARK(BM_SnapshotChecksum);
BENCHMARK(BM_TraceFingerprint);
BENCHMARK(BM_CheckpointWrite)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CheckpointRestore)->Unit(benchmark::kMillisecond);
