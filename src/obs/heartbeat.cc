#include "obs/heartbeat.hh"

#include <cstdio>
#include <mutex>

#include "common/logging.hh"

namespace s64v::obs
{

namespace
{

/** The process-wide sweep progress board (see SweepProgress). */
struct ProgressBoard
{
    std::mutex mutex;
    bool active = false;
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    std::uint64_t instrs = 0;
    std::chrono::steady_clock::time_point start;
};

ProgressBoard &
board()
{
    static ProgressBoard b;
    return b;
}

} // namespace

void
beginSweepProgress(std::uint64_t total_points)
{
    ProgressBoard &b = board();
    std::lock_guard<std::mutex> lock(b.mutex);
    b.active = true;
    b.done = 0;
    b.total = total_points;
    b.instrs = 0;
    b.start = std::chrono::steady_clock::now();
}

void
noteSweepPointDone(std::uint64_t instrs)
{
    ProgressBoard &b = board();
    std::lock_guard<std::mutex> lock(b.mutex);
    ++b.done;
    b.instrs += instrs;
}

void
endSweepProgress()
{
    ProgressBoard &b = board();
    std::lock_guard<std::mutex> lock(b.mutex);
    b.active = false;
}

SweepProgress
sweepProgress()
{
    ProgressBoard &b = board();
    std::lock_guard<std::mutex> lock(b.mutex);
    SweepProgress out;
    out.active = b.active;
    out.done = b.done;
    out.total = b.total;
    out.instrs = b.instrs;
    if (b.active) {
        out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - b.start)
                          .count();
    }
    return out;
}

Heartbeat::Heartbeat(std::uint64_t period,
                     std::uint64_t expected_instrs)
    : period_(period), expectedInstrs_(expected_instrs),
      start_(Clock::now()), lastWall_(start_)
{
    if (period_ == 0)
        fatal("heartbeat: period must be nonzero");
}

void
Heartbeat::beat(Cycle cycle, std::uint64_t instrs)
{
    const Clock::time_point now = Clock::now();
    const double dt =
        std::chrono::duration<double>(now - lastWall_).count();
    const std::uint64_t delta = instrs >= lastInstrs_
        ? instrs - lastInstrs_ : 0;
    lastKips_ = dt > 0.0
        ? static_cast<double>(delta) / dt / 1000.0 : 0.0;
    const double ipc = cycle
        ? static_cast<double>(instrs) / static_cast<double>(cycle)
        : 0.0;

    char line[256];
    int n = std::snprintf(
        line, sizeof(line),
        "heartbeat: cycle %llu, %llu instrs, ipc %.3f, %.1f KIPS",
        static_cast<unsigned long long>(cycle),
        static_cast<unsigned long long>(instrs), ipc, lastKips_);
    if (expectedInstrs_ > instrs && lastKips_ > 0.0 &&
        n < static_cast<int>(sizeof(line))) {
        const double eta =
            static_cast<double>(expectedInstrs_ - instrs) /
            (lastKips_ * 1000.0);
        n += std::snprintf(line + n, sizeof(line) - n, ", eta %.1fs",
                           eta);
    }
    const SweepProgress sp = sweepProgress();
    if (sp.active && n < static_cast<int>(sizeof(line))) {
        std::snprintf(line + n, sizeof(line) - n,
                      ", sweep %llu/%llu pts, %.1f KIPS agg",
                      static_cast<unsigned long long>(sp.done),
                      static_cast<unsigned long long>(sp.total),
                      sp.kips());
    }
    inform("%s", line);

    lastWall_ = now;
    lastInstrs_ = instrs;
    ++beats_;
}

} // namespace s64v::obs
