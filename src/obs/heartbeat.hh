/**
 * @file
 * Run heartbeat: periodic progress lines (cycles, instructions, IPC,
 * host simulation speed in KIPS, ETA) so long batch runs are not
 * silent for minutes. The paper's model simulated ~7.8K instructions
 * per host second (§2.1) — multi-million-instruction runs need a
 * pulse.
 */

#ifndef S64V_OBS_HEARTBEAT_HH
#define S64V_OBS_HEARTBEAT_HH

#include <chrono>
#include <cstdint>

#include "common/types.hh"

namespace s64v::obs
{

/**
 * Emits one inform() line per beat. Attach to a System
 * (System::attachHeartbeat): its run loop beats it every period()
 * cycles.
 */
class Heartbeat
{
  public:
    /**
     * @param period cycles between beats (must be nonzero).
     * @param expected_instrs total instructions the run will commit
     *        (for the ETA estimate); 0 disables the ETA column.
     */
    explicit Heartbeat(std::uint64_t period,
                       std::uint64_t expected_instrs = 0);

    /** Report progress at @p cycle with @p instrs committed so far. */
    void beat(Cycle cycle, std::uint64_t instrs);

    std::uint64_t period() const { return period_; }
    std::uint64_t beats() const { return beats_; }

    /** Host-side simulation speed of the last beat, in KIPS. */
    double lastKips() const { return lastKips_; }

  private:
    using Clock = std::chrono::steady_clock;

    std::uint64_t period_;
    std::uint64_t expectedInstrs_;
    Clock::time_point start_;
    Clock::time_point lastWall_;
    std::uint64_t lastInstrs_ = 0;
    std::uint64_t beats_ = 0;
    double lastKips_ = 0.0;
};

/**
 * Snapshot of the process-wide sweep progress board. While a
 * SweepRunner is executing, every heartbeat line (the embedded
 * points') carries the board's "sweep k/N points, X KIPS aggregate"
 * suffix, so a long parallel sweep reports live fleet-level progress,
 * not just the one point the beating system happens to be.
 */
struct SweepProgress
{
    bool active = false;      ///< a sweep is currently running.
    std::uint64_t done = 0;   ///< points finished (ok or failed).
    std::uint64_t total = 0;  ///< points in the sweep.
    std::uint64_t instrs = 0; ///< committed across finished points.
    double seconds = 0.0;     ///< wall time since the sweep began.

    /** Aggregate host speed over the whole sweep so far, in KIPS. */
    double kips() const
    {
        return seconds > 0.0
            ? static_cast<double>(instrs) / seconds / 1000.0
            : 0.0;
    }
};

/** Open the board for a sweep of @p total_points (resets counters). */
void beginSweepProgress(std::uint64_t total_points);
/** Count one finished point and its committed instructions. */
void noteSweepPointDone(std::uint64_t instrs);
/** Close the board; heartbeat lines drop the sweep suffix. */
void endSweepProgress();
/** Read the board (thread-safe; `active == false` when no sweep). */
SweepProgress sweepProgress();

} // namespace s64v::obs

#endif // S64V_OBS_HEARTBEAT_HH
