/**
 * @file
 * Save the process-wide run options (obs::runObsOptions()) on entry
 * and restore them on exit, for tests that set a command-line flag —
 * heartbeat=N, --watchdog-escalate, --seed= — for the span of one
 * test body.
 */

#ifndef S64V_TESTS_SCOPED_OBS_OPTIONS_HH
#define S64V_TESTS_SCOPED_OBS_OPTIONS_HH

#include "obs/run_obs.hh"

namespace s64v
{

class ScopedObsOptions
{
  public:
    ScopedObsOptions() : saved_(obs::runObsOptions()) {}
    ~ScopedObsOptions() { obs::runObsOptions() = saved_; }

    ScopedObsOptions(const ScopedObsOptions &) = delete;
    ScopedObsOptions &operator=(const ScopedObsOptions &) = delete;

  private:
    obs::ObsOptions saved_;
};

} // namespace s64v

#endif // S64V_TESTS_SCOPED_OBS_OPTIONS_HH
