// Robustness evaluation: what happens to the ear when the wireless
// reference chain fails mid-run? Each scripted RF fault (relay power
// loss, co-channel jammer, deep fade, impulse noise, clock drift) hits a
// converged device (run_device_simulation: the served MuteDevice and its
// link supervision) at t = 6.0 s for 0.5 s. With link supervision the
// device must degrade gracefully — freeze adaptation, fade the anti-noise
// out, never play louder than passive — and re-converge after the link
// returns. The unsupervised table shows why the monitor exists: the
// demodulator garbage drives FxLMS straight into the error mic.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <span>
#include <vector>

#include "audio/generators.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace {

using namespace mute;

constexpr double kDuration = 11.0;
constexpr double kFaultStart = 6.0;
constexpr double kFaultLen = 0.5;
// Converged stretch before the fault (the device is live from ~1.5 s).
constexpr double kPreStart = 4.5;
constexpr double kPreEnd = 5.9;

/// Broadband cancellation over [t0, t1): residual power re disturbance, dB
/// (negative = quieter than passive).
double window_db(const sim::SystemResult& r, double t0, double t1) {
  return eval::window_cancellation_db(r.disturbance, r.residual,
                                     r.sample_rate, t0, t1);
}

/// Seconds after link restoration until a sliding 0.25 s window first
/// comes within 3 dB of the pre-fault cancellation (-1 if it never does).
double recovery_s(const sim::SystemResult& r, double pre_db) {
  const double restored = kFaultStart + kFaultLen;
  for (double t = restored; t + 0.25 <= kDuration; t += 0.05) {
    if (window_db(r, t, t + 0.25) <= pre_db + 3.0) return t - restored;
  }
  return -1.0;
}

/// One relay over RF, the short power-up lifecycle and the MUTE_Hollow
/// canceller; device defaults otherwise.
sim::SystemResult run_one(sim::FaultScenario scenario, bool supervised) {
  sim::DeviceSimConfig cfg;
  cfg.duration_s = kDuration;
  cfg.seed = 11;
  cfg.relay_faults = {
      sim::make_fault_schedule(scenario, kFaultStart, kFaultLen)};
  cfg.device.calibration_s = 1.0;
  cfg.device.selection_period_s = 0.5;
  cfg.device.lanc.fxlms.mu = 0.05;
  cfg.device.lanc.fxlms.causal_taps = 512;
  cfg.device.lanc.fxlms.leakage = 2e-4;
  if (!supervised) {
    cfg.device.link_supervision = false;
    cfg.device.weight_norm_limit = 0.0;
  }
  audio::WhiteNoiseSource noise(0.1, 1011);
  return sim::run_device_simulation(noise, cfg);
}

}  // namespace

int main() {
  std::printf("Fault injection & graceful degradation (0.5 s fault at "
              "t = %.1f s)\n\n", kFaultStart);

  const sim::FaultScenario scenarios[] = {
      sim::FaultScenario::kRelayDropout, sim::FaultScenario::kJammerBurst,
      sim::FaultScenario::kDeepFade, sim::FaultScenario::kImpulseNoise,
      sim::FaultScenario::kClockDrift,
  };

  eval::Table sup({"fault", "pre_dB", "outage_dB", "recover_s", "post_dB",
                   "episodes", "flagged_s", "rollbacks"});
  eval::Table unsup({"fault", "pre_dB", "outage_dB", "post_dB"});
  // Independent simulations — seeds fixed inside run_one — so all sweep
  // in parallel; rows are emitted in index order. The last is the
  // fault-free run: every run counts the power-up lead-in's silence
  // episode, so the fault tallies are taken net of it.
  constexpr std::size_t kScenarios = sizeof(scenarios) / sizeof(scenarios[0]);
  const auto results =
      sim::parallel_sweep(2 * kScenarios + 1, [&](std::size_t i) {
        if (i == 2 * kScenarios) {
          return run_one(sim::FaultScenario::kNone, /*supervised=*/true);
        }
        return run_one(scenarios[i % kScenarios],
                       /*supervised=*/i < kScenarios);
      });
  const auto& base = results[2 * kScenarios];
  for (std::size_t s = 0; s < kScenarios; ++s) {
    const auto scenario = scenarios[s];
    {
      const auto& r = results[s];
      const double pre = window_db(r, kPreStart, kPreEnd);
      const double row[] = {
          pre,
          window_db(r, kFaultStart, kFaultStart + kFaultLen),
          recovery_s(r, pre),
          window_db(r, kDuration - 2.0, kDuration),
          // Same run as `base` up to the fault, so no difference is < 0.
          static_cast<double>(r.link_fault_episodes -
                              base.link_fault_episodes),
          static_cast<double>(r.link_fault_samples -
                              base.link_fault_samples) / r.sample_rate,
          static_cast<double>(r.weight_rollbacks),
      };
      sup.add_row(sim::fault_scenario_name(scenario), row, 2);
    }
    {
      const auto& r = results[kScenarios + s];
      const double row[] = {
          window_db(r, kPreStart, kPreEnd),
          window_db(r, kFaultStart, kFaultStart + kFaultLen),
          window_db(r, kDuration - 2.0, kDuration),
      };
      unsup.add_row(sim::fault_scenario_name(scenario), row, 2);
    }
  }

  std::printf("-- link supervision + weight-norm guard armed (episodes and "
              "flagged_s net of the fault-free run) --\n");
  sup.print(std::cout);
  std::printf("\n-- same faults, supervision disabled --\n");
  unsup.print(std::cout);

  std::printf(
      "\nMeasured shape: supervised, the dropout and jammer outages stay\n"
      "within ~0.25 dB of passive (the anti-noise faded out), recover_s is\n"
      "0.15 s and post_dB is back at pre_dB. The deep fade is flagged too,\n"
      "yet its outage_dB is ~ +3 dB: louder than passive, an open defect.\n"
      "Impulse bursts and clock drift are absorbed by demodulation and\n"
      "decimation: never flagged, still cancelling. Unsupervised, the\n"
      "dropout and fade rows feed demodulator garbage to FxLMS (outage\n"
      "~ +7 dB, louder than no ANC at all).\n");
  return 0;
}
