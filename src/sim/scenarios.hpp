#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "audio/source.hpp"
#include "sim/system.hpp"

namespace mute::sim {

/// The four comparison schemes of the paper's evaluation (Section 5.1).
enum class Scheme {
  kMuteHollow,    // open-ear MUTE: wireless reference, no passive shell
  kBoseActive,    // headphone ANC alone: on-ear ref mic, no shell
  kBoseOverall,   // headphone ANC + passive shell
  kMutePassive,   // MUTE's LANC + the passive shell (MUTE+Passive)
};

const char* scheme_name(Scheme scheme);

/// Build the SystemConfig for a scheme in a given scene. The Bose variants
/// move the reference microphone onto the headphone (1.5 cm outward from
/// the error mic toward the noise), use premium transducers, a headphone
/// latency budget, and no wireless link.
SystemConfig make_scheme_config(Scheme scheme,
                                const acoustics::Scene& scene,
                                std::uint64_t seed);

/// The noise workloads of Figures 12/14/15.
enum class NoiseKind {
  kWhite,          // wide-band white noise (Fig. 12)
  kMaleVoice,      // Fig. 14
  kFemaleVoice,    // Fig. 14
  kConstruction,   // Fig. 14
  kMusic,          // Fig. 14 / 15
  kMachineHum,     // the "persistent machine noise" convergence case
};

const char* noise_name(NoiseKind kind);

/// Instantiate a workload generator.
audio::SourcePtr make_noise(NoiseKind kind, double sample_rate,
                            std::uint64_t seed);

/// Canned RF-fault scenarios for robustness experiments (bench/tests).
enum class FaultScenario {
  kNone,
  kRelayDropout,   // relay power loss: carrier off for the whole window
  kJammerBurst,    // strong co-channel tone inside the window
  kDeepFade,       // 48 dB flat fade (below FM threshold), smooth edges
  kImpulseNoise,   // impulsive wideband interference
  kClockDrift,     // 80 ppm relay clock error across the window
};

const char* fault_scenario_name(FaultScenario scenario);

/// Build the scripted fault schedule for `scenario` over
/// [start_s, start_s + duration_s). kNone yields an empty schedule. The
/// single source of the canned fault parameters: DeviceSimConfig callers
/// (bench/fault_recovery, bench/failover, the integration tests) put it
/// into `relay_faults` to fault one relay of a deployment.
/// `jammer_channel` only affects kJammerBurst: >= 0 pins the interferer to
/// that ISM channel (so spectrum-planner hops can dodge it); the -1
/// default keeps the legacy co-channel follow-the-victim jammer.
rf::FaultSchedule make_fault_schedule(FaultScenario scenario, double start_s,
                                      double duration_s,
                                      int jammer_channel = -1);

}  // namespace mute::sim
