// Command-line driver: run any evaluation scheme on any workload and
// print the cancellation summary (optionally writing before/after WAVs).
//
//   mute_cli [--scheme mute|bose|bose_overall|mute_passive]
//            [--noise white|male|female|construction|music|hum]
//            [--seconds N] [--seed N] [--no-rf] [--profiling]
//            [--drift METERS] [--wav PREFIX]
//
// Link-fault experiments run on the served device instead:
// bench/fault_recovery.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "audio/wav.hpp"
#include "eval/metrics.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace {

using namespace mute;

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [--scheme mute|bose|bose_overall|mute_passive]\n"
      "          [--noise white|male|female|construction|music|hum]\n"
      "          [--seconds N] [--seed N] [--no-rf] [--profiling]\n"
      "          [--drift METERS] [--wav PREFIX]\n",
      argv0);
  std::exit(2);
}

sim::Scheme parse_scheme(const std::string& s, const char* argv0) {
  if (s == "mute") return sim::Scheme::kMuteHollow;
  if (s == "bose") return sim::Scheme::kBoseActive;
  if (s == "bose_overall") return sim::Scheme::kBoseOverall;
  if (s == "mute_passive") return sim::Scheme::kMutePassive;
  usage(argv0);
}

sim::NoiseKind parse_noise(const std::string& s, const char* argv0) {
  if (s == "white") return sim::NoiseKind::kWhite;
  if (s == "male") return sim::NoiseKind::kMaleVoice;
  if (s == "female") return sim::NoiseKind::kFemaleVoice;
  if (s == "construction") return sim::NoiseKind::kConstruction;
  if (s == "music") return sim::NoiseKind::kMusic;
  if (s == "hum") return sim::NoiseKind::kMachineHum;
  usage(argv0);
}

int run_cli(int argc, char** argv) {
  sim::Scheme scheme = sim::Scheme::kMuteHollow;
  sim::NoiseKind noise_kind = sim::NoiseKind::kWhite;
  double seconds = 10.0;
  std::uint64_t seed = 42;
  bool no_rf = false;
  bool profiling = false;
  double drift = 0.0;
  std::string wav_prefix;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scheme") {
      scheme = parse_scheme(next(), argv[0]);
    } else if (arg == "--noise") {
      noise_kind = parse_noise(next(), argv[0]);
    } else if (arg == "--seconds") {
      seconds = std::stod(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--no-rf") {
      no_rf = true;
    } else if (arg == "--profiling") {
      profiling = true;
    } else if (arg == "--drift") {
      drift = std::stod(next());
    } else if (arg == "--wav") {
      wav_prefix = next();
    } else {
      usage(argv[0]);
    }
  }

  const auto scene = acoustics::Scene::paper_office();
  auto cfg = sim::make_scheme_config(scheme, scene, seed);
  cfg.duration_s = seconds;
  if (no_rf) cfg.use_rf_link = false;
  cfg.profiling = profiling;
  cfg.head_drift_m = drift;

  auto noise = sim::make_noise(noise_kind, scene.sample_rate, seed + 1000);
  std::printf("running %s on %s for %.1f s (seed %llu)...\n",
              sim::scheme_name(scheme), sim::noise_name(noise_kind), seconds,
              static_cast<unsigned long long>(seed));
  const auto result = sim::run_anc_simulation(*noise, cfg);

  const double skip = seconds / 2.0;
  const auto spec = eval::cancellation_spectrum(
      result.disturbance, result.residual, result.sample_rate, skip);
  const double power = eval::band_cancellation_db(
      result.disturbance, result.residual, result.sample_rate, 30, 4000, skip);

  std::printf("\nlookahead %.2f ms | link delay %.2f ms | N = %zu taps\n",
              result.acoustic_lookahead_s * 1e3, result.link_delay_s * 1e3,
              result.noncausal_taps);
  std::printf("cancellation: broadband power %.1f dB | per-bin dB-mean "
              "0-1k %.1f, 1-4k %.1f\n",
              power, spec.average_db(30, 1000), spec.average_db(1000, 4000));
  if (profiling) {
    std::printf("profiles %zu, switches %zu\n", result.profiles_seen,
                result.profile_switches);
  }

  if (!wav_prefix.empty()) {
    audio::write_wav(wav_prefix + "_before.wav",
                     {result.disturbance, result.sample_rate});
    audio::write_wav(wav_prefix + "_after.wav",
                     {result.residual, result.sample_rate});
    std::printf("wrote %s_before.wav / %s_after.wav\n", wav_prefix.c_str(),
                wav_prefix.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // WAV I/O (and config validation) reports failures as exceptions; a CLI
  // should turn them into a diagnostic and a nonzero exit, not a terminate.
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mute_cli: error: %s\n", e.what());
    return 1;
  }
}
