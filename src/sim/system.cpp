#include "sim/system.hpp"

#include <algorithm>
#include <cmath>

#include "acoustics/transducer.hpp"
#include "adaptive/sysid.hpp"
#include "adaptive/causal_wiener.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/fir_design.hpp"
#include "dsp/delay_line.hpp"
#include "dsp/fir_filter.hpp"
#include "dsp/signal_ops.hpp"
#include "rf/relay.hpp"
#include "rf/spectrum_plan.hpp"

namespace mute::sim {

namespace {

using acoustics::Transducer;

Transducer make_mic(HardwareGrade grade, double fs, std::uint64_t seed) {
  switch (grade) {
    case HardwareGrade::kCheap:
      return Transducer::cheap_microphone(fs, seed);
    case HardwareGrade::kPremium:
      return Transducer::premium_microphone(fs, seed);
    case HardwareGrade::kIdeal:
      return Transducer::ideal(seed);
  }
  throw InvariantError("unknown hardware grade");
}

Transducer make_speaker(HardwareGrade grade, double fs, std::uint64_t seed) {
  switch (grade) {
    case HardwareGrade::kCheap:
      return Transducer::cheap_speaker(fs, seed);
    case HardwareGrade::kPremium:
      return Transducer::premium_speaker(fs, seed);
    case HardwareGrade::kIdeal:
      return Transducer::ideal(seed);
  }
  throw InvariantError("unknown hardware grade");
}

constexpr double kDisturbanceRms = 0.1;  // at the open ear, ambient on
constexpr double kWarmStartTuningS = 4.0;  // warm-start tuning record
// Weight of the out-of-band output-effort penalty in the warm-start fit
// (higher = less high-frequency spill, shallower in-band depth; the
// Bode-integral trade every feedforward ANC makes).
constexpr double kControlEffortWeight = 2.0;

}  // namespace

namespace detail {

/// The physically effective secondary path: the acoustic h_se cascaded
/// with the processing-latency budget (ADC + DSP + DAC + speaker rise
/// time) realized as a fractional delay. Keeping the budget inside the
/// plant means a conventional headphone's missed deadline shows up exactly
/// as the paper describes: the anti-noise lags the wavefront.
std::vector<double> effective_secondary_ir(
    const std::vector<double>& h_se, double budget_samples) {
  if (budget_samples <= 1e-9) return h_se;
  const std::size_t frac_taps = 31;
  const auto frac =
      mute::dsp::design_fractional_delay(
          std::min(budget_samples, static_cast<double>(frac_taps - 1)),
          frac_taps);
  // If the budget exceeds the interpolator span, add integer shift.
  std::vector<double> ir = h_se;
  const double over = budget_samples - static_cast<double>(frac_taps - 1);
  if (over > 0) {
    ir = acoustics::shift_ir(ir, static_cast<std::size_t>(std::ceil(over)));
  }
  return acoustics::cascade_ir(ir, frac, ir.size() + frac.size());
}

}  // namespace detail

using detail::effective_secondary_ir;

SystemResult run_anc_simulation(audio::SoundSource& noise,
                                const SystemConfig& config,
                                audio::SoundSource* second_noise) {
  const double fs = config.scene.sample_rate;
  ensure(fs > 0, "scene sample rate must be positive");
  const auto n = static_cast<std::size_t>(config.duration_s * fs);
  ensure(n > 4096, "run too short");

  // --- 1. Room channels ------------------------------------------------
  auto channels = acoustics::build_channels(config.scene);

  // --- 2. Noise record, normalized at the ear --------------------------
  // Every evaluation noise physically enters the room through the ambient
  // playback speaker (Section 5.1's Xtrememac), whose ~90 Hz corner is
  // part of the paper's measured reality.
  noise.reset();
  Signal n_sig = noise.generate(n);
  if (config.ambient_speaker) {
    Transducer ambient = Transducer::ambient_speaker(fs, config.seed + 5);
    n_sig = ambient.apply(n_sig);
  }
  Signal d_ac = channels.h_ne.apply(n_sig);
  Signal x_ac = channels.h_nr.apply(n_sig);

  // Optional second source with its own propagation paths.
  if (second_noise != nullptr && config.second_source_position.has_value()) {
    second_noise->reset();
    Signal n2 = second_noise->generate(n);
    if (config.ambient_speaker) {
      Transducer ambient2 = Transducer::ambient_speaker(fs, config.seed + 7);
      n2 = ambient2.apply(n2);
    }
    const auto h_ne2 =
        acoustics::build_path(config.scene, *config.second_source_position,
                              config.scene.error_mic, "h_ne2");
    const auto h_nr2 =
        acoustics::build_path(config.scene, *config.second_source_position,
                              config.scene.relay_mic, "h_nr2");
    const Signal d2 = h_ne2.apply(n2);
    const Signal x2 = h_nr2.apply(n2);
    for (std::size_t i = 0; i < n; ++i) {
      d_ac[i] = static_cast<Sample>(static_cast<double>(d_ac[i]) +
                                    static_cast<double>(d2[i]));
      x_ac[i] = static_cast<Sample>(static_cast<double>(x_ac[i]) +
                                    static_cast<double>(x2[i]));
    }
  }

  // Head mobility: crossfade the disturbance between the start and end
  // ear positions (a linearly time-varying noise->ear channel).
  if (config.head_drift_m > 0.0) {
    acoustics::Scene moved = config.scene;
    moved.error_mic.y += config.head_drift_m;
    ensure(moved.room.contains(moved.error_mic),
           "head drift leaves the room");
    const auto h_ne_end = acoustics::build_path(
        moved, moved.noise_source, moved.error_mic, "h_ne_end");
    const Signal d_end = h_ne_end.apply(n_sig);
    for (std::size_t i = 0; i < n; ++i) {
      const double a = static_cast<double>(i) / static_cast<double>(n);
      d_ac[i] = static_cast<Sample>((1.0 - a) * static_cast<double>(d_ac[i]) +
                                    a * static_cast<double>(d_end[i]));
    }
  }

  {
    const double current = mute::dsp::rms(d_ac);
    const double g = kDisturbanceRms / std::max(current, 1e-9);
    for (auto& v : d_ac) v = static_cast<Sample>(static_cast<double>(v) * g);
    for (auto& v : x_ac) v = static_cast<Sample>(static_cast<double>(v) * g);
  }

  // --- 3. Reference acquisition: mic -> (FM link) -> injected delay ----
  Transducer ref_mic = make_mic(config.grade, fs, config.seed + 11);
  Signal x_mic = ref_mic.apply(x_ac);

  // Relay input gain staging: the analog front end (and the FM deviation
  // budget) is designed for a nominal microphone level; a relay mounted
  // centimeters from a loud source would otherwise drive the soft-clipper
  // and over-deviate the VCO. Normalizing here models the input trimmer /
  // AGC every real transmitter has. The adaptive filter is scale-
  // invariant in x, so no downstream compensation is needed.
  mute::dsp::normalize_rms(x_mic, 0.1);

  double link_delay_samples = 0.0;
  Signal x_link;
  if (config.use_rf_link) {
    rf::RelayConfig rf_cfg;
    rf_cfg.audio_rate = fs;
    rf::RelayLink link(rf_cfg, config.seed + 23);
    link_delay_samples = link.measure_latency_samples();
    x_link = link.process(x_mic);
  } else {
    x_link = std::move(x_mic);
  }

  const auto extra =
      static_cast<std::size_t>(config.extra_reference_delay_s * fs);
  if (extra > 0) {
    Signal delayed = mute::dsp::delay_signal(x_link, extra);
    delayed.resize(n);
    x_link = std::move(delayed);
  }

  // --- 4. Timing budget (Equations 3/4) --------------------------------
  const double advance_samples = channels.direct_ne_samples -
                                 channels.direct_nr_samples -
                                 link_delay_samples -
                                 static_cast<double>(extra);
  const double budget_samples = config.latency.total_s() * fs;
  const std::size_t noncausal = std::min<std::size_t>(
      config.max_noncausal_taps,
      advance_samples > 0 ? static_cast<std::size_t>(advance_samples) : 0);

  // --- 5. Physical anti-noise plant ------------------------------------
  const auto hse_eff =
      effective_secondary_ir(channels.h_se.impulse_response(), budget_samples);
  Transducer speaker = make_speaker(config.grade, fs, config.seed + 31);
  Transducer err_mic = make_mic(config.grade, fs, config.seed + 41);
  mute::dsp::FirFilter hse_stream(hse_eff);

  // Control-bandwidth shaping (see the config comment). The band limit is
  // a property of the *tuning objective*, not a physical output filter: an
  // in-loop low-pass would add hundreds of microseconds of group delay --
  // the very budget the headphone cannot afford. Instead the adaptation
  // error (and the secondary-path estimate feeding the gradient and the
  // warm-start fit) is band-limited, so the controller spends its effort
  // below the cutoff and leakage keeps out-of-band weights near zero.
  auto make_control_lpf = [&]() {
    mute::dsp::BiquadCascade lpf;
    if (config.control_bandwidth_hz > 0) {
      lpf.push_section(mute::dsp::Biquad::lowpass(config.control_bandwidth_hz,
                                                  0.5412, fs));
      lpf.push_section(mute::dsp::Biquad::lowpass(config.control_bandwidth_hz,
                                                  1.3066, fs));
    }
    return lpf;
  };
  // Filtered-error LMS companion: when the control band is limited, the
  // out-of-band disturbance still reaches the error microphone and, fed
  // raw into the LMS, acts as gradient noise several times stronger than
  // the in-band signal — the weights random-walk and can even amplify.
  // Band-limiting the *adaptation* error (and, for gradient consistency,
  // calibrating the secondary-path estimate through the same filter)
  // makes the LMS minimize in-band error only. The recorded physical
  // residual stays unfiltered.
  mute::dsp::BiquadCascade error_lpf = make_control_lpf();

  // --- 6. Secondary-path calibration (quiet room, training noise) ------
  Transducer cal_speaker = make_speaker(config.grade, fs, config.seed + 31);
  Transducer cal_mic = make_mic(config.grade, fs, config.seed + 43);
  mute::dsp::FirFilter cal_hse(hse_eff);
  mute::dsp::BiquadCascade cal_err_lpf = make_control_lpf();
  // When the error returns over RF (tabletop/edge variants), the feedback
  // delay is part of the plant the DSP observes: calibrating through the
  // same delay keeps the filtered-x gradient aligned with the delayed
  // error — without this, the gradient phase error exceeds 90 degrees
  // well inside the audio band and the loop diverges at any step size.
  mute::dsp::DelayLine cal_feedback_delay(config.error_feedback_delay_samples);
  auto plant = [&](std::span<const Sample> stimulus) {
    Signal out(stimulus.size());
    for (std::size_t i = 0; i < stimulus.size(); ++i) {
      const Sample spk = cal_speaker.process(stimulus[i]);
      const Sample at_mic = cal_hse.process(spk);
      out[i] = cal_feedback_delay.process(
          cal_err_lpf.process(cal_mic.process(at_mic)));
    }
    return out;
  };
  const std::size_t sec_taps =
      std::min<std::size_t>(config.secondary_taps, hse_eff.size() + 64);
  auto cal = adaptive::calibrate_path(plant, fs, config.calibration_s,
                                      sec_taps, config.seed + 53);

  // --- 7. LANC controller ----------------------------------------------
  core::LancOptions lanc_opts;
  lanc_opts.fxlms.causal_taps = config.causal_taps;
  lanc_opts.fxlms.noncausal_taps = noncausal;
  lanc_opts.fxlms.mu = config.mu;
  lanc_opts.fxlms.leakage = config.leakage;
  lanc_opts.sample_rate = fs;
  lanc_opts.profiling = config.profiling;
  lanc_opts.switch_hysteresis = config.profile_hysteresis;
  core::LancController lanc(cal.impulse_response, lanc_opts);

  // --- 8. Passive shell on the external-noise path ---------------------
  Signal d_at_ear = d_ac;
  if (config.passive_shell) {
    PassiveShell shell(fs);
    d_at_ear = shell.apply(d_ac);
  }

  // Optional factory-style warm start: record a tuning snippet of the
  // in-band disturbance and the plant-filtered reference (the same u the
  // LMS uses), then solve the exact causal least-squares controller and
  // seed the weights with it. This is the ridge-regularized causal Wiener
  // optimum — what a manufacturer's tuning process produces — and the LMS
  // keeps refining from there.
  if (config.warm_start) {
    const auto tune_len = std::min<std::size_t>(
        static_cast<std::size_t>(kWarmStartTuningS * fs), n);
    Transducer tune_mic = make_mic(config.grade, fs, config.seed + 63);
    mute::dsp::BiquadCascade tune_elpf = make_control_lpf();
    Signal d_tune(tune_len);
    for (std::size_t i = 0; i < tune_len; ++i) {
      d_tune[i] = tune_elpf.process(tune_mic.process(d_at_ear[i]));
    }
    mute::dsp::FirFilter u_filter(cal.impulse_response);
    Signal u_tune(tune_len);
    for (std::size_t i = 0; i < tune_len; ++i) {
      u_tune[i] = u_filter.process(x_link[i]);
    }
    // Out-of-band effort penalty: the band-limited objective cannot see
    // controller output above the cutoff, so penalize it explicitly or
    // the fit will park arbitrary gain there and inject noise at the ear.
    Signal effort;
    if (config.control_bandwidth_hz > 0) {
      // Penalty corner sits below the objective cutoff so the two curves
      // overlap: without that overlap the fit injects gain in the valley
      // between objective rolloff and penalty rise.
      const double corner = 0.8 * config.control_bandwidth_hz;
      mute::dsp::BiquadCascade hpf;
      hpf.push_section(mute::dsp::Biquad::highpass(corner, 0.5412, fs));
      hpf.push_section(mute::dsp::Biquad::highpass(corner, 1.3066, fs));
      effort.resize(tune_len);
      for (std::size_t i = 0; i < tune_len; ++i) {
        effort[i] = hpf.process(x_link[i]);
      }
    }
    auto w0 = adaptive::fit_causal_fir(u_tune, d_tune,
                                       noncausal + config.causal_taps,
                                       1e-4, effort,
                                       kControlEffortWeight);
    lanc.engine().set_weights(w0);
  }

  // --- 9. No-ANC disturbance measurement --------------------------------
  // The paper inserts a separate high-quality "measurement microphone" at
  // the ear-drum position of the head model (Section 5.1); disturbance and
  // residual are recorded with it, independent of the device's own
  // (possibly cheap) control microphones. The disturbance baseline is the
  // *open ear* (no device at all), so schemes with a passive shell report
  // shell + ANC combined — the paper's Bose_Overall/MUTE+Passive metric.
  SystemResult result;
  result.sample_rate = fs;
  Transducer meas_mic_resid =
      Transducer::premium_microphone(fs, config.seed + 67);
  {
    Transducer meas_mic = Transducer::premium_microphone(fs, config.seed + 61);
    result.disturbance = meas_mic.apply(d_ac);
  }

  // --- 10. Streaming ANC loop ------------------------------------------
  result.residual.resize(n);
  result.anti_at_ear.resize(n);
  // Feedback returns over RF with a delay (tabletop/edge variants); a
  // delay of 0 is the wired error mic.
  mute::dsp::DelayLine feedback_delay(config.error_feedback_delay_samples);
  const bool schedule_mu = config.mu_settle > 0 && config.mu_settle < config.mu;
  for (std::size_t t = 0; t < n; ++t) {
    if (schedule_mu && (t & 0x3F) == 0) {
      const double frac = std::exp(-static_cast<double>(t) /
                                   (config.mu_settle_tau_s * fs));
      lanc.engine().set_mu(config.mu_settle +
                           (config.mu - config.mu_settle) * frac);
    }
    const Sample y = lanc.tick(x_link[t]);
    const Sample spk = speaker.process(y);
    const Sample anti = hse_stream.process(spk);
    const Sample at_ear =
        static_cast<Sample>(static_cast<double>(d_at_ear[t]) +
                            static_cast<double>(anti));
    const Sample e = err_mic.process(at_ear);
    lanc.observe_error(feedback_delay.process(error_lpf.process(e)));
    result.residual[t] = meas_mic_resid.process(at_ear);
    result.anti_at_ear[t] = anti;
  }
  result.ambient_at_ear = std::move(d_at_ear);

  result.reference = std::move(x_link);
  result.acoustic_lookahead_s = channels.lookahead_s;
  result.link_delay_s = link_delay_samples / fs;
  result.usable_lookahead_s =
      (advance_samples - budget_samples) / fs;
  result.noncausal_taps = noncausal;
  result.calibration_error_db = cal.final_error_db;
  result.profile_switches = lanc.profile_switch_count();
  result.profiles_seen = lanc.profile_count();
  return result;
}

namespace {

// Steps 1, 2 and 4 of a device-level run: everything upstream of the
// device except the RF chains.
DeviceStreams prepare_acoustic_streams(audio::SoundSource& noise,
                                       const DeviceSimConfig& config) {
  const double fs = config.scene.sample_rate;
  ensure(fs > 0, "scene sample rate must be positive");
  const auto n = static_cast<std::size_t>(config.duration_s * fs);
  ensure(n > 4096, "run too short");

  std::vector<acoustics::Point> relays = config.relay_positions;
  if (relays.empty()) relays.push_back(config.scene.relay_mic);
  const std::size_t relay_count = relays.size();

  // --- 1. Noise record with a quiet power-up lead-in -------------------
  // The device calibrates its secondary path right after power-up; mute
  // the ambient until then (plus margin), like the offline sim's
  // quiet-room calibration phase.
  noise.reset();
  Signal n_sig = noise.generate(n);
  const auto quiet = std::min<std::size_t>(
      n, static_cast<std::size_t>((config.device.calibration_s + 0.1) * fs));
  std::fill(n_sig.begin(),
            n_sig.begin() + static_cast<std::ptrdiff_t>(quiet), 0.0f);

  // --- 2. Acoustic paths: ear + one per relay --------------------------
  const auto h_ne =
      acoustics::build_path(config.scene, config.scene.noise_source,
                            config.scene.error_mic, "h_ne");
  const auto h_se =
      acoustics::build_path(config.scene, config.scene.anti_speaker,
                            config.scene.error_mic, "h_se");
  Signal d_ac = h_ne.apply(n_sig);
  std::vector<Signal> x(relay_count);
  for (std::size_t k = 0; k < relay_count; ++k) {
    const auto h_nr = acoustics::build_path(
        config.scene, config.scene.noise_source, relays[k], "h_nr_k");
    x[k] = h_nr.apply(n_sig);
  }

  // Normalize the ambient level at the ear over the LOUD region (the
  // quiet lead-in would bias a whole-record RMS).
  const auto loud_rms = [&](const Signal& s) {
    double acc = 0.0;
    for (std::size_t i = quiet; i < n; ++i) {
      acc += static_cast<double>(s[i]) * static_cast<double>(s[i]);
    }
    return n > quiet ? std::sqrt(acc / static_cast<double>(n - quiet)) : 0.0;
  };
  const auto scale_to = [&](Signal& s, double target_rms) {
    const double g = target_rms / std::max(loud_rms(s), 1e-9);
    for (auto& v : s) v = static_cast<Sample>(static_cast<double>(v) * g);
  };
  scale_to(d_ac, kDisturbanceRms);
  // Relay input gain staging, exactly as in the single-link sim: each
  // transmitter's trimmer/AGC drives the FM chain at its nominal 0.1 rms
  // (the level the LinkMonitor thresholds are tuned against — an
  // unstaged relay parked next to the source would be loud enough to
  // bury the carrier-loss noise signature). GCC-PHAT and NLMS are
  // scale-invariant in x, so no downstream compensation is needed.
  for (auto& xs : x) scale_to(xs, 0.1);

  // --- 4. Anti-noise plant (latency budget inside, as in the offline
  //        sim) ---------------------------------------------------------
  DeviceStreams streams;
  streams.device = config.device;
  streams.device.sample_rate = fs;
  streams.device.relay_count = relay_count;
  streams.hse_eff = effective_secondary_ir(
      h_se.impulse_response(), streams.device.latency.total_s() * fs);
  streams.x = std::move(x);
  streams.d = std::move(d_ac);
  streams.quiet_samples = quiet;
  streams.sample_rate = fs;
  return streams;
}

// --- 3. Per-relay RF chains: the one place a relay link is set up (the
//        default relay chain at the scene rate, relay k's fault script,
//        seed + 100 + k). None without use_rf_link. --------------------
std::vector<rf::RelayLink> make_relay_links(const DeviceSimConfig& config,
                                            std::size_t relay_count) {
  std::vector<rf::RelayLink> links;
  if (!config.use_rf_link) return links;
  links.reserve(relay_count);
  for (std::size_t k = 0; k < relay_count; ++k) {
    rf::RelayConfig rf_cfg;
    rf_cfg.audio_rate = config.scene.sample_rate;
    if (k < config.relay_faults.size()) rf_cfg.faults = config.relay_faults[k];
    links.emplace_back(rf_cfg, config.seed + 100 + k);
  }
  return links;
}

}  // namespace

DeviceStreams prepare_device_streams(audio::SoundSource& noise,
                                     const DeviceSimConfig& config) {
  DeviceStreams streams = prepare_acoustic_streams(noise, config);
  std::vector<rf::RelayLink> links =
      make_relay_links(config, streams.x.size());
  for (std::size_t k = 0; k < links.size(); ++k) {
    streams.x[k] = links[k].process(streams.x[k]);
  }
  return streams;
}

SystemResult run_device_simulation(audio::SoundSource& noise,
                                   const DeviceSimConfig& config) {
  ensure(config.control_block_s > 0, "control block must be positive");
  if (config.spectrum_supervision) {
    ensure(config.use_rf_link,
           "spectrum supervision needs an RF link to retune");
    ensure(config.device.link_supervision,
           "spectrum supervision needs link monitors for adverse evidence");
  }
  DeviceStreams streams = prepare_acoustic_streams(noise, config);
  const double fs = streams.sample_rate;
  const std::size_t n = streams.d.size();
  const std::size_t relay_count = streams.x.size();

  // --- 5. Persistent RF chains, streamed per control block --------------
  // Every RF stage is streaming-stateful, so block boundaries are
  // invisible (the same samples as prepare_device_streams' whole-record
  // pass) and the planner can retune a link BETWEEN blocks.
  std::vector<rf::RelayLink> links = make_relay_links(config, relay_count);

  // --- 6. Spectrum planner ----------------------------------------------
  std::optional<rf::SpectrumPlanner> planner;
  if (config.spectrum_supervision) {
    rf::SpectrumPlannerOptions popt;
    popt.channel_count = std::max(popt.channel_count, relay_count);
    planner.emplace(relay_count, popt);
    // Mirror the planner's frequency-division assignment into the links so
    // channel-pinned jammers couple against the channel the relay is
    // actually on. The channel index is a coupling label only (see
    // RelayLink::retune), so this does not perturb the benign signal path.
    for (std::size_t k = 0; k < relay_count; ++k) {
      links[k].retune(planner->channel_of(k));
    }
  }

  // --- 7. Block-stepped device session ----------------------------------
  // Never-louder windows are judged from 0.1 s after the ambient starts.
  const std::size_t first_window = static_cast<std::size_t>(
      (config.device.calibration_s + 0.2) * fs);
  DeviceSession session(
      streams.device, streams.hse_eff,
      first_window + NeverLouderAccountant::window_length(fs));
  const core::MuteDevice& device = session.device();
  SystemResult result;
  result.sample_rate = fs;
  result.disturbance = streams.d;
  result.residual.resize(n);
  result.anti_at_ear.resize(n);
  const std::span<const Sample> d(streams.d);
  const std::span<Sample> residual(result.residual);
  const std::span<Sample> anti(result.anti_at_ear);
  const auto block = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.control_block_s * fs));
  std::vector<Signal> xb(relay_count);  // RF-processed current block
  bool live = false;     // the device has reached kRunning at least once
  bool flagged = false;  // some link monitor was flagged at the last boundary

  for (std::size_t start = 0; start < n; start += block) {
    const std::size_t len = std::min(block, n - start);
    if (links.empty()) {
      session.step(streams.x, start, d.subspan(start, len),
                   residual.subspan(start, len), anti.subspan(start, len));
    } else {
      for (std::size_t k = 0; k < relay_count; ++k) {
        xb[k] = links[k].process(
            std::span<const Sample>(streams.x[k]).subspan(start, len));
      }
      session.step(xb, 0, d.subspan(start, len), residual.subspan(start, len),
                   anti.subspan(start, len));
    }

    // Consult the spectrum planner between blocks: link-monitor evidence
    // in, channel hops / TX steps out. Only once the device has gone live
    // (kRunning and beyond): during calibration and listening the noise
    // record's quiet lead-in makes every monitor report silence, and a
    // planner fed that evidence would hop relays off perfectly clean
    // channels before the first selection round.
    const double now_s = static_cast<double>(start + len) / fs;
    const bool running = device.state() >= core::MuteDevice::State::kRunning;
    if (planner.has_value() && running) {
      for (std::size_t k = 0; k < relay_count; ++k) {
        const auto* monitor = device.link_monitor(k);
        if (monitor == nullptr) continue;
        if (monitor->healthy()) {
          planner->note_clean(k, now_s);
        } else {
          planner->note_adverse(k, now_s);
        }
        const auto action = planner->plan(k, now_s);
        switch (action.kind) {
          case rf::PlannerActionKind::kHop:
            links[k].retune(action.channel);
            ++result.hop_count;
            break;
          case rf::PlannerActionKind::kTxStep:
            links[k].set_tx_gain_db(action.tx_gain_db);
            ++result.tx_step_count;
            break;
          case rf::PlannerActionKind::kNone:
            break;
        }
      }
    }

    // Fault times, on the same live gate: the lead-in's silence episode
    // is counted in the tallies but never sets a fault time.
    live = live || running;
    if (live) {
      bool any_flagged = false;
      for (std::size_t k = 0; k < relay_count; ++k) {
        const auto* monitor = device.link_monitor(k);
        if (monitor != nullptr && !monitor->healthy()) any_flagged = true;
      }
      if (any_flagged && result.first_fault_s < 0) result.first_fault_s = now_s;
      if (!any_flagged && flagged) result.last_recovery_s = now_s;
      flagged = any_flagged;
    }
  }
  result.ambient_at_ear = std::move(streams.d);

  // --- 8. Diagnostics ---------------------------------------------------
  result.noncausal_taps = device.noncausal_taps();
  result.calibration_error_db = device.calibration().final_error_db;
  result.handoff_count = device.handoff_count();
  result.shadow_handoff_count = device.shadow_handoff_count();
  result.device_hold_count = device.hold_count();
  result.weight_rollbacks = device.weight_rollbacks();
  result.reacquisition_gap_s = device.last_reacquisition_gap_s();
  result.max_reacquisition_gap_s = device.max_reacquisition_gap_s();
  result.relay_active_s.resize(relay_count);
  for (std::size_t k = 0; k < relay_count; ++k) {
    result.relay_active_s[k] = device.relay_active_s(k);
    if (const auto* monitor = device.link_monitor(k)) {
      result.link_fault_samples += monitor->unhealthy_samples();
      result.link_fault_episodes += monitor->fault_episodes();
      if (monitor->unhealthy_samples() > 0) {
        result.link_fault_flags |= monitor->flags();
      }
    }
  }
  if (device.measured_lookahead_s() > 0.0) {
    result.usable_lookahead_s = core::usable_lookahead_s(
        device.measured_lookahead_s(), streams.device.latency);
  }
  result.final_channels.resize(relay_count, 0);
  result.final_tx_gain_db.resize(relay_count, 0.0);
  for (std::size_t k = 0; k < links.size(); ++k) {
    result.final_channels[k] = links[k].channel();
    result.final_tx_gain_db[k] = links[k].tx_gain_db();
  }
  result.allocating_ticks = session.allocating_ticks();
  result.total_ticks = session.samples();
  result.allocation_tracking = RtAllocationGuard::interposition_enabled();
  result.never_louder = session.accountant();
  return result;
}

}  // namespace mute::sim
