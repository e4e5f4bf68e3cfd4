#include "core/mute_device.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace mute::core {

MuteDevice::MuteDevice(MuteDeviceConfig config)
    : config_(config),
      training_(config.training_rms, config.seed + 17),
      selector_(config.relay_count, config.sample_rate,
                config.selection_period_s, config.selection) {
  ensure(config.sample_rate > 0, "sample rate must be positive");
  ensure(config.relay_count >= 1, "need at least one relay");
  ensure(config.calibration_s > 0, "calibration duration must be positive");
  ensure(config.hold_timeout_s > 0, "hold timeout must be positive");
  ensure(config.standby_max_age_s > 0, "standby max age must be positive");
  // Handoff installs shadow-converged weights and an association can leave
  // no lookahead; the block engine supports neither, so the device only
  // runs the time-domain engine (the block engine is driven through
  // LancController directly).
  ensure(config.lanc.engine == LancEngineKind::kTimeDomain,
         "MuteDevice needs the time-domain LANC engine: handoff and "
         "zero-lookahead association are unsupported by kFdBlock");
  const auto cal_samples =
      static_cast<std::size_t>(config.calibration_s * config.sample_rate);
  stimulus_log_.reserve(cal_samples);
  response_log_.reserve(cal_samples);
  cal_scratch_.assign(1, 0.0f);
  if (config.link_supervision) {
    monitors_.reserve(config.relay_count);
    for (std::size_t k = 0; k < config.relay_count; ++k) {
      monitors_.emplace_back(config.link_monitor, config.sample_rate);
    }
    sanitized_.assign(config.relay_count, 0.0f);
  }
  ensure(config.shadow_fast_handoff_s >= 0,
         "shadow fast-handoff wait must be >= 0");
  hold_timeout_samples_ = static_cast<std::size_t>(
      config.hold_timeout_s * config.sample_rate);
  shadow_fast_samples_ = static_cast<std::size_t>(
      config.shadow_fast_handoff_s * config.sample_rate);
  standby_max_age_samples_ = static_cast<std::size_t>(
      config.standby_max_age_s * config.sample_rate);
  standby_.reserve(config.relay_count);
  relay_active_ticks_.assign(config.relay_count, 0);
}

Sample MuteDevice::tick(std::span<const Sample> relay_samples,
                        Sample error_sample) {
  const State before = state_;
  const Sample y = tick_impl(relay_samples, error_sample);

  // Failover diagnostics and standby aging. Bookkeeping only — no
  // allocation (the clear() below releases nothing; capacity is kept).
  ++tick_count_;
  if (state_ == State::kRunning && active_relay_.has_value()) {
    ++relay_active_ticks_[*active_relay_];
  }
  if (before == State::kRunning && state_ != State::kRunning) {
    gap_start_tick_ = tick_count_;
  } else if (before != State::kRunning && state_ == State::kRunning &&
             gap_start_tick_ > 0) {
    last_gap_s_ = static_cast<double>(tick_count_ - gap_start_tick_) /
                  config_.sample_rate;
    max_gap_s_ = std::max(max_gap_s_, last_gap_s_);
  }
  if (!standby_.empty() && ++standby_age_ > standby_max_age_samples_) {
    standby_.clear();  // measurements this old are guesses, not a ranking
  }
  return y;
}

Sample MuteDevice::tick_impl(std::span<const Sample> relay_samples,
                             Sample error_sample) {
  ensure(relay_samples.size() == config_.relay_count,
         "one sample per relay required");

  // Link supervision runs in every state so the monitors' baselines stay
  // warm. Everything downstream (selector, LANC) consumes the sanitized
  // feed: a flagged relay contributes zeros, so demodulator garbage can
  // neither steer GCC-PHAT nor reach the adaptive engine (whose contract
  // macros would abort on NaN).
  std::span<const Sample> feed = relay_samples;
  if (!monitors_.empty()) {
    for (std::size_t k = 0; k < monitors_.size(); ++k) {
      sanitized_[k] = monitors_[k].process(relay_samples[k]);
    }
    feed = sanitized_;
  }

  switch (state_) {
    case State::kCalibrating: {
      // The error mic currently hears the previous training sample through
      // the secondary path: log the (stimulus, response) pair.
      if (!stimulus_log_.empty() || last_training_sample_ != 0.0f) {
        stimulus_log_.push_back(last_training_sample_);
        response_log_.push_back(error_sample);
      }
      const auto cal_samples = static_cast<std::size_t>(
          config_.calibration_s * config_.sample_rate);
      if (stimulus_log_.size() >= cal_samples) {
        finish_calibration();
        return 0.0f;
      }
      training_.render(cal_scratch_);
      last_training_sample_ = cal_scratch_[0];
      return last_training_sample_;
    }

    case State::kListening: {
      if (auto selection = selector_.push(feed, error_sample)) {
        handle_selection(*selection);
      }
      return 0.0f;
    }

    case State::kRunning: {
      // Keep the periodic selection running (source may move).
      if (auto selection = selector_.push(feed, error_sample)) {
        handle_selection(*selection);
        if (state_ == State::kHandoff) {
          // The round just handed the association over: the controller is
          // already re-targeted and held, so tick it on the NEW relay's
          // feed — the fade-out and history refill start this sample.
          return lanc_->tick(feed[*active_relay_]);
        }
        if (state_ != State::kRunning) return 0.0f;
      }
      if (!monitors_.empty() && !monitors_[*active_relay_].healthy()) {
        // The active link just went bad: freeze adaptation and fade the
        // anti-noise out. The association is kept for hold_timeout_s — a
        // brief dropout should not cost a full re-acquisition.
        state_ = State::kHolding;
        hold_elapsed_ = 0;
        ++hold_count_;
        lanc_->hold();
        return lanc_->tick(feed[*active_relay_]);
      }
      // `error_sample` is the microphone's reading of the PREVIOUS
      // tick's field: adapt BEFORE pushing the new reference so the
      // filtered-x history still lines up with it. Adapting after the
      // push misaligns the gradient by one sample — 180 degrees of phase
      // at Nyquist, enough to destabilize the loop.
      lanc_->observe_error(error_sample);
      const Sample y = lanc_->tick(feed[*active_relay_]);
      // Steady running is the only state whose speaker feed is a
      // trainable shadow target (elsewhere it is fading or refilling).
      shadow_observe(feed, y);
      return y;
    }

    case State::kHolding: {
      // Keep the shadow's reference window contiguous with the live
      // stream (no adaptation: the fading output is not a target). An
      // install during this hold must be sample-aligned with the feed.
      shadow_track(feed);
      // Selection keeps buffering on the sanitized feeds (the dead relay
      // reads as silence and cannot win a round). With the anti-noise
      // faded out the ear hears the full ambient field, so rounds that
      // complete DURING the hold are trustworthy: they refresh the
      // standby list, and two confident wins by the same different,
      // healthy relay hand the association over before the hold even
      // times out.
      if (auto selection = selector_.push(feed, error_sample)) {
        update_standby(*selection);
        if (config_.enable_handoff && selection->chosen.has_value()) {
          const auto& rival = *selection->chosen;
          if (rival.relay_index != *active_relay_ &&
              relay_healthy(rival.relay_index) &&
              note_adverse_round(AdverseCause::kRivalWon,
                                 rival.relay_index)) {
            begin_handoff(rival);
            return lanc_->tick(feed[*active_relay_]);
          }
        }
      }
      if (monitors_[*active_relay_].healthy()) {
        // Link is back: unfreeze and fade the anti-noise back in. The
        // frozen weights are the pre-fault filter, so cancellation
        // recovers as fast as the engine's history refills. This tick's
        // error sample reads the PREVIOUS tick's field — exactly what
        // observe_error expects — so feed it to the resumed engine
        // rather than dropping one valid adaptation step per recovery.
        lanc_->resume();
        state_ = State::kRunning;
        reset_adverse();
        lanc_->observe_error(error_sample);
        return lanc_->tick(feed[*active_relay_]);
      }
      ++hold_elapsed_;
      if (config_.enable_handoff && hold_elapsed_ >= shadow_fast_samples_) {
        // Shadow fast path: with a converged filter already standing by
        // for a ranked, healthy standby, waiting out hold_timeout_s buys
        // nothing — that wait amortizes a COLD re-acquisition. Give the
        // link shadow_fast_handoff_s to shake off a micro-dropout, then
        // hand over.
        if (const auto target = shadow_handoff_candidate()) {
          begin_handoff(*target);
          return lanc_->tick(feed[*active_relay_]);
        }
      }
      if (hold_elapsed_ >= hold_timeout_samples_) {
        // The link did not come back. A warm standby (confident positive
        // lookahead, link currently healthy) takes over without a
        // kListening round trip; with none — or handoff disabled — drop
        // the association and re-listen (the paper's "nudge the user"
        // case: another relay may win the next selection round).
        if (config_.enable_handoff) {
          if (const auto standby = pick_standby()) {
            begin_handoff(*standby);
            return lanc_->tick(feed[*active_relay_]);
          }
        }
        drop_association();
        return 0.0f;
      }
      return lanc_->tick(feed[*active_relay_]);  // fading toward zero
    }

    case State::kHandoff: {
      shadow_track(feed);
      // The association is already re-targeted; the held controller's
      // history refills with the new relay's stream (one sample per tick,
      // total_taps ticks). Selection rounds keep the standby list fresh
      // but cannot change the association mid-handoff.
      if (auto selection = selector_.push(feed, error_sample)) {
        update_standby(*selection);
      }
      if (!monitors_.empty() && !monitors_[*active_relay_].healthy()) {
        // The incoming relay died before the handoff settled: chain to
        // the next standby, or re-listen when none is left.
        if (const auto standby = pick_standby()) {
          begin_handoff(*standby);
          return lanc_->tick(feed[*active_relay_]);
        }
        drop_association();
        return 0.0f;
      }
      const Sample y = lanc_->tick(feed[*active_relay_]);
      if (handoff_settle_ > 0) --handoff_settle_;
      if (handoff_settle_ == 0) {
        lanc_->resume();
        state_ = State::kRunning;
      }
      return y;
    }
  }
  throw InvariantError("unreachable device state");
}

void MuteDevice::finish_calibration() {
  calibration_ = adaptive::identify_system(stimulus_log_, response_log_,
                                           config_.secondary_taps);
  stimulus_log_.clear();
  response_log_.clear();
  last_training_sample_ = 0.0f;
  state_ = State::kListening;
}

void MuteDevice::handle_selection(const RelaySelection& selection) {
  update_standby(selection);
  if (selection.chosen.has_value() &&
      !relay_healthy(selection.chosen->relay_index)) {
    // A flagged relay's stream is squelched to zeros before it reaches the
    // selector, so a "win" by it can only come from pre-squelch garbage at
    // the start of the round window. Inconclusive round: no association
    // change, no adverse evidence either way.
    return;
  }
  if (!selection.chosen.has_value()) {
    if (state_ != State::kRunning) return;
    // While we are canceling, the error microphone hears the *residual*:
    // a quiet, decorrelated error is what success looks like, so a
    // low-confidence round must not evict the relay. Only a confident
    // measurement of negative lookahead counts against it — and we demand
    // two in a row (the paper would then nudge the user to reposition).
    bool confident_adverse = false;
    for (const auto& m : selection.all) {
      if (m.confidence >= config_.selection.min_confidence &&
          m.lookahead_s < config_.selection.min_lookahead_s) {
        confident_adverse = true;
      }
    }
    if (!confident_adverse) {
      reset_adverse();
      return;
    }
    if (!note_adverse_round(AdverseCause::kNoChosen, 0)) return;
    // The active relay confidently lost its lookahead. Before giving up
    // on cancellation entirely, try a warm standby — the evidence was
    // against THIS relay's geometry, not against the ranking.
    if (config_.enable_handoff) {
      if (const auto standby = pick_standby()) {
        begin_handoff(*standby);
        return;
      }
    }
    drop_association();
    return;
  }

  const auto& chosen = *selection.chosen;
  const bool relay_changed =
      !active_relay_.has_value() || *active_relay_ != chosen.relay_index;

  if (relay_changed && state_ == State::kRunning) {
    // Switching away from a working relay also needs two confident rounds
    // — of the SAME claim. A "nobody qualified" round followed by a
    // "relay B won" round is two different one-round claims, and two
    // different rivals winning one round each is not a case for either;
    // the cause-and-rival tracking restarts the count on every change.
    if (!note_adverse_round(AdverseCause::kRivalWon, chosen.relay_index)) {
      return;
    }
  }
  reset_adverse();

  if (!relay_changed) {
    // Same relay re-confirmed. While running, the correlation runs against
    // the residual rather than the raw ambient sound, so its lag is not a
    // trustworthy lookahead estimate — keep the association but do not
    // overwrite the measurement taken while listening.
    if (state_ != State::kRunning) lookahead_s_ = chosen.lookahead_s;
    state_ = State::kRunning;
    return;
  }
  associate(chosen);
}

void MuteDevice::update_standby(const RelaySelection& selection) {
  if (!config_.enable_handoff) return;
  // Only overwrite with a round that actually qualified someone. While
  // cancellation is active the residual is quiet, so most kRunning rounds
  // rank nobody — the list from the last loud interval (kListening,
  // kHolding) stands until a better round or the age-out replaces it.
  if (selection.ranked.empty()) return;
  standby_ = selection.ranked;  // within capacity reserved to relay_count
  standby_age_ = 0;
  refresh_shadow_target();
}

void MuteDevice::refresh_shadow_target() {
  if (!config_.enable_shadow || !shadow_.has_value() ||
      !active_relay_.has_value()) {
    return;
  }
  // Score every ranked rival and give the shadow budget to the best one.
  // Lookahead saturates at the tap cap (leads beyond it buy no taps), so
  // the score credits lead only up to that point — see standby_score().
  const double needed = config_.latency.total_s() +
                        static_cast<double>(config_.max_noncausal_taps) /
                            config_.sample_rate;
  const RelayMeasurement* best = nullptr;
  double best_score = 0.0;
  for (const auto& m : standby_) {
    if (m.relay_index == *active_relay_) continue;
    if (!relay_healthy(m.relay_index)) continue;
    const double score = standby_score(m, needed);
    if (score > best_score) {
      best_score = score;
      best = &m;
    }
  }
  if (best == nullptr) return;  // nobody qualifies; keep the old target
  shadow_->assign(best->relay_index, taps_for_lookahead(best->lookahead_s),
                  best->lookahead_s);
}

void MuteDevice::shadow_observe(std::span<const Sample> feed, Sample y) {
  if (!shadow_.has_value() || !shadow_->has_target()) return;
  const std::size_t target = shadow_->relay();
  if (active_relay_.has_value() && target == *active_relay_) return;
  // A flagged standby's feed is squelched zeros — neither push nor adapt
  // on it (a window of zeros would erase the accumulated convergence).
  if (!relay_healthy(target)) return;
  shadow_->observe(feed[target], y);
}

void MuteDevice::shadow_track(std::span<const Sample> feed) {
  if (!shadow_.has_value() || !shadow_->has_target()) return;
  const std::size_t target = shadow_->relay();
  if (active_relay_.has_value() && target == *active_relay_) return;
  if (!relay_healthy(target)) return;
  shadow_->track(feed[target]);
}

std::optional<RelayMeasurement> MuteDevice::shadow_handoff_candidate()
    const {
  if (!shadow_.has_value() || !shadow_->converged()) return std::nullopt;
  const std::size_t target = shadow_->relay();
  if (active_relay_.has_value() && target == *active_relay_) {
    return std::nullopt;
  }
  if (!relay_healthy(target)) return std::nullopt;
  // Require a live standby-list entry: the list is the only measurement
  // whose age is bounded (standby_max_age_s). A converged shadow whose
  // relay aged out of the ranking keeps its weights, but the handoff
  // waits for the slow path / a fresh round.
  for (const auto& m : standby_) {
    if (m.relay_index == target) return m;
  }
  return std::nullopt;
}

std::size_t MuteDevice::taps_for_lookahead(double lookahead_s) const {
  const double usable = usable_lookahead_s(lookahead_s, config_.latency);
  return std::min<std::size_t>(
      config_.max_noncausal_taps,
      lookahead_taps(usable, config_.sample_rate));
}

std::optional<RelayMeasurement> MuteDevice::pick_standby() const {
  // A converged shadow beats the lookahead ranking: its target hands over
  // with an installed filter and primed history, which is worth more than
  // a slightly longer lead paid for with a total_taps refill gap.
  if (auto candidate = shadow_handoff_candidate()) return candidate;
  for (const auto& m : standby_) {
    if (active_relay_.has_value() && m.relay_index == *active_relay_) {
      continue;
    }
    if (!relay_healthy(m.relay_index)) continue;
    return m;
  }
  return std::nullopt;
}

bool MuteDevice::relay_healthy(std::size_t relay) const {
  return monitors_.empty() || monitors_[relay].healthy();
}

void MuteDevice::associate(const RelayMeasurement& chosen) {
  if (lanc_.has_value() && config_.enable_handoff) {
    // Warm path: every re-association after the first goes through the
    // handoff machinery — remapping the surviving weights and preloading
    // the per-(relay, profile) cache beats a cold gradient descent even
    // when the target is the relay we left (its entry is still cached).
    begin_handoff(chosen);
    return;
  }
  // Cold path: first association ever, or handoff disabled. Build the
  // LANC engine sized to this relay's usable lookahead.
  const double usable =
      usable_lookahead_s(chosen.lookahead_s, config_.latency);
  LancOptions opts = config_.lanc;
  opts.sample_rate = config_.sample_rate;
  if (opts.fxlms.weight_norm_limit <= 0.0) {
    opts.fxlms.weight_norm_limit = config_.weight_norm_limit;
  }
  if (config_.link_supervision && opts.fxlms.min_excitation <= 0.0) {
    // Don't adapt on a nearly-dead reference (see FxlmsOptions): the
    // window between a link fault and its detection must not corrupt
    // the weights the device will resume with.
    opts.fxlms.min_excitation = 1e-5;
  }
  opts.fxlms.noncausal_taps = std::min<std::size_t>(
      config_.max_noncausal_taps,
      lookahead_taps(usable, config_.sample_rate));
  lanc_.emplace(calibration_.impulse_response, opts);
  lanc_->set_relay(chosen.relay_index);
  if (config_.enable_shadow && config_.relay_count > 1 &&
      !shadow_.has_value()) {
    // Mirror the engine's FxlmsOptions so shadow weights are installable
    // into it tap-for-tap (assign() overrides the noncausal window).
    shadow_.emplace(opts.fxlms, config_.shadow);
  }
  active_relay_ = chosen.relay_index;
  lookahead_s_ = chosen.lookahead_s;
  weights_lookahead_s_ = chosen.lookahead_s;
  state_ = State::kRunning;
}

void MuteDevice::begin_handoff(const RelayMeasurement& target) {
  // Shadow warm path: the shadow pre-converged for exactly this relay, and
  // its prediction error says the filter is good. Adopt the tap layout the
  // shadow actually converged at — the target's lookahead estimate jitters
  // by a sample or two between selection rounds, and re-deriving the tap
  // count from the newest estimate would spuriously disqualify the install
  // over a one-tap mismatch.
  const bool shadow_warm = shadow_.has_value() && shadow_->converged() &&
                           shadow_->relay() == target.relay_index;
  const std::size_t new_taps = shadow_warm
                                   ? shadow_->engine().noncausal_taps()
                                   : taps_for_lookahead(target.lookahead_s);
  // The `a_old - a_new` term of the weight remap (see
  // FxlmsEngine::retarget_noncausal for the derivation): the measured
  // change in relay lead, in whole samples. weights_lookahead_s_ — not
  // lookahead_s_ — because it describes the lead the surviving weights
  // actually converged at and it is preserved across drop_association().
  const auto advance_shift = static_cast<std::ptrdiff_t>(std::lround(
      (weights_lookahead_s_ - target.lookahead_s) * config_.sample_rate));
  // Fault-aware caching: tell the controller when the outgoing link is
  // flagged right now, so the departing relay's cache entry is not
  // overwritten from a faulted exit.
  const bool outgoing_flagged =
      active_relay_.has_value() && !relay_healthy(*active_relay_);
  lanc_->retarget(target.relay_index, new_taps, advance_shift,
                  outgoing_flagged);
  // Hold through the history refill: the remapped filter must not drive
  // the speaker from a half-empty delay line. hold()'s snapshot rollback
  // is safe here — retarget made the remapped weights the snapshot.
  lanc_->hold();
  if (shadow_warm) {
    // Install the pre-converged weights plus the reference window they
    // converged against, and settle only through the hold ramp instead of
    // a full total_taps history refill — the ~0.33 s -> ~0.03 s gap win.
    // After hold(): install_converged's weights must survive the hold's
    // snapshot rollback, not be clobbered by it.
    lanc_->install_converged(shadow_->engine().weights(),
                             shadow_->engine().reference_window());
    const auto ramp_samples = static_cast<std::size_t>(
        config_.lanc.hold_ramp_s * config_.sample_rate);
    handoff_settle_ = std::max<std::size_t>(1, ramp_samples);
    ++shadow_handoff_count_;
  } else {
    handoff_settle_ = lanc_->engine().total_taps();
  }
  if (shadow_.has_value() && shadow_->has_target() &&
      shadow_->relay() == target.relay_index) {
    // The target is about to become primary; the next selection round
    // assigns the budget to a new rival.
    shadow_->clear();
  }
  active_relay_ = target.relay_index;
  lookahead_s_ = target.lookahead_s;
  weights_lookahead_s_ = target.lookahead_s;
  hold_elapsed_ = 0;
  reset_adverse();
  ++handoff_count_;
  state_ = State::kHandoff;
}

void MuteDevice::drop_association() {
  // The controller object survives the drop: it owns the per-(relay,
  // profile) filter cache, which is exactly what makes the NEXT
  // association warm. Only the association itself and the evidence
  // counters reset (weights_lookahead_s_ is deliberately kept — it
  // describes the weights still inside the engine).
  active_relay_.reset();
  lookahead_s_ = 0.0;
  reset_adverse();
  // The shadow's target was scored relative to the association we just
  // lost, and its window goes stale while kListening (nothing tracks it
  // there) — a later install from it would be misaligned. Start over.
  if (shadow_.has_value()) shadow_->clear();
  state_ = State::kListening;
}

bool MuteDevice::note_adverse_round(AdverseCause cause, std::size_t rival) {
  const bool same_claim =
      cause == adverse_cause_ &&
      (cause != AdverseCause::kRivalWon || rival == adverse_rival_);
  if (same_claim) {
    ++adverse_rounds_;
  } else {
    adverse_cause_ = cause;
    adverse_rival_ = rival;
    adverse_rounds_ = 1;
  }
  if (adverse_rounds_ < 2) return false;
  reset_adverse();
  return true;
}

void MuteDevice::reset_adverse() {
  adverse_cause_ = AdverseCause::kNone;
  adverse_rival_ = 0;
  adverse_rounds_ = 0;
}

std::size_t MuteDevice::noncausal_taps() const {
  return lanc_.has_value() ? lanc_->lookahead_samples() : 0;
}

double MuteDevice::relay_active_s(std::size_t relay) const {
  ensure(relay < relay_active_ticks_.size(), "relay index out of range");
  return static_cast<double>(relay_active_ticks_[relay]) /
         config_.sample_rate;
}

}  // namespace mute::core
