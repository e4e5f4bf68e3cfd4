#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "core/gcc_phat.hpp"

namespace mute::core {

/// Lookahead measurement for one candidate relay.
struct RelayMeasurement {
  std::size_t relay_index = 0;
  double lookahead_s = 0.0;   // positive = relay leads the ear
  double confidence = 0.0;    // GCC-PHAT peak value
};

/// Outcome of a selection round.
struct RelaySelection {
  /// Chosen relay (largest positive lookahead), or nullopt when every
  /// relay lags the ear — the paper's "no relay selected" case, where the
  /// client must fall back to no cancellation and nudge the user.
  std::optional<RelayMeasurement> chosen;
  std::vector<RelayMeasurement> all;
  /// Warm-standby ranking: every confident, positive-lookahead relay in
  /// descending lookahead order (`ranked.front() == *chosen` when any
  /// qualify). The device keeps this list so a failed association can be
  /// handed to the runner-up instead of re-listening for a full period.
  std::vector<RelayMeasurement> ranked;
};

/// Options for the periodic relay-selection correlation (Section 4.2).
struct RelaySelectorOptions {
  double max_lag_s = 0.05;          // correlation search window
  double min_confidence = 0.05;     // reject spurious peaks
  double min_lookahead_s = 100e-6;  // require a usefully positive lead
};

/// Geometry/health-aware standby score: which rival earns the shadow
/// filter's adaptation budget. Confidence weights the measurement's
/// trustworthiness; lookahead is credited only up to `needed_lookahead_s`
/// (the lead at which the device's tap cap saturates — lead beyond it buys
/// no extra non-causal taps, so it must not outrank a more confident
/// measurement). Returns confidence * min(1, lookahead / needed);
/// non-positive lookahead scores 0.
double standby_score(const RelayMeasurement& m, double needed_lookahead_s);

/// Decide which relay (if any) offers positive lookahead by GCC-PHAT
/// correlating each relay's forwarded waveform against the error-mic
/// recording of the same interval.
RelaySelection select_relay(
    std::span<const Signal> relay_streams,
    std::span<const Sample> error_mic_stream, double sample_rate,
    const RelaySelectorOptions& options = {});

/// A completed selection round, viewed in place: the RelaySelector reuses
/// the selection's storage every round, so the view stays valid (and sees
/// the newer round) until the selector is destroyed. Empty before the
/// first round completes.
class SelectionRef {
 public:
  SelectionRef() = default;
  explicit SelectionRef(const RelaySelection& selection) : sel_(&selection) {}

  bool has_value() const { return sel_ != nullptr; }
  explicit operator bool() const { return has_value(); }
  const RelaySelection& operator*() const { return *sel_; }
  const RelaySelection* operator->() const { return sel_; }

 private:
  const RelaySelection* sel_ = nullptr;
};

/// Streaming wrapper that accumulates synchronized relay/error-mic audio
/// and re-runs selection every `period_s` (the paper correlates
/// periodically to track moving sources). Everything a round needs — the
/// capture records, one GCC-PHAT plan and the RelaySelection it fills — is
/// sized at construction, so push() never allocates.
class RelaySelector {
 public:
  RelaySelector(std::size_t relay_count, double sample_rate,
                double period_s = 0.5, RelaySelectorOptions options = {});

  /// Push one synchronized sample per relay plus the error-mic sample.
  /// Returns the fresh selection when a period completes, empty otherwise.
  MUTE_RT_SAFE SelectionRef push(std::span<const Sample> relay_samples,
                                 Sample error_mic_sample);

  /// Most recent completed selection (empty before the first period).
  SelectionRef current() const {
    return has_round_ ? SelectionRef(selection_) : SelectionRef();
  }

  std::size_t relay_count() const { return plan_.references(); }

 private:
  RelaySelectorOptions opts_;
  GccPhatPlan plan_;
  std::size_t filled_ = 0;
  RelaySelection selection_;
  bool has_round_ = false;
};

}  // namespace mute::core
