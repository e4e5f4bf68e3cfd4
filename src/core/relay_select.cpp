#include "core/relay_select.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mute::core {

namespace {

// A selection whose vectors already hold room for `relays` measurements.
RelaySelection sized_selection(std::size_t relays) {
  RelaySelection s;
  s.all.resize(relays);
  s.ranked.reserve(relays);
  return s;
}

// Fills `out` (from sized_selection) with one round's measurements, reusing
// its storage: the ranking is a copy of `all` within reserved capacity,
// filtered and sorted in place, so a round allocates nothing.
void rank_round(std::span<const GccPhatPeak> peaks,
                const RelaySelectorOptions& options, RelaySelection& out) {
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    // Positive lag: the ear lags the relay, i.e. positive lookahead.
    out.all[i] = RelayMeasurement{i, peaks[i].lag_s, peaks[i].value};
  }
  // Rank every confident, positive-lookahead candidate (descending
  // lookahead); the winner is the head, the rest are warm standbys.
  out.ranked = out.all;
  std::erase_if(out.ranked, [&](const RelayMeasurement& m) {
    return m.confidence < options.min_confidence ||
           m.lookahead_s < options.min_lookahead_s;
  });
  std::sort(out.ranked.begin(), out.ranked.end(),
            [](const RelayMeasurement& a, const RelayMeasurement& b) {
              if (a.lookahead_s != b.lookahead_s) {
                return a.lookahead_s > b.lookahead_s;
              }
              return a.relay_index < b.relay_index;  // deterministic ties
            });
  out.chosen = std::nullopt;
  if (!out.ranked.empty()) out.chosen = out.ranked.front();
}

std::size_t period_samples(double period_s, double sample_rate) {
  const auto n = static_cast<std::size_t>(period_s * sample_rate);
  ensure(n >= 256, "selection period too short");
  return n;
}

}  // namespace

RelaySelection select_relay(std::span<const Signal> relay_streams,
                            std::span<const Sample> error_mic_stream,
                            double sample_rate,
                            const RelaySelectorOptions& options) {
  ensure(!relay_streams.empty(), "need at least one relay stream");
  for (const Signal& stream : relay_streams) {
    ensure(stream.size() == error_mic_stream.size(),
           "relay and error-mic records must be aligned");
  }
  GccPhatPlan plan(error_mic_stream.size(), relay_streams.size(), sample_rate,
                   options.max_lag_s);
  for (std::size_t i = 0; i < relay_streams.size(); ++i) {
    std::copy(relay_streams[i].begin(), relay_streams[i].end(),
              plan.reference(i).begin());
  }
  std::copy(error_mic_stream.begin(), error_mic_stream.end(),
            plan.delayed().begin());
  RelaySelection out = sized_selection(relay_streams.size());
  rank_round(plan.correlate({}), options, out);
  return out;
}

RelaySelector::RelaySelector(std::size_t relay_count, double sample_rate,
                             double period_s, RelaySelectorOptions options)
    : opts_(options),
      plan_(period_samples(period_s, sample_rate), relay_count, sample_rate,
            options.max_lag_s),
      selection_(sized_selection(relay_count)) {}

double standby_score(const RelayMeasurement& m, double needed_lookahead_s) {
  ensure(needed_lookahead_s > 0.0, "needed lookahead must be positive");
  if (m.lookahead_s <= 0.0) return 0.0;
  const double usable = std::min(1.0, m.lookahead_s / needed_lookahead_s);
  return m.confidence * usable;
}

SelectionRef RelaySelector::push(std::span<const Sample> relay_samples,
                                 Sample error_mic_sample) {
  ensure(relay_samples.size() == relay_count(),
         "one sample per relay required");
  for (std::size_t i = 0; i < relay_samples.size(); ++i) {
    plan_.reference(i)[filled_] = relay_samples[i];
  }
  plan_.delayed()[filled_] = error_mic_sample;
  if (++filled_ < plan_.record_length()) return {};

  filled_ = 0;
  rank_round(plan_.correlate({}), opts_, selection_);
  has_round_ = true;
  return SelectionRef(selection_);
}

}  // namespace mute::core
