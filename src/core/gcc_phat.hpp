#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rt_annotations.hpp"
#include "common/types.hpp"

namespace mute::core {

/// Result of a GCC-PHAT cross-correlation between two recordings.
struct GccPhatResult {
  std::vector<double> lag_s;        // lag axis (seconds), negative..positive
  std::vector<double> correlation;  // PHAT-weighted correlation per lag
  double peak_lag_s = 0.0;          // argmax lag
  double peak_value = 0.0;          // correlation at the peak
};

/// Peak of one GCC-PHAT correlation.
struct GccPhatPeak {
  double lag_s = 0.0;  // argmax lag (seconds), same sign convention as below
  double value = 0.0;  // PHAT-weighted correlation at the peak
};

/// Generalized cross-correlation with phase transform (Brandstein &
/// Silverman), the paper's Section 4.2 tool for deciding whether the
/// wirelessly forwarded signal leads the acoustic arrival.
///
/// Convention: a *positive* peak lag means `delayed` is a delayed copy of
/// `reference` — i.e. the relay (pass it as `reference`) heard the sound
/// `peak_lag_s` seconds before the ear (pass its mic as `delayed`), so the
/// lookahead is positive and the relay is usable.
GccPhatResult gcc_phat(std::span<const Sample> reference,
                       std::span<const Sample> delayed, double sample_rate,
                       double max_lag_s = 0.05);

/// GCC-PHAT of `references` equal-length records against one shared
/// `delayed` record, sized once. The constructor allocates every buffer a
/// correlation needs (the records, one transform buffer, the half-spectra)
/// and builds the shared twiddle table for its transform length, so
/// correlate() allocates nothing and is safe on the audio thread.
///
/// Each complex FFT carries two real records (x + i·y; the two spectra
/// split by conjugate symmetry), forward and inverse alike: K references
/// cost ⌈(K+1)/2⌉ forward and ⌈K/2⌉ inverse transforms of
/// next_pow2(2·record_length) points. A record that is all zeros
/// correlates to zero at every lag (its peak is the first lag, value 0).
class GccPhatPlan {
 public:
  GccPhatPlan(std::size_t record_length, std::size_t references,
              double sample_rate, double max_lag_s);

  /// Capture slots, written in place by the caller before correlate().
  std::span<Sample> reference(std::size_t i) {
    return {records_.data() + (i + 1) * length_, length_};
  }
  std::span<Sample> delayed() { return {records_.data(), length_}; }

  std::size_t record_length() const { return length_; }
  std::size_t references() const { return peaks_.size(); }
  /// Search window: lags -max_lag()..max_lag() samples.
  std::size_t max_lag() const { return max_lag_; }

  /// Correlates every reference record against the delayed record and
  /// returns one peak per reference. A non-empty `curves` receives each
  /// reference's correlation over lags -max_lag()..max_lag(), reference-
  /// major (references() * (2 * max_lag() + 1) values).
  MUTE_RT_SAFE std::span<const GccPhatPeak> correlate(
      std::span<double> curves);

 private:
  void forward(std::size_t a, std::size_t b);
  void phat(std::size_t i);
  void inverse(std::size_t i, std::size_t j, std::span<double> curves);
  void read_peak(std::size_t i, bool imag, std::span<double> curve);

  std::size_t length_;
  std::size_t nfft_;
  std::size_t half_;  // bins 0..nfft_/2 of a conjugate-symmetric spectrum
  std::size_t max_lag_;
  double fs_;
  // Record r (0 = delayed, 1 + i = reference i) at r * length_ and its
  // half-spectrum at r * half_ (a reference's slot then holds its PHAT
  // cross-spectrum). `silent_[r]` marks an all-zero record.
  Signal records_;
  ComplexSignal spectra_;
  ComplexSignal work_;
  std::vector<bool> silent_;
  std::vector<GccPhatPeak> peaks_;
};

}  // namespace mute::core
