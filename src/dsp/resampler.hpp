#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace mute::dsp {

/// Rational-ratio polyphase resampler (upsample by L, anti-alias filter,
/// downsample by M). Used to move audio between the 16 kHz acoustic domain
/// and the 256 kHz RF baseband domain of the relay simulation.
class Resampler {
 public:
  /// `taps_per_phase` controls the prototype lowpass quality.
  Resampler(std::size_t interpolation, std::size_t decimation,
            std::size_t taps_per_phase = 24);

  /// Resample a whole signal. Output length ~= in.size() * L / M.
  Signal process(std::span<const Sample> in);

  std::size_t interpolation() const { return l_; }
  std::size_t decimation() const { return m_; }

  /// Group delay of the anti-alias prototype, in *input* samples.
  double latency_input_samples() const;

 private:
  std::size_t l_, m_;
  std::vector<double> prototype_;  // lowpass at rate fs*L
};

/// Convenience: resample `in` from `from_rate` to `to_rate` using the
/// smallest rational approximation of the ratio.
Signal resample(std::span<const Sample> in, double from_rate, double to_rate);

/// Smallest rational L/M approximating `to_rate / from_rate` (the search
/// the free resample() runs; exposed so streaming callers can build a
/// matching StreamingResampler once instead of per block).
std::pair<std::size_t, std::size_t> rational_resample_ratio(double from_rate,
                                                            double to_rate);

/// Block-streaming wrapper around the polyphase resampler. The batch
/// Resampler is stateless-causal — output j depends only on inputs at or
/// before base = j*M/L, reaching back at most the prototype span — so
/// carrying that input tail across calls makes block processing
/// BIT-IDENTICAL to one whole-record batch call, regardless of how the
/// stream is partitioned. That equivalence is what lets the device
/// simulator stream RF per control block (and retune channels mid-run)
/// while staying sample-exact with the whole-record pipeline.
class StreamingResampler {
 public:
  StreamingResampler(std::size_t interpolation, std::size_t decimation,
                     std::size_t taps_per_phase = 24);
  /// Rate-pair convenience (same rational approximation as resample()).
  StreamingResampler(double from_rate, double to_rate);

  /// Consume a block; returns every output sample whose input dependencies
  /// are now available. Total output length after consuming T inputs is
  /// (T*L)/M — identical to the batch formula.
  Signal process(std::span<const Sample> in);

  /// Rewind to stream time zero (drops the carried input tail).
  void reset();

  std::size_t interpolation() const { return l_; }
  std::size_t decimation() const { return m_; }

 private:
  std::size_t l_, m_;
  std::vector<double> prototype_;
  // Carried input context: the last `tail_.size()` inputs (M-1 of base
  // reach-back plus the prototype span), oldest-first.
  std::vector<Sample> tail_;
  std::size_t tail_len_ = 0;
  std::vector<Sample> work_;     // [tail | block] linearization scratch
  std::uint64_t in_count_ = 0;   // total inputs consumed
  std::uint64_t out_count_ = 0;  // total outputs produced
};

}  // namespace mute::dsp
