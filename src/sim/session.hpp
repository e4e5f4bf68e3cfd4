#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "core/mute_device.hpp"
#include "dsp/fir_filter.hpp"

namespace mute::sim {

/// The one never-louder accountant: residual vs disturbance energy over
/// 0.25 s windows stepped by half a window, scored online as samples
/// stream past. Two accumulator pairs cover the two window phases, so the
/// hot path adds four additions per sample and never rescans a record.
///
/// `grace_samples` is the first judged window end: a window is judged iff
/// it ends at or after it, and the window grid is anchored there (window
/// ends sit at grace + j * window/2). Windows where the disturbance is
/// essentially silent (power-up lead-in) are skipped.
class NeverLouderAccountant {
 public:
  static constexpr double kWindowS = 0.25;
  /// How far a judged window may sit above passive before the run counts
  /// as louder than passive (the soaks' and fleet's pass bound).
  static constexpr double kLouderMarginDb = 3.0;

  NeverLouderAccountant() = default;  // empty result placeholder
  NeverLouderAccountant(double sample_rate, std::size_t grace_samples);

  MUTE_RT_SAFE void add(Sample residual, double disturbance) {
    const double r2 = static_cast<double>(residual) *
                      static_cast<double>(residual);
    const double d2 = disturbance * disturbance;
    res_[0] += r2;
    dist_[0] += d2;
    res_[1] += r2;
    dist_[1] += d2;
    ++samples_;
    if (++phase_ == half_) close_window();
  }

  /// Window length in samples at `sample_rate` (always even).
  static std::size_t window_length(double sample_rate);

  std::uint64_t samples() const { return samples_; }
  std::size_t window_samples() const { return 2 * half_; }
  /// Judged windows so far.
  std::size_t windows() const { return windows_; }
  /// Worst judged window, residual over disturbance in dB (-inf: none).
  double worst_excess_db() const { return worst_db_; }
  /// Sample count at the end of the worst judged window (0: none).
  std::uint64_t worst_window_end() const { return worst_end_; }

 private:
  MUTE_RT_SAFE void close_window();

  std::size_t half_ = 1;
  std::uint64_t grace_ = 0;
  std::uint64_t samples_ = 0;
  std::size_t phase_ = 0;   // samples since the last window boundary
  std::size_t closing_ = 0;  // accumulator pair the next boundary closes
  double res_[2] = {0.0, 0.0};
  double dist_[2] = {0.0, 0.0};
  std::size_t windows_ = 0;
  double worst_db_ = -std::numeric_limits<double>::infinity();
  std::uint64_t worst_end_ = 0;
};

/// One device's per-sample state, stepped in blocks: the MuteDevice, the
/// anti-noise plant (FIR on the effective secondary path), the relay feed,
/// the previous tick's ear sample (the device's error input), the
/// admit/drain ramp gain on the anti-noise, and the never-louder
/// accountant. The device sim, the fleet tenants and the naive fleet
/// baseline all run this one loop (DESIGN.md §14).
class DeviceSession {
 public:
  DeviceSession(const core::MuteDeviceConfig& device,
                const std::vector<double>& hse_eff, std::size_t grace_samples);

  /// Ramp the anti-noise gain 0 -> 1 over `samples` (0 = full gain now).
  void ramp_in(std::size_t samples);
  /// Fade the anti-noise gain to 0 over `samples` (0 = mute now). step()
  /// stops at the sample where the fade reaches zero.
  void fade_out(std::size_t samples);
  bool ramping() const { return gain_step_ != 0.0; }
  bool faded_out() const { return faded_out_; }

  /// Advance `d.size()` samples. Relay k's input for sample s is
  /// x[k][x_pos + s]; d holds the disturbance at the ear. Writes the ear
  /// field to `ear` and the anti-noise at the ear to `anti` when those are
  /// non-empty (same length as d). Returns the samples consumed: d.size(),
  /// or fewer when a fade-out reaches zero.
  MUTE_RT_SAFE std::size_t step(const std::vector<Signal>& x,
                                std::size_t x_pos, std::span<const Sample> d,
                                std::span<Sample> ear, std::span<Sample> anti);

  const core::MuteDevice& device() const { return device_; }
  const NeverLouderAccountant& accountant() const { return accountant_; }
  std::uint64_t samples() const { return accountant_.samples(); }
  /// Ticks during which the device heap-allocated (0 when the
  /// operator-new interposition is compiled out).
  std::uint64_t allocating_ticks() const { return allocating_ticks_; }

 private:
  core::MuteDevice device_;
  dsp::FirFilter hse_;
  Signal feed_;
  Sample error_ = 0.0f;  // the device consumes the PREVIOUS tick's ear field
  double gain_ = 1.0;
  double gain_step_ = 0.0;  // signed per-sample ramp increment
  bool faded_out_ = false;
  NeverLouderAccountant accountant_;
  std::uint64_t allocating_ticks_ = 0;
};

}  // namespace mute::sim
