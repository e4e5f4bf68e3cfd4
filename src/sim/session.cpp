#include "sim/session.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace mute::sim {

std::size_t NeverLouderAccountant::window_length(double sample_rate) {
  return 2 * std::max<std::size_t>(
                 1, static_cast<std::size_t>(kWindowS * sample_rate) / 2);
}

NeverLouderAccountant::NeverLouderAccountant(double sample_rate,
                                             std::size_t grace_samples)
    : half_(window_length(sample_rate) / 2),
      grace_(grace_samples),
      // Window boundaries fall on sample counts congruent to the grace
      // point modulo half a window.
      phase_((half_ - grace_samples % half_) % half_) {}

void NeverLouderAccountant::close_window() {
  phase_ = 0;
  const std::size_t p = closing_;
  closing_ ^= 1;
  // Pair p was last reset one full window ago (or never, if the stream is
  // younger than a window: a partial window is not judged).
  if (samples_ >= grace_ && samples_ >= window_samples()) {
    const double mean_dist =
        dist_[p] / static_cast<double>(window_samples());
    if (mean_dist > 1e-12) {
      const double excess_db =
          10.0 * std::log10((res_[p] + 1e-300) / dist_[p]);
      ++windows_;
      if (excess_db > worst_db_) {
        worst_db_ = excess_db;
        worst_end_ = samples_;
      }
    }
  }
  res_[p] = 0.0;
  dist_[p] = 0.0;
}

DeviceSession::DeviceSession(const core::MuteDeviceConfig& device,
                             const std::vector<double>& hse_eff,
                             std::size_t grace_samples)
    : device_(device),
      hse_(hse_eff),
      feed_(device.relay_count, 0.0f),
      accountant_(device.sample_rate, grace_samples) {}

void DeviceSession::ramp_in(std::size_t samples) {
  if (samples == 0) {
    gain_ = 1.0;
    gain_step_ = 0.0;
  } else {
    gain_ = 0.0;
    gain_step_ = 1.0 / static_cast<double>(samples);
  }
}

void DeviceSession::fade_out(std::size_t samples) {
  if (samples == 0 || gain_ <= 0.0) {
    gain_ = 0.0;
    gain_step_ = 0.0;
    faded_out_ = true;
  } else {
    gain_step_ = -1.0 / static_cast<double>(samples);
  }
}

std::size_t DeviceSession::step(const std::vector<Signal>& x,
                                std::size_t x_pos, std::span<const Sample> d,
                                std::span<Sample> ear,
                                std::span<Sample> anti) {
  const std::size_t relays = feed_.size();
  for (std::size_t s = 0; s < d.size(); ++s) {
    for (std::size_t k = 0; k < relays; ++k) feed_[k] = x[k][x_pos + s];
    const std::size_t allocs = RtAllocationGuard::thread_allocation_count();
    const Sample y = device_.tick(feed_, error_);
    if (RtAllocationGuard::thread_allocation_count() != allocs) {
      ++allocating_ticks_;
    }
    const Sample a = hse_.process(y);
    const double dist = static_cast<double>(d[s]);
    // gain == 1.0 multiplies exactly: a session at full gain computes the
    // plain d + anti sum.
    const Sample at_ear =
        static_cast<Sample>(dist + gain_ * static_cast<double>(a));
    error_ = at_ear;
    if (!ear.empty()) ear[s] = at_ear;
    if (!anti.empty()) anti[s] = a;
    accountant_.add(at_ear, dist);

    if (gain_step_ != 0.0) {
      gain_ += gain_step_;
      if (gain_step_ > 0.0) {
        if (gain_ >= 1.0) {
          gain_ = 1.0;
          gain_step_ = 0.0;
        }
      } else if (gain_ <= 0.0) {
        gain_ = 0.0;
        gain_step_ = 0.0;
        faded_out_ = true;
        return s + 1;
      }
    }
  }
  return d.size();
}

}  // namespace mute::sim
