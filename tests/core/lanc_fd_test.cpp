// The partitioned-block FD engine (adaptive::FdFxlmsEngine, DESIGN.md §13)
// on LANC's tick/observe scenario: driven per sample through the shared
// FdStepper, it must cancel like the LancController's time-domain engine
// on the same sequence, absorb its block pipeline inside the acoustic lead,
// survive a lead retarget, and tick allocation-free.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "adaptive/fd_fxlms.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/lanc.hpp"
#include "support/fd_stepper.hpp"

namespace mute::core {
namespace {

using adaptive::FdFxlmsEngine;
using adaptive::FdStepper;

// A lead of 8 samples split as a 4-sample block pipeline plus 4 future
// taps; the engine's total span matches a time-domain filter with the
// whole lead as future taps.
constexpr std::size_t kLead = 8;
constexpr std::size_t kBlock = 4;

adaptive::FdFxlmsOptions fd_options(std::size_t causal, std::size_t lead,
                                    std::size_t block) {
  adaptive::FdFxlmsOptions opts;
  opts.causal_taps = causal;
  opts.noncausal_taps = lead - block;
  opts.block = block;
  opts.mu = 0.5;
  return opts;
}

struct LancStepper {
  LancController* lanc;
  Sample operator()(Sample xa) { return lanc->tick(xa); }
  void observe(Sample e) { lanc->observe_error(e); }
};

// Mini acoustic loop shared by the scenarios below: hse = delay-1 delta,
// d(t) = n(t), a(t) = y(t-1); returns last-quarter residual in dB rel.
// the 0.01 noise power (same convention as Lanc.TickObserveLoopCancels*).
template <typename Stepper>
double run_residual_db(Stepper& step, std::size_t lead, int t_len,
                       unsigned seed) {
  Rng rng(seed);
  std::vector<float> n_sig(t_len), y(t_len, 0.0f);
  for (auto& v : n_sig) v = static_cast<float>(rng.gaussian(0.1));
  double err = 0.0;
  int count = 0;
  for (int t = 0; t < t_len; ++t) {
    const float x_adv =
        (t + static_cast<int>(lead) < t_len) ? n_sig[t + lead] : 0.0f;
    y[t] = step(x_adv);
    const float d = n_sig[t];
    const float a = (t >= 1) ? y[t - 1] : 0.0f;
    const float e = d + a;
    step.observe(e);
    if (t > 3 * t_len / 4) {
      err += static_cast<double>(e) * static_cast<double>(e);
      ++count;
    }
  }
  return 10.0 * std::log10(err / count / 0.01);
}

std::vector<double> delay_one_path() {
  std::vector<double> hse(4, 0.0);
  hse[1] = 1.0;
  return hse;
}

TEST(LancFd, TickObserveLoopCancelsSimplePlant) {
  FdFxlmsEngine eng(delay_one_path(), fd_options(32, kLead, kBlock));
  ASSERT_EQ(eng.block_size(), kBlock);
  FdStepper step(&eng);
  EXPECT_LT(run_residual_db(step, kLead, 40000, 13), -30.0);
}

TEST(LancFd, ResidualWithinTimeDomainTolerance) {
  // The §13 equivalence bound on LANC's scenario: FD residual within
  // +3 dB of the controller's time-domain engine on the identical
  // sequence (one-sided — the per-bin normalization often converges
  // deeper).
  LancOptions td;
  td.fxlms.causal_taps = 32;
  td.fxlms.noncausal_taps = kLead;
  td.fxlms.mu = 0.5;
  LancController td_lanc(delay_one_path(), td);
  LancStepper td_step{&td_lanc};
  FdFxlmsEngine fd_eng(delay_one_path(), fd_options(32, kLead, kBlock));
  FdStepper fd_step(&fd_eng);

  const double db_td = run_residual_db(td_step, kLead, 40000, 13);
  const double db_fd = run_residual_db(fd_step, kLead, 40000, 13);
  EXPECT_LT(db_td, -30.0);
  // Clamp at -60 dB: below that both residuals are float rounding noise
  // and their ratio is meaningless jitter.
  EXPECT_LT(std::max(db_fd, -60.0), std::max(db_td, -60.0) + 3.0);
}

TEST(LancFd, RetargetToShorterLeadKeepsCancelling) {
  FdFxlmsEngine eng(delay_one_path(), fd_options(32, kLead, kBlock));
  FdStepper step(&eng);

  const int phase_len = 40000;
  EXPECT_LT(run_residual_db(step, kLead, phase_len, 13), -30.0);

  // Hand off to a relay leading by 6 instead of 8: the block still takes
  // 4 samples of the lead, so 2 future taps remain. The weight shift is
  // the lead change (2) plus the measured advance shift (2) — the block
  // term appears in both future-tap counts and cancels. The buffered
  // blocks belong to the old stream.
  eng.retarget_noncausal(2, 4);
  step.reset();
  EXPECT_EQ(eng.noncausal_taps() + eng.block_size(), 6u);
  EXPECT_LT(run_residual_db(step, 6, phase_len, 14), -30.0);
}

TEST(LancFd, SteadyStateTickIsAllocationFree) {
  FdFxlmsEngine eng(delay_one_path(), fd_options(256, kLead, kBlock));
  FdStepper step(&eng);

  Rng rng(99);
  // Warm up past the first blocks (primes every lazy path).
  for (int t = 0; t < 1024; ++t) {
    step(static_cast<Sample>(rng.gaussian(0.1)));
    step.observe(static_cast<Sample>(rng.gaussian(0.05)));
  }
  RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "lanc-fd-tick");
  for (int t = 0; t < 1024; ++t) {
    step(static_cast<Sample>(rng.gaussian(0.1)));
    step.observe(static_cast<Sample>(rng.gaussian(0.05)));
  }
  if (RtAllocationGuard::interposition_enabled()) {
    EXPECT_EQ(guard.allocations_since_entry(), 0u);
  }
}

}  // namespace
}  // namespace mute::core
