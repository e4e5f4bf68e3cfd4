// Partitioned-block frequency-domain FxLMS (DESIGN.md §13): the block
// engine must (a) convolve EXACTLY like the weight vector says it does —
// fixed weights, overlap-save output equals direct convolution to FFT
// rounding error; (b) round-trip weights through the partition spectra;
// (c) match the pinned time-domain FxlmsEngine within tolerance on
// residual trajectories across noise / tonal / retarget scenarios; and
// (d) stay allocation-free in steady state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "adaptive/fd_fxlms.hpp"
#include "adaptive/fxlms.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "support/fd_stepper.hpp"

namespace mute::adaptive {
namespace {

std::vector<double> random_taps(std::size_t n, unsigned seed,
                                double scale = 0.3) {
  Rng rng(seed);
  std::vector<double> w(n);
  for (auto& v : w) v = rng.gaussian(scale);
  return w;
}

// Direct convolution reference: y(t) = sum_i w[i] * x(t - i), x zero for
// t < 0.
double direct_conv(const std::vector<double>& w, const Signal& x,
                   std::size_t t) {
  double acc = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (t >= i) acc += w[i] * static_cast<double>(x[t - i]);
  }
  return acc;
}

TEST(FdFxlms, FixedWeightOutputMatchesDirectConvolution) {
  // Tap counts that exercise full and partial final partitions.
  for (const std::size_t total : {32UL, 48UL, 96UL, 100UL}) {
    FdFxlmsOptions opt;
    opt.causal_taps = total;
    opt.noncausal_taps = 0;
    opt.block = 32;
    FdFxlmsEngine eng({1.0}, opt);
    ASSERT_EQ(eng.total_taps(), total);

    const auto w = random_taps(total, 500 + static_cast<unsigned>(total));
    eng.set_weights(w);

    Rng rng(77);
    const std::size_t blocks = 7;
    Signal x(blocks * eng.block_size());
    for (auto& v : x) v = static_cast<Sample>(rng.gaussian());

    Signal y(x.size());
    for (std::size_t b = 0; b < blocks; ++b) {
      eng.process_block(
          std::span<const Sample>(x.data() + b * eng.block_size(),
                                  eng.block_size()),
          std::span<Sample>(y.data() + b * eng.block_size(),
                            eng.block_size()));
    }
    for (std::size_t t = 0; t < x.size(); ++t) {
      EXPECT_NEAR(static_cast<double>(y[t]), direct_conv(w, x, t), 1e-4)
          << "total=" << total << " t=" << t;
    }
  }
}

TEST(FdFxlms, WeightsRoundTripThroughPartitionSpectra) {
  for (const std::size_t total : {16UL, 48UL, 100UL, 2048UL}) {
    FdFxlmsOptions opt;
    opt.causal_taps = total / 2;
    opt.noncausal_taps = total - total / 2;
    opt.block = 0;  // auto
    FdFxlmsEngine eng({1.0}, opt);
    const auto w = random_taps(total, 600 + static_cast<unsigned>(total));
    eng.set_weights(w);
    const auto got = eng.weights();
    ASSERT_EQ(got.size(), total);
    for (std::size_t i = 0; i < total; ++i) {
      EXPECT_NEAR(got[i], w[i], 1e-10) << "total=" << total << " i=" << i;
    }
  }
}

TEST(FdFxlms, RetargetRemapsWeightsLikeTimeDomainEngine) {
  FdFxlmsOptions opt;
  opt.causal_taps = 40;
  opt.noncausal_taps = 24;
  opt.block = 16;
  FdFxlmsEngine eng({1.0}, opt);
  const auto w = random_taps(64, 9);
  eng.set_weights(w);

  const std::ptrdiff_t shift = 8;  // lose 8 future taps
  eng.retarget_noncausal(16, shift);
  ASSERT_EQ(eng.total_taps(), 56u);
  ASSERT_EQ(eng.noncausal_taps(), 16u);
  const auto got = eng.weights();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) + shift;
    const double want =
        (j >= 0 && j < static_cast<std::ptrdiff_t>(w.size())) ? w[j] : 0.0;
    EXPECT_NEAR(got[i], want, 1e-10) << "i=" << i;
  }
}

// Shared mini acoustic loop for the engine-level equivalence scenarios:
// the engines are fed the advanced stream xa(t) = n(t + lead); the ear
// hears e(t) = d(t) + (h_se * y)(t) with d the primary-path noise. Both
// engines see the identical sequence; the block engine adapts once per
// block, the reference engine every sample.
struct Scenario {
  std::vector<double> h_se;   // true (and estimated) secondary path
  std::size_t lead = 16;      // acoustic lead of the reference stream
  std::size_t primary_delay = 10;
  std::size_t len = 48000;
};

Signal make_noise(const Scenario& sc, unsigned seed, bool tonal) {
  Rng rng(seed);
  Signal n(sc.len);
  double lp = 0.0;
  for (std::size_t t = 0; t < sc.len; ++t) {
    if (tonal) {
      n[t] = static_cast<Sample>(
          0.4 * std::sin(0.13 * static_cast<double>(t)) +
          0.2 * std::sin(0.047 * static_cast<double>(t) + 1.0) +
          rng.gaussian(0.05));
    } else {
      // Colored noise: one-pole lowpass of white.
      lp = 0.9 * lp + rng.gaussian(0.3);
      n[t] = static_cast<Sample>(lp);
    }
  }
  return n;
}

// Run either engine through the scenario; returns mean-square error over
// the last quarter (converged residual power).
template <typename StepFn>
double run_loop(const Scenario& sc, const Signal& n, StepFn&& step) {
  std::vector<double> y_hist(sc.h_se.size(), 0.0);  // y(t-1), y(t-2), ...
  double err_acc = 0.0;
  std::size_t err_n = 0;
  for (std::size_t t = 0; t < sc.len; ++t) {
    const Sample xa =
        (t + sc.lead < sc.len) ? n[t + sc.lead] : Sample{0};
    const Sample y = step(xa);
    // Acoustic mix: secondary path applied to the *played* anti-noise.
    std::rotate(y_hist.rbegin(), y_hist.rbegin() + 1, y_hist.rend());
    y_hist[0] = static_cast<double>(y);
    double a = 0.0;
    for (std::size_t i = 0; i < sc.h_se.size(); ++i) {
      a += sc.h_se[i] * y_hist[i];
    }
    const double d = (t >= sc.primary_delay)
                         ? static_cast<double>(n[t - sc.primary_delay])
                         : 0.0;
    const double e = d + a;
    step.observe(static_cast<Sample>(e));
    if (t >= 3 * sc.len / 4) {
      err_acc += e * e;
      ++err_n;
    }
  }
  return err_acc / static_cast<double>(err_n);
}

struct TdStepper {
  FxlmsEngine* eng;
  Sample operator()(Sample xa) { return eng->step_output(xa); }
  void observe(Sample e) { eng->adapt(e); }
};

// The pinned equivalence tolerance (DESIGN.md §13): both engines must
// cancel (>= 10 dB below the passive ear) and the FD residual must come
// within +3 dB of the time-domain reference. The bound is one-sided: the
// per-bin normalization routinely converges *deeper* than per-sample NLMS
// on colored spectra (that equalized convergence is the engine's point),
// so a lower FD residual is success, not a mismatch.
void expect_equivalent(double mse_td, double mse_fd, double passive) {
  EXPECT_LT(mse_td, 0.1 * passive);
  EXPECT_LT(mse_fd, 0.1 * passive);
  const double ratio_db = 10.0 * std::log10(mse_fd / mse_td);
  EXPECT_LT(ratio_db, 3.0)
      << "FD residual " << ratio_db << " dB above the TD reference";
}

double passive_power(const Scenario& sc, const Signal& n) {
  double acc = 0.0;
  std::size_t cnt = 0;
  for (std::size_t t = 3 * sc.len / 4; t < sc.len; ++t) {
    const double d = (t >= sc.primary_delay)
                         ? static_cast<double>(n[t - sc.primary_delay])
                         : 0.0;
    acc += d * d;
    ++cnt;
  }
  return acc / static_cast<double>(cnt);
}

Scenario default_scenario() {
  Scenario sc;
  sc.h_se.assign(6, 0.0);
  sc.h_se[2] = 0.9;
  sc.h_se[3] = 0.25;
  return sc;
}

TEST(FdFxlmsEquivalence, ColoredNoiseResidualMatchesTimeDomain) {
  const Scenario sc = default_scenario();
  const auto n = make_noise(sc, 101, /*tonal=*/false);

  FxlmsOptions td;
  td.mu = 0.1;
  td.causal_taps = 48;
  td.noncausal_taps = sc.lead;
  FxlmsEngine td_eng(sc.h_se, td);

  FdFxlmsOptions fd;
  fd.mu = 0.1;
  fd.causal_taps = 48;
  fd.block = 8;
  fd.noncausal_taps = sc.lead - fd.block;
  FdFxlmsEngine fd_eng(sc.h_se, fd);

  const double mse_td = run_loop(sc, n, TdStepper{&td_eng});
  const double mse_fd = run_loop(sc, n, FdStepper{&fd_eng});
  expect_equivalent(mse_td, mse_fd, passive_power(sc, n));
}

TEST(FdFxlmsEquivalence, TonalNoiseResidualMatchesTimeDomain) {
  const Scenario sc = default_scenario();
  const auto n = make_noise(sc, 202, /*tonal=*/true);

  FxlmsOptions td;
  td.mu = 0.1;
  td.causal_taps = 48;
  td.noncausal_taps = sc.lead;
  FxlmsEngine td_eng(sc.h_se, td);

  FdFxlmsOptions fd;
  fd.mu = 0.1;
  fd.causal_taps = 48;
  fd.block = 8;
  fd.noncausal_taps = sc.lead - fd.block;
  FdFxlmsEngine fd_eng(sc.h_se, fd);

  const double mse_td = run_loop(sc, n, TdStepper{&td_eng});
  const double mse_fd = run_loop(sc, n, FdStepper{&fd_eng});
  expect_equivalent(mse_td, mse_fd, passive_power(sc, n));
}

TEST(FdFxlmsEquivalence, ConstraintSchedulesAgree) {
  // Round-robin constraint projection must land within tolerance of the
  // exact (full) MDF constraint — the scheduling is a cost optimization,
  // not an algorithm change.
  const Scenario sc = default_scenario();
  const auto n = make_noise(sc, 303, /*tonal=*/false);

  auto run_with = [&](FdConstraint c) {
    FdFxlmsOptions fd;
    fd.mu = 0.1;
  fd.causal_taps = 48;
    fd.block = 8;
    fd.noncausal_taps = sc.lead - fd.block;
    fd.constraint = c;
    FdFxlmsEngine eng(sc.h_se, fd);
    return run_loop(sc, n, FdStepper{&eng});
  };
  const double mse_full = run_with(FdConstraint::kFull);
  const double mse_rr = run_with(FdConstraint::kRoundRobin);
  const double ratio_db = 10.0 * std::log10(mse_rr / mse_full);
  EXPECT_LT(std::abs(ratio_db), 3.0);
}

TEST(FdFxlmsEquivalence, RetargetKeepsCancellingLikeTimeDomain) {
  // Mid-run, hand off to a relay whose lead is 4 samples shorter. Both
  // engines take the same remap; both must re-converge to equivalent
  // residuals (the FD pipeline block is unchanged, so its shift formula
  // must cancel the block term — pinned here).
  Scenario sc = default_scenario();
  sc.len = 64000;
  const auto n = make_noise(sc, 404, /*tonal=*/false);
  const std::size_t new_lead = sc.lead - 4;

  FxlmsOptions td;
  td.mu = 0.1;
  td.causal_taps = 48;
  td.noncausal_taps = sc.lead;
  FxlmsEngine td_eng(sc.h_se, td);

  FdFxlmsOptions fd;
  fd.mu = 0.1;
  fd.causal_taps = 48;
  fd.block = 8;
  fd.noncausal_taps = sc.lead - fd.block;
  FdFxlmsEngine fd_eng(sc.h_se, fd);

  auto run_with_handoff = [&](auto&& step, auto&& retarget) {
    double err_acc = 0.0;
    std::size_t err_n = 0;
    std::vector<double> y_hist(sc.h_se.size(), 0.0);
    std::size_t lead = sc.lead;
    for (std::size_t t = 0; t < sc.len; ++t) {
      if (t == sc.len / 2) {
        retarget();
        lead = new_lead;
      }
      const Sample xa = (t + lead < sc.len) ? n[t + lead] : Sample{0};
      const Sample y = step(xa);
      std::rotate(y_hist.rbegin(), y_hist.rbegin() + 1, y_hist.rend());
      y_hist[0] = static_cast<double>(y);
      double a = 0.0;
      for (std::size_t i = 0; i < sc.h_se.size(); ++i) {
        a += sc.h_se[i] * y_hist[i];
      }
      const double d = (t >= sc.primary_delay)
                           ? static_cast<double>(n[t - sc.primary_delay])
                           : 0.0;
      const double e = d + a;
      step.observe(static_cast<Sample>(e));
      if (t >= 7 * sc.len / 8) {
        err_acc += e * e;
        ++err_n;
      }
    }
    return err_acc / static_cast<double>(err_n);
  };

  // Source-time remap w_new[i] = w_old[i + shift] with shift =
  // N_old - N_new. The FD engine's noncausal counts are both offset by B,
  // so the same shift applies (the block term cancels).
  const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(sc.lead) -
                               static_cast<std::ptrdiff_t>(new_lead);

  TdStepper td_step{&td_eng};
  const double mse_td = run_with_handoff(td_step, [&] {
    td_eng.retarget_noncausal(new_lead, shift);
  });
  FdStepper fd_step{&fd_eng};
  const double mse_fd = run_with_handoff(fd_step, [&] {
    fd_eng.retarget_noncausal(new_lead - fd_eng.block_size(), shift);
    fd_step.reset();
  });

  const double passive = passive_power(sc, n);
  EXPECT_LT(mse_td, 0.1 * passive);
  EXPECT_LT(mse_fd, 0.1 * passive);
  const double ratio_db = 10.0 * std::log10(mse_fd / mse_td);
  EXPECT_LT(ratio_db, 3.0);  // one-sided, as in expect_equivalent
}

TEST(FdFxlmsRt, BlockPathIsAllocationFreeInSteadyState) {
  FdFxlmsOptions opt;
  opt.causal_taps = 1024;
  opt.noncausal_taps = 1024;
  opt.block = 256;
  FdFxlmsEngine eng(std::vector<double>{1.0, 0.4, 0.1}, opt);

  Rng rng(55);
  Signal x(opt.block), y(opt.block), e(opt.block);
  auto fill = [&] {
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<Sample>(rng.gaussian());
      e[i] = static_cast<Sample>(rng.gaussian(0.1));
    }
  };
  fill();
  eng.process_block(x, y);
  eng.adapt_block(e);

  RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "fd-block-path");
  for (int b = 0; b < 8; ++b) {
    fill();
    eng.process_block(x, y);
    eng.adapt_block(e);
  }
  if (RtAllocationGuard::interposition_enabled()) {
    EXPECT_EQ(guard.allocations_since_entry(), 0u);
  }
}

TEST(FdFxlms, AdaptRequiresMatchingProcessBlock) {
  FdFxlmsOptions opt;
  opt.causal_taps = 32;
  opt.block = 16;
  FdFxlmsEngine eng({1.0}, opt);
  Signal e(16, 0.1f);
  EXPECT_THROW(eng.adapt_block(e), PreconditionError);
  Signal x(16, 0.2f), y(16);
  eng.process_block(x, y);
  eng.adapt_block(e);                             // armed: fine
  EXPECT_THROW(eng.adapt_block(e), PreconditionError);  // consumed
}

}  // namespace
}  // namespace mute::adaptive
