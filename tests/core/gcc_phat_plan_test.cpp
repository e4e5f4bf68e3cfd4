// The packed GCC-PHAT plan against the straightforward implementation it
// replaced (two real FFTs per pair, a full-length PHAT cross-spectrum, one
// inverse FFT each), kept here as the oracle: lags, the chosen relay and
// the ranking must be identical, correlation values within 1e-12.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "core/gcc_phat.hpp"
#include "core/relay_select.hpp"
#include "dsp/fft.hpp"

namespace mute::core {
namespace {

constexpr double kFs = 16000.0;
constexpr double kTol = 1e-12;

GccPhatResult oracle_gcc_phat(std::span<const Sample> reference,
                              std::span<const Sample> delayed,
                              double sample_rate, double max_lag_s) {
  const std::size_t n = reference.size();
  const std::size_t nfft = next_pow2(2 * n);
  ComplexSignal fr(nfft), fd(nfft);
  for (std::size_t i = 0; i < n; ++i) {
    fr[i] = static_cast<double>(reference[i]);
    fd[i] = static_cast<double>(delayed[i]);
  }
  dsp::fft_inplace(fr);
  dsp::fft_inplace(fd);
  for (std::size_t k = 0; k < nfft; ++k) {
    const Complex cross = fd[k] * std::conj(fr[k]);
    const double mag = std::abs(cross);
    fr[k] = (mag > 1e-15) ? cross / mag : Complex(0.0, 0.0);
  }
  dsp::ifft_inplace(fr);
  const auto max_lag = static_cast<std::ptrdiff_t>(
      std::min<double>(max_lag_s * sample_rate, static_cast<double>(n - 1)));
  GccPhatResult out;
  double best_v = -1.0;
  for (std::ptrdiff_t lag = -max_lag; lag <= max_lag; ++lag) {
    const std::size_t idx = lag >= 0 ? static_cast<std::size_t>(lag)
                                     : nfft - static_cast<std::size_t>(-lag);
    const double v = fr[idx].real();
    out.lag_s.push_back(static_cast<double>(lag) / sample_rate);
    out.correlation.push_back(v);
    if (v > best_v) {
      best_v = v;
      out.peak_lag_s = out.lag_s.back();
    }
  }
  out.peak_value = best_v;
  return out;
}

RelaySelection oracle_select(std::span<const Signal> relays,
                             std::span<const Sample> ear,
                             const RelaySelectorOptions& o = {}) {
  RelaySelection out;
  for (std::size_t i = 0; i < relays.size(); ++i) {
    const auto g = oracle_gcc_phat(relays[i], ear, kFs, o.max_lag_s);
    out.all.push_back({i, g.peak_lag_s, g.peak_value});
  }
  for (const auto& m : out.all) {
    if (m.confidence >= o.min_confidence &&
        m.lookahead_s >= o.min_lookahead_s) {
      out.ranked.push_back(m);
    }
  }
  std::sort(out.ranked.begin(), out.ranked.end(),
            [](const RelayMeasurement& a, const RelayMeasurement& b) {
              if (a.lookahead_s != b.lookahead_s) {
                return a.lookahead_s > b.lookahead_s;
              }
              return a.relay_index < b.relay_index;
            });
  if (!out.ranked.empty()) out.chosen = out.ranked.front();
  return out;
}

Signal noise(std::size_t n, std::uint64_t seed, double sigma = 0.3) {
  Rng rng(seed);
  Signal s(n);
  for (auto& v : s) v = static_cast<Sample>(rng.gaussian(sigma));
  return s;
}

// `src` delayed by `lag` samples (negative: advanced), plus independent
// noise so the peak is not a trivial 1.0.
Signal shifted(const Signal& src, std::ptrdiff_t lag, std::uint64_t seed) {
  const Signal extra = noise(src.size(), seed, 0.15);
  Signal out(src.size());
  const auto n = static_cast<std::ptrdiff_t>(src.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t j = i - lag;
    const Sample s = (j >= 0 && j < n) ? src[static_cast<std::size_t>(j)]
                                       : 0.0f;
    out[static_cast<std::size_t>(i)] = s + extra[static_cast<std::size_t>(i)];
  }
  return out;
}

void expect_same_measurement(const RelayMeasurement& got,
                             const RelayMeasurement& want) {
  EXPECT_EQ(got.relay_index, want.relay_index);
  EXPECT_EQ(got.lookahead_s, want.lookahead_s);
  EXPECT_NEAR(got.confidence, want.confidence, kTol);
}

void expect_same_selection(const RelaySelection& got,
                           const RelaySelection& want) {
  ASSERT_EQ(got.all.size(), want.all.size());
  for (std::size_t i = 0; i < got.all.size(); ++i) {
    expect_same_measurement(got.all[i], want.all[i]);
  }
  ASSERT_EQ(got.ranked.size(), want.ranked.size());
  for (std::size_t i = 0; i < got.ranked.size(); ++i) {
    expect_same_measurement(got.ranked[i], want.ranked[i]);
  }
  ASSERT_EQ(got.chosen.has_value(), want.chosen.has_value());
  if (got.chosen) expect_same_measurement(*got.chosen, *want.chosen);
}

void expect_same_curve(const GccPhatResult& got, const GccPhatResult& want) {
  ASSERT_EQ(got.correlation.size(), want.correlation.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < got.correlation.size(); ++i) {
    EXPECT_EQ(got.lag_s[i], want.lag_s[i]);
    worst = std::max(worst, std::abs(got.correlation[i] - want.correlation[i]));
  }
  EXPECT_LE(worst, kTol);
  EXPECT_EQ(got.peak_lag_s, want.peak_lag_s);
  EXPECT_NEAR(got.peak_value, want.peak_value, kTol);
}

TEST(GccPhatPlan, MatchesReferenceAcrossLags) {
  // Both selector transform sizes: 8000 samples (16384 points, the 0.5 s
  // period) and 16000 (32768 points, the 1 s default).
  std::uint64_t seed = 100;
  for (const std::size_t n : {std::size_t{8000}, std::size_t{16000}}) {
    for (const std::ptrdiff_t lag : {-700, -351, -1, 0, 1, 57, 333, 700}) {
      const Signal ref = noise(n, ++seed);
      const Signal del = shifted(ref, lag, ++seed);
      const auto got = gcc_phat(ref, del, kFs);
      const auto want = oracle_gcc_phat(ref, del, kFs, 0.05);
      expect_same_curve(got, want);
      EXPECT_EQ(got.peak_lag_s, static_cast<double>(lag) / kFs);
    }
  }
}

TEST(GccPhatPlan, ClipsTheLagWindowToTheRecord) {
  // 64 samples cannot hold a ±800-sample window: max_lag becomes n - 1.
  const Signal ref = noise(64, 7);
  const Signal del = shifted(ref, 5, 8);
  GccPhatPlan plan(64, 1, kFs, 0.05);
  EXPECT_EQ(plan.max_lag(), 63u);
  expect_same_curve(gcc_phat(ref, del, kFs),
                    oracle_gcc_phat(ref, del, kFs, 0.05));
}

TEST(GccPhatPlan, SilentRecordsCorrelateToZero) {
  const Signal ref = noise(4000, 9);
  const Signal silent(4000, 0.0f);
  expect_same_curve(gcc_phat(ref, silent, kFs),
                    oracle_gcc_phat(ref, silent, kFs, 0.05));
  expect_same_curve(gcc_phat(silent, ref, kFs),
                    oracle_gcc_phat(silent, ref, kFs, 0.05));
  const auto r = gcc_phat(ref, silent, kFs);
  EXPECT_EQ(r.peak_lag_s, -800.0 / kFs);
  EXPECT_EQ(r.peak_value, 0.0);
}

TEST(GccPhatPlan, SelectionMatchesReferenceAtOneTwoAndFourRelays) {
  std::uint64_t seed = 500;
  const std::ptrdiff_t leads[] = {80, -30, 650, 12, -700, 300, 1, 400};
  for (const std::size_t relays : {1u, 2u, 4u}) {
    for (std::size_t trial = 0; trial < 4; ++trial) {
      const Signal src = noise(8000, ++seed);
      std::vector<Signal> streams;
      for (std::size_t k = 0; k < relays; ++k) {
        streams.push_back(
            shifted(src, -leads[(trial + 3 * k) % std::size(leads)], ++seed));
      }
      const Signal ear = shifted(src, 0, ++seed);
      const RelaySelection want = oracle_select(streams, ear);
      expect_same_selection(select_relay(streams, ear, kFs), want);

      // The streaming selector reaches the same round sample by sample.
      RelaySelector selector(relays, kFs, 0.5);
      std::vector<Sample> feed(relays);
      SelectionRef round;
      for (std::size_t t = 0; t < ear.size(); ++t) {
        for (std::size_t k = 0; k < relays; ++k) feed[k] = streams[k][t];
        round = selector.push(feed, ear[t]);
      }
      ASSERT_TRUE(round.has_value());
      expect_same_selection(*round, want);
    }
  }
}

TEST(GccPhatPlan, SelectionMatchesReferenceWithASilentErrorMic) {
  const Signal src = noise(8000, 31);
  const std::vector<Signal> streams = {shifted(src, -40, 32),
                                       shifted(src, -90, 33)};
  const Signal ear(8000, 0.0f);
  expect_same_selection(select_relay(streams, ear, kFs),
                        oracle_select(streams, ear));
  // A squelched (all-zero) relay next to a live one.
  const std::vector<Signal> one_dead = {Signal(8000, 0.0f),
                                        shifted(src, -90, 34)};
  const Signal live_ear = shifted(src, 0, 35);
  expect_same_selection(select_relay(one_dead, live_ear, kFs),
                        oracle_select(one_dead, live_ear));
}

TEST(GccPhatPlan, EqualLookaheadTiesRankByRelayIndex) {
  // Four relays at two distinct leads, two relays each: the ranking breaks
  // the equal-lookahead ties by index, exactly as the reference does.
  const Signal src = noise(8000, 41);
  const std::vector<Signal> streams = {
      shifted(src, -60, 42), shifted(src, -120, 43), shifted(src, -60, 44),
      shifted(src, -120, 45)};
  const Signal ear = shifted(src, 0, 46);
  const RelaySelection got = select_relay(streams, ear, kFs);
  expect_same_selection(got, oracle_select(streams, ear));
  ASSERT_EQ(got.ranked.size(), 4u);
  EXPECT_EQ(got.ranked[0].relay_index, 1u);
  EXPECT_EQ(got.ranked[1].relay_index, 3u);
  EXPECT_EQ(got.ranked[2].relay_index, 0u);
  EXPECT_EQ(got.ranked[3].relay_index, 2u);
}

TEST(GccPhatPlan, SelectionRoundIsAllocationFree) {
  if (!RtAllocationGuard::interposition_enabled()) {
    GTEST_SKIP() << "allocation interposition compiled out";
  }
  for (const std::size_t relays : {1u, 2u}) {
    RelaySelector selector(relays, kFs, 0.5);
    const std::size_t period = static_cast<std::size_t>(0.5 * kFs);
    const Signal src = noise(3 * period, 51);
    std::vector<Sample> feed(relays);
    std::size_t rounds = 0;
    const auto push = [&](std::size_t t) {
      for (std::size_t k = 0; k < relays; ++k) {
        feed[k] = t >= 20 * (k + 1) ? src[t - 20 * (k + 1)] : 0.0f;
      }
      if (selector.push(feed, src[t])) ++rounds;
    };
    for (std::size_t t = 0; t < period; ++t) push(t);  // one round first
    {
      // Two whole periods, capture and rounds included.
      RtAllocationGuard guard(RtAllocationGuard::Mode::kCount,
                              "selection-round");
      for (std::size_t t = period; t < 3 * period; ++t) push(t);
      EXPECT_EQ(guard.allocations_since_entry(), 0u)
          << relays << " relay(s)";
    }
    EXPECT_EQ(rounds, 3u);
  }
}

}  // namespace
}  // namespace mute::core
