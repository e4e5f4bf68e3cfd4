#include "core/gcc_phat.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/fft.hpp"

namespace mute::core {

GccPhatResult gcc_phat(std::span<const Sample> reference,
                       std::span<const Sample> delayed, double sample_rate,
                       double max_lag_s) {
  ensure(reference.size() == delayed.size(), "records must be equal length");
  GccPhatPlan plan(reference.size(), 1, sample_rate, max_lag_s);
  std::copy(reference.begin(), reference.end(), plan.reference(0).begin());
  std::copy(delayed.begin(), delayed.end(), plan.delayed().begin());

  GccPhatResult out;
  out.correlation.resize(2 * plan.max_lag() + 1);
  const GccPhatPeak peak = plan.correlate(out.correlation).front();
  const auto max_lag = static_cast<std::ptrdiff_t>(plan.max_lag());
  out.lag_s.reserve(out.correlation.size());
  for (std::ptrdiff_t lag = -max_lag; lag <= max_lag; ++lag) {
    out.lag_s.push_back(static_cast<double>(lag) / sample_rate);
  }
  out.peak_lag_s = peak.lag_s;
  out.peak_value = peak.value;
  return out;
}

GccPhatPlan::GccPhatPlan(std::size_t record_length, std::size_t references,
                         double sample_rate, double max_lag_s)
    : length_(record_length), fs_(sample_rate) {
  ensure(record_length >= 64, "records too short for GCC-PHAT");
  ensure(references >= 1, "need at least one reference record");
  ensure(sample_rate > 0, "sample rate must be positive");
  ensure(max_lag_s >= 0, "lag window must be non-negative");
  nfft_ = next_pow2(2 * length_);
  half_ = nfft_ / 2 + 1;
  max_lag_ = static_cast<std::size_t>(std::min<double>(
      max_lag_s * sample_rate, static_cast<double>(length_ - 1)));
  records_.assign((references + 1) * length_, 0.0f);
  spectra_.assign((references + 1) * half_, Complex(0.0, 0.0));
  work_.assign(nfft_, Complex(0.0, 0.0));
  silent_.assign(references + 1, false);
  peaks_.assign(references, GccPhatPeak{});
  if (nfft_ <= mute::dsp::kMaxTableFft) {
    mute::dsp::prepare_twiddle_table(nfft_);
  }
}

std::span<const GccPhatPeak> GccPhatPlan::correlate(std::span<double> curves) {
  const std::size_t refs = peaks_.size();
  ensure(curves.empty() || curves.size() == refs * (2 * max_lag_ + 1),
         "one correlation curve per reference required");
  for (std::size_t r = 0; r < refs + 1; r += 2) forward(r, r + 1);
  for (std::size_t i = 0; i < refs; ++i) phat(i);
  for (std::size_t i = 0; i < refs; i += 2) inverse(i, i + 1, curves);
  return peaks_;
}

// Transforms records a and b (b past the last record: none) as one complex
// record a + i·b and splits the spectrum into their half-spectra:
// A[k] = (Z[k] + conj Z[N-k]) / 2, B[k] = (Z[k] - conj Z[N-k]) / 2i.
void GccPhatPlan::forward(std::size_t a, std::size_t b) {
  const bool pair = b < silent_.size();
  const Sample* xa = records_.data() + a * length_;
  const Sample* xb = pair ? records_.data() + b * length_ : nullptr;
  bool loud_a = false;
  bool loud_b = false;
  for (std::size_t t = 0; t < length_; ++t) {
    const Sample va = xa[t];
    const Sample vb = pair ? xb[t] : 0.0f;
    loud_a |= va != 0.0f;
    loud_b |= vb != 0.0f;
    work_[t] = Complex(va, vb);
  }
  std::fill(work_.begin() + static_cast<std::ptrdiff_t>(length_), work_.end(),
            Complex(0.0, 0.0));
  silent_[a] = !loud_a;
  if (pair) silent_[b] = !loud_b;
  mute::dsp::fft_table_inplace(work_, /*inverse=*/false);

  Complex* sa = spectra_.data() + a * half_;
  Complex* sb = pair ? spectra_.data() + b * half_ : nullptr;
  for (std::size_t k = 0; k < half_; ++k) {
    const Complex z = work_[k];
    const Complex m = work_[(nfft_ - k) & (nfft_ - 1)];
    sa[k] = Complex(0.5 * (z.real() + m.real()), 0.5 * (z.imag() - m.imag()));
    if (pair) {
      sb[k] =
          Complex(0.5 * (z.imag() + m.imag()), 0.5 * (m.real() - z.real()));
    }
  }
}

// Cross-spectrum with PHAT weighting, delayed · conj(reference i), in
// place of reference i's spectrum: keep only phase information so
// reverberant magnitude structure cannot smear the peak.
void GccPhatPlan::phat(std::size_t i) {
  Complex* g = spectra_.data() + (i + 1) * half_;
  if (silent_[0] || silent_[i + 1]) {
    std::fill(g, g + half_, Complex(0.0, 0.0));
    return;
  }
  const Complex* d = spectra_.data();
  for (std::size_t k = 0; k < half_; ++k) {
    const double dr = d[k].real(), di = d[k].imag();
    const double rr = g[k].real(), ri = g[k].imag();
    const double cr = dr * rr + di * ri;
    const double ci = di * rr - dr * ri;
    const double mag = std::sqrt(cr * cr + ci * ci);
    g[k] = (mag > 1e-15) ? Complex(cr / mag, ci / mag) : Complex(0.0, 0.0);
  }
}

// Inverse-transforms the cross-spectra of references i and j (j past the
// last reference: none) as one: both are conjugate-symmetric, so
// IFFT(G_i + i·G_j) carries g_i in its real and g_j in its imaginary part.
void GccPhatPlan::inverse(std::size_t i, std::size_t j,
                          std::span<double> curves) {
  const bool pair = j < peaks_.size();
  const Complex* ga = spectra_.data() + (i + 1) * half_;
  const Complex* gb = pair ? spectra_.data() + (j + 1) * half_ : nullptr;
  const std::size_t mid = nfft_ / 2;
  for (std::size_t k = 0; k <= mid; ++k) {
    const Complex a = ga[k];
    const Complex b = pair ? gb[k] : Complex(0.0, 0.0);
    work_[k] = Complex(a.real() - b.imag(), a.imag() + b.real());
    if (k != 0 && k != mid) {
      work_[nfft_ - k] = Complex(a.real() + b.imag(), b.real() - a.imag());
    }
  }
  mute::dsp::fft_table_inplace(work_, /*inverse=*/true);

  const std::size_t width = 2 * max_lag_ + 1;
  const auto curve = [&](std::size_t r) {
    return curves.empty() ? curves : curves.subspan(r * width, width);
  };
  read_peak(i, /*imag=*/false, curve(i));
  if (pair) read_peak(j, /*imag=*/true, curve(j));
}

void GccPhatPlan::read_peak(std::size_t i, bool imag,
                            std::span<double> curve) {
  const bool silent = silent_[0] || silent_[i + 1];
  const double inv_n = 1.0 / static_cast<double>(nfft_);
  const auto max_lag = static_cast<std::ptrdiff_t>(max_lag_);
  double best_v = -1.0;
  std::ptrdiff_t best_lag = 0;
  for (std::ptrdiff_t lag = -max_lag; lag <= max_lag; ++lag) {
    // Positive lag: `delayed` trails the reference by `lag` samples; that
    // correlation lives at index `lag`, negative lags wrap to nfft + lag.
    const std::size_t idx = lag >= 0 ? static_cast<std::size_t>(lag)
                                     : nfft_ - static_cast<std::size_t>(-lag);
    const Complex c = work_[idx];
    const double v = silent ? 0.0 : (imag ? c.imag() : c.real()) * inv_n;
    if (!curve.empty()) curve[static_cast<std::size_t>(lag + max_lag)] = v;
    if (v > best_v) {
      best_v = v;
      best_lag = lag;
    }
  }
  peaks_[i] = GccPhatPeak{static_cast<double>(best_lag) / fs_, best_v};
}

}  // namespace mute::core
