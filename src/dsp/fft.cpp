#include "dsp/fft.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <mutex>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::dsp {

namespace {

void bit_reverse_permute(std::span<Complex> data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

// Forward twiddle table shared by all transforms: tw[len / 2 + k] =
// exp(-2*pi*i * k / len) for k in [0, len/2) (the inverse transform
// conjugates on the fly). Stage slices never overlap — offsets 1, 2, 4, ...
// partition [1, n) — so each stage is built once, on first use, under its
// own std::once_flag, into static storage: a table transform stays heap-
// allocation-free and safe to call from the RT path.
//
// fft_inplace reads the table up to kGenericTableFft points and keeps the
// twiddle recurrence above, so the long generic transforms (fast
// convolution, Welch over long records) give the same output as before the
// table grew; only fft_table_inplace, whose callers build the large stages
// up front with prepare_twiddle_table(), reads them.
constexpr std::size_t kGenericTableFft = 8192;
std::array<double, 2 * kMaxTableFft> g_twiddles;
std::array<std::once_flag, std::bit_width(kMaxTableFft) - 1> g_stage_once;

void build_stage(std::size_t len) {
  double* t = g_twiddles.data() + len;  // complex offset len/2
  const double angle = -kTwoPi / static_cast<double>(len);
  for (std::size_t k = 0; k < len / 2; ++k) {
    t[2 * k] = std::cos(angle * static_cast<double>(k));
    t[2 * k + 1] = std::sin(angle * static_cast<double>(k));
  }
}

// Makes the table cover every stage of an n-point transform
// (n <= kMaxTableFft).
void ensure_twiddles(std::size_t n) {
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    std::call_once(g_stage_once[stage++], build_stage, len);
  }
}

// Manual (re, im) butterflies: std::complex operator* routes through the
// NaN-propagating __muldc3 helper, and the twiddle *recurrence* forms a
// serial dependency chain through every butterfly — together they made
// this the hot-path bottleneck (the block LANC engine is FFT-bound).
// Transforms of up to `table_limit` points take their twiddles from the
// table; longer ones use the recurrence. No 1/N on the inverse.
void fft_core(std::span<Complex> data, bool inverse, std::size_t table_limit) {
  const std::size_t n = data.size();
  ensure(is_pow2(n), "FFT length must be a power of two");
  bit_reverse_permute(data);
  auto* d = reinterpret_cast<double*>(data.data());
  const bool use_table = n <= table_limit;
  if (use_table) ensure_twiddles(n);
  const double sign = inverse ? -1.0 : 1.0;  // conjugate table for inverse
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    if (use_table) {
      const double* t = g_twiddles.data() + len;
      for (std::size_t i = 0; i < n; i += len) {
        double* pa = d + 2 * i;
        double* pb = d + 2 * (i + half);
        for (std::size_t k = 0; k < half; ++k) {
          const double wr = t[2 * k];
          const double wi = sign * t[2 * k + 1];
          const double xr = pb[2 * k], xi = pb[2 * k + 1];
          const double vr = xr * wr - xi * wi;
          const double vi = xr * wi + xi * wr;
          const double ur = pa[2 * k], ui = pa[2 * k + 1];
          pa[2 * k] = ur + vr;
          pa[2 * k + 1] = ui + vi;
          pb[2 * k] = ur - vr;
          pb[2 * k + 1] = ui - vi;
        }
      }
    } else {
      const double angle =
          (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
      const double wr0 = std::cos(angle), wi0 = std::sin(angle);
      for (std::size_t i = 0; i < n; i += len) {
        double wr = 1.0, wi = 0.0;
        double* pa = d + 2 * i;
        double* pb = d + 2 * (i + half);
        for (std::size_t k = 0; k < half; ++k) {
          const double xr = pb[2 * k], xi = pb[2 * k + 1];
          const double vr = xr * wr - xi * wi;
          const double vi = xr * wi + xi * wr;
          const double ur = pa[2 * k], ui = pa[2 * k + 1];
          pa[2 * k] = ur + vr;
          pa[2 * k + 1] = ui + vi;
          pb[2 * k] = ur - vr;
          pb[2 * k + 1] = ui - vi;
          const double nwr = wr * wr0 - wi * wi0;
          wi = wr * wi0 + wi * wr0;
          wr = nwr;
        }
      }
    }
  }
}

}  // namespace

void fft_inplace(std::span<Complex> data) {
  fft_core(data, /*inverse=*/false, kGenericTableFft);
}

void ifft_inplace(std::span<Complex> data) {
  fft_core(data, /*inverse=*/true, kGenericTableFft);
  const double inv_n = 1.0 / static_cast<double>(data.size());
  for (auto& c : data) c *= inv_n;
}

void prepare_twiddle_table(std::size_t n) {
  ensure(is_pow2(n) && n <= kMaxTableFft,
         "twiddle table covers powers of two up to kMaxTableFft");
  ensure_twiddles(n);
}

void fft_table_inplace(std::span<Complex> data, bool inverse) {
  fft_core(data, inverse, kMaxTableFft);
}

ComplexSignal fft(std::span<const Complex> input, std::size_t n) {
  const std::size_t want = std::max(n, input.size());
  ComplexSignal buf(next_pow2(std::max<std::size_t>(want, 1)));
  std::copy(input.begin(), input.end(), buf.begin());
  fft_inplace(buf);
  return buf;
}

ComplexSignal fft_real(std::span<const Sample> input, std::size_t n) {
  const std::size_t want = std::max(n, input.size());
  ComplexSignal buf(next_pow2(std::max<std::size_t>(want, 1)));
  for (std::size_t i = 0; i < input.size(); ++i) {
    buf[i] = Complex(static_cast<double>(input[i]), 0.0);
  }
  fft_inplace(buf);
  return buf;
}

Signal ifft_real(std::span<const Complex> spectrum) {
  ComplexSignal buf(spectrum.begin(), spectrum.end());
  ifft_inplace(buf);
  Signal out(buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    out[i] = static_cast<Sample>(buf[i].real());
  }
  return out;
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate) {
  ensure(n > 0, "transform length must be positive");
  return static_cast<double>(k) * sample_rate / static_cast<double>(n);
}

}  // namespace mute::dsp
