#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace mute::dsp {

/// In-place iterative radix-2 decimation-in-time FFT.
/// `data.size()` must be a power of two.
void fft_inplace(std::span<Complex> data);

/// In-place inverse FFT (includes the 1/N normalization).
void ifft_inplace(std::span<Complex> data);

/// Largest transform the shared twiddle table covers: the GCC-PHAT plan of
/// a 1 s selection period at 16 kHz (0.5 s periods need 16384 points).
inline constexpr std::size_t kMaxTableFft = 32768;

/// Builds the process-wide twiddle table for transforms of `n` points (a
/// power of two, at most kMaxTableFft). Control plane: call it when sizing
/// a plan, so that fft_table_inplace on n points never builds a stage on
/// the audio thread. Thread-safe; each stage is built once per process.
void prepare_twiddle_table(std::size_t n);

/// In-place FFT whose twiddles come from the table for every length up to
/// kMaxTableFft (fft_inplace uses the slower twiddle recurrence above 8192
/// points); longer transforms fall back to the recurrence. `inverse`
/// conjugates the twiddles and, unlike ifft_inplace, skips the 1/N.
void fft_table_inplace(std::span<Complex> data, bool inverse);

/// Out-of-place forward FFT; input is zero-padded to the next power of two
/// if `n` is larger than `input.size()`. `n == 0` means next_pow2(size).
ComplexSignal fft(std::span<const Complex> input, std::size_t n = 0);

/// Forward FFT of a real signal; returns the full complex spectrum of
/// length next_pow2(max(n, input.size())).
ComplexSignal fft_real(std::span<const Sample> input, std::size_t n = 0);

/// Inverse FFT returning only the real parts (caller asserts the spectrum
/// is conjugate-symmetric, e.g. came from fft_real-processed data).
Signal ifft_real(std::span<const Complex> spectrum);

/// Frequency in Hz of FFT bin `k` for a transform of length `n`.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate);

}  // namespace mute::dsp
