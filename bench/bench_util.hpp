#pragma once

// Shared plumbing for the figure-regeneration binaries: run a scheme,
// compute its cancellation spectrum, and print paper-style series.
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace mute::bench {

struct SchemeRun {
  sim::SystemResult result;
  eval::CancellationSpectrum spectrum;  // 1/3-octave smoothed
};

/// Run one scheme on one workload with optional config tweaks.
inline SchemeRun run_scheme(
    sim::Scheme scheme, sim::NoiseKind noise_kind, std::uint64_t seed,
    double duration_s = 10.0,
    const std::function<void(sim::SystemConfig&)>& tweak = {}) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = sim::make_scheme_config(scheme, scene, seed);
  cfg.duration_s = duration_s;
  if (tweak) tweak(cfg);
  auto noise = sim::make_noise(noise_kind, cfg.scene.sample_rate, seed + 1000);
  SchemeRun out{sim::run_anc_simulation(*noise, cfg), {}};
  out.spectrum = eval::cancellation_spectrum(out.result.disturbance,
                                             out.result.residual,
                                             out.result.sample_rate,
                                             duration_s / 2.0)
                     .smoothed(3.0);
  return out;
}

/// Print a set of named cancellation curves as a table of frequency rows
/// (the paper's figure as numbers) plus an ASCII chart.
inline void print_cancellation_curves(
    const std::string& title,
    const std::vector<std::pair<std::string, const eval::CancellationSpectrum*>>&
        curves,
    double f_max = 4000.0, std::size_t points = 16) {
  std::printf("\n== %s ==\n\n", title.c_str());
  std::vector<std::string> headers = {"freq_Hz"};
  for (const auto& [name, spec] : curves) {
    headers.push_back(name);
    (void)spec;
  }
  eval::Table table(headers);

  // Evenly spaced frequency grid up to f_max.
  std::vector<double> grid;
  for (std::size_t p = 0; p < points; ++p) {
    grid.push_back(f_max * static_cast<double>(p + 1) /
                   static_cast<double>(points));
  }
  std::vector<eval::Series> series;
  for (const auto& [name, spec] : curves) {
    eval::Series s;
    s.name = name;
    for (double f : grid) s.y.push_back(spec->at(f));
    series.push_back(std::move(s));
  }
  for (std::size_t p = 0; p < grid.size(); ++p) {
    std::vector<std::string> row = {eval::fmt(grid[p], 0)};
    for (const auto& s : series) row.push_back(eval::fmt(s.y[p], 1));
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::printf("\ncancellation (dB, negative = quieter)\n");
  eval::print_ascii_chart(std::cout, grid, series, "frequency (Hz)", "dB");
}

}  // namespace mute::bench
