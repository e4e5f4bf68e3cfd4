// Fleet serving benchmark harness: drives sim::FleetRuntime from outside
// through its public API and prints one JSON object of raw measurements
// on stdout. fleetbench/run.py turns them into the benchmark's metrics;
// README.md in this directory defines the workloads and every metric.
//
// Usage: fleetbench --workload NAME --seed N --seconds S --trace 0|1
//
// The timed region is a fixed number of blocks derived from --seconds and
// the workload's nominal block rate, so a run does the same work on every
// host and every commit: quality figures, arena use, peak memory and page
// faults repeat exactly for a seed, and a faster program finishes sooner.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audio/generators.hpp"
#include "common/contracts.hpp"
#include "core/lanc.hpp"
#include "core/link_monitor.hpp"
#include "core/mute_device.hpp"
#include "core/relay_select.hpp"
#include "core/shadow_filter.hpp"
#include "dsp/fir_filter.hpp"
#include "sim/fleet.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using mute::Sample;
using mute::Signal;
using mute::sim::FleetProfile;
using mute::sim::FleetRuntime;

// Two worker lanes: the caller thread plus one pool thread.
constexpr std::size_t kLanes = 2;
constexpr double kSelectionPeriodS = 0.5;
constexpr double kCalibrationS = 0.25;
// At least 10 timed blocks must fall beyond the 95th percentile.
constexpr std::size_t kMinTimedBlocks = 200;
constexpr std::size_t kSetupReps = 5;
// Arena sizing rule (README.md): a tenant's arena grows by about 1.1 MB
// per simulated second of serving (selection rounds are never reclaimed),
// so each arena holds a base plus 1.5 MiB per second of the longest
// session the run can create. Runs are never shortened to fit an arena.
constexpr double kArenaBaseMiB = 4.0;
constexpr double kArenaMiBPerS = 1.5;

enum class Source { kWhite, kBursty, kRfDropout, kPink };

struct Workload {
  const char* name;
  std::size_t tenants;
  std::size_t block;
  std::vector<Source> sources;
  // 0: long-lived tenants. Otherwise one drain and one admit every
  // `churn_every` blocks.
  std::size_t churn_every;
  // Timed blocks per requested second (measured on a 4-vCPU host).
  double nominal_blocks_per_s;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"serve-steady", 48, 2048, {Source::kWhite}, 0, 17.0},
      {"serve-lowlat", 32, 256, {Source::kWhite}, 0, 180.0},
      {"churn-mixed",
       48,
       256,
       {Source::kWhite, Source::kBursty, Source::kRfDropout, Source::kPink},
       4,
       120.0},
  };
  return all;
}

// Seed expansion: every input of a run comes from --seed through this.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long minflt = 0;
  long maxrss_kb = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_minflt, ru.ru_maxrss};
}

// Pins the process to the last kLanes CPUs it may use, before the worker
// pool exists, so its threads inherit the mask: each lane then owns one
// core, which is what makes devices_per_core a per-core figure, and the
// lanes do not share cores with run.py or with each other. Returns
// the CPUs, or nothing when there are fewer CPUs than lanes.
std::vector<int> pin_lanes() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.size() < kLanes) return {};
  cpus.erase(cpus.begin(), cpus.end() - static_cast<std::ptrdiff_t>(kLanes));
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return {};
  return cpus;
}

// Fixed shape of one run, derived from the workload and --seconds.
struct Plan {
  std::size_t timed_blocks = 0;
  std::size_t warmup_blocks = 0;
  double profile_s = 0.0;
  std::size_t arena_bytes = 0;
  double fs = mute::kDefaultSampleRate;
};

std::size_t blocks_for(double seconds, std::size_t block, double fs) {
  return static_cast<std::size_t>(
      std::ceil(seconds * fs / static_cast<double>(block)));
}

Plan make_plan(const Workload& w, double seconds) {
  Plan plan;
  plan.timed_blocks = std::max<std::size_t>(
      kMinTimedBlocks,
      static_cast<std::size_t>(std::llround(seconds * w.nominal_blocks_per_s)));
  // Staggered admission spans one selection period; every tenant then
  // needs its calibration (plus the 0.1 s quiet margin), one listening
  // period for the first selection, and a little slack.
  plan.warmup_blocks = blocks_for(
      kSelectionPeriodS + kCalibrationS + 0.1 + kSelectionPeriodS + 0.25,
      w.block, plan.fs);
  const std::size_t churn_life =
      w.churn_every == 0 ? plan.timed_blocks
                         : std::min(plan.timed_blocks,
                                    w.churn_every * (w.tenants + 1));
  const std::size_t max_life_blocks = plan.warmup_blocks + churn_life + 1;
  const double life_s = static_cast<double>(max_life_blocks * w.block) /
                        plan.fs;
  // The captured first pass of each stream must cover a whole session.
  plan.profile_s = life_s + 0.25;
  plan.arena_bytes = static_cast<std::size_t>(
      std::ceil(kArenaBaseMiB + kArenaMiBPerS * life_s)) << 20;
  return plan;
}

mute::sim::DeviceSimConfig profile_config(double duration_s,
                                          std::uint64_t seed) {
  mute::sim::DeviceSimConfig cfg;
  cfg.duration_s = duration_s;
  cfg.seed = seed;
  cfg.use_rf_link = false;
  cfg.device.calibration_s = kCalibrationS;
  cfg.device.selection_period_s = kSelectionPeriodS;
  cfg.device.secondary_taps = 96;
  cfg.device.lanc.fxlms.causal_taps = 128;
  return cfg;
}

// `rf_link` = false builds the RF profile's twin without the FM chain
// (traced runs time both to isolate the RF chain's set-up cost).
FleetProfile build_profile(Source source, double duration_s,
                           std::uint64_t seed, bool rf_link = true) {
  mute::sim::DeviceSimConfig cfg = profile_config(duration_s, seed);
  const auto noise_seed = seed ^ 0x5EEDULL;
  switch (source) {
    case Source::kWhite: {
      mute::audio::WhiteNoiseSource noise(0.1, noise_seed);
      return mute::sim::make_fleet_profile(noise, cfg, true);
    }
    case Source::kBursty: {
      // Short bursts: every session on a profile hears the same stream,
      // so each session's scored span must hold several bursts for the
      // profile's cancellation not to hinge on one random layout.
      mute::audio::IntermittentSource noise(
          std::make_unique<mute::audio::WhiteNoiseSource>(0.12, noise_seed),
          mute::kDefaultSampleRate, 0.15, 0.35, 0.05, 0.15, noise_seed + 1);
      return mute::sim::make_fleet_profile(noise, cfg, true);
    }
    case Source::kRfDropout: {
      // Two relays over RF; relay 0 loses power 2 s into every session,
      // after the first selection and inside the scored span, so holds,
      // handoffs and the shadow filter all run.
      cfg.use_rf_link = rf_link;
      cfg.relay_positions = {{2.0, 2.5, 1.5}, {2.2, 2.5, 1.5}};
      cfg.relay_faults = {mute::sim::make_fault_schedule(
          mute::sim::FaultScenario::kRelayDropout, 2.0, 0.5)};
      cfg.device.hold_timeout_s = 0.3;
      mute::audio::WhiteNoiseSource noise(0.1, noise_seed);
      return mute::sim::make_fleet_profile(noise, cfg, true);
    }
    case Source::kPink: {
      mute::audio::PinkNoiseSource noise(0.1, noise_seed);
      return mute::sim::make_fleet_profile(noise, cfg, true);
    }
  }
  throw std::logic_error("unknown source");
}

struct Session {
  std::uint64_t id = 0;
  std::size_t profile = 0;
  std::uint64_t device_seed = 0;
  bool admitted_in_timed = false;
  std::uint64_t samples_at_timed_start = 0;
  bool drained = false;
  std::uint64_t samples_at_drain = 0;  // served before the drain fade
};

// One set-up instance: profiles, runtime, sessions, warmed up.
struct Instance {
  std::vector<std::uint64_t> profile_seeds;
  std::vector<double> profile_build_s;
  std::unique_ptr<FleetRuntime> fleet;
  mute::sim::FleetConfig config;
  std::vector<Session> sessions;
  std::deque<std::size_t> live;  // session indices, admission order
  std::vector<std::size_t> deal;  // profiles left in the current round
  SplitMix rng{0};
  double setup_s = 0.0;
};

// Admits one tenant with its own device seed. Profiles are dealt in seeded
// rounds: any run of profile_count() consecutive admissions holds each
// profile once, so the live mix stays balanced and no profile's share of
// the sessions depends on the seed.
std::size_t admit(Instance& in) {
  if (in.deal.empty()) {
    const std::size_t n = in.fleet->profile_count();
    for (std::size_t p = 0; p < n; ++p) in.deal.push_back(p);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(in.deal[i - 1], in.deal[in.rng.below(i)]);
    }
  }
  Session s;
  s.profile = in.deal.back();
  in.deal.pop_back();
  s.device_seed = in.rng.next();
  s.id = in.fleet->admit(s.profile, s.device_seed, /*capture_residual=*/true);
  in.sessions.push_back(s);
  in.live.push_back(in.sessions.size() - 1);
  return in.sessions.size() - 1;
}

std::unique_ptr<Instance> set_up(const Workload& w, const Plan& plan,
                                 std::uint64_t seed) {
  const auto t0 = Clock::now();
  auto in = std::make_unique<Instance>();
  in->rng = SplitMix{seed};
  std::vector<FleetProfile> profiles;
  for (const Source src : w.sources) {
    in->profile_seeds.push_back(in->rng.next());
    const auto tb = Clock::now();
    profiles.push_back(
        build_profile(src, plan.profile_s, in->profile_seeds.back()));
    in->profile_build_s.push_back(seconds_since(tb));
  }
  in->config.workers = kLanes;
  in->config.max_tenants = w.tenants + (w.churn_every > 0 ? 4 : 0);
  in->config.arena_bytes = plan.arena_bytes;
  in->config.block_samples = w.block;
  in->fleet = std::make_unique<FleetRuntime>(in->config);
  for (FleetProfile& p : profiles) in->fleet->add_profile(std::move(p));

  // Staggered admission across one selection period: tenant i arrives at
  // (i + phase) / tenants of the period, the seeded phase shared by all.
  // Even spacing spreads selection rounds over the blocks like independent
  // users' (admitting everyone in one block made every round fire in the
  // same block); a per-tenant seeded jitter instead made the number of
  // colliding rounds, and so block_p50_ms, depend on the seed.
  const double period_blocks =
      kSelectionPeriodS * plan.fs / static_cast<double>(w.block);
  const double phase = in->rng.uniform();
  std::vector<std::size_t> arrival(w.tenants);
  for (std::size_t i = 0; i < w.tenants; ++i) {
    arrival[i] = static_cast<std::size_t>(
        (static_cast<double>(i) + phase) * period_blocks /
        static_cast<double>(w.tenants));
  }
  std::size_t next = 0;
  for (std::size_t b = 0; b < plan.warmup_blocks; ++b) {
    while (next < w.tenants && arrival[next] == b) {
      admit(*in);
      ++next;
    }
    in->fleet->run_blocks(1);
  }
  if (next != w.tenants) throw std::logic_error("stagger exceeds warm-up");
  in->setup_s = seconds_since(t0);
  return in;
}

struct PassResult {
  std::vector<double> block_s;
  std::vector<int> control;  // 1: the block right after an admit/drain
  double wall_s = 0.0;
  Usage before, after;
  double device_samples = 0.0;
  std::vector<double> profile_samples;
  std::uint64_t heap_allocs = 0;
  // Traced passes only: (simulated seconds, mean arena MB over live
  // tenants) sampled through the timed region.
  std::vector<std::pair<double, double>> arena_samples;
};

std::uint64_t served(const FleetRuntime& fleet, const Session& s) {
  return fleet.stats(s.id).samples;
}

PassResult run_timed(Instance& in, const Workload& w, const Plan& plan,
                     bool traced) {
  FleetRuntime& fleet = *in.fleet;
  PassResult r;
  for (const std::size_t idx : in.live) {
    in.sessions[idx].samples_at_timed_start = served(fleet, in.sessions[idx]);
  }
  const std::size_t first_timed_session = in.sessions.size();
  const std::size_t arena_every =
      std::max<std::size_t>(1, plan.timed_blocks / 16);
  const auto sample_arena = [&](std::size_t b) {
    double used = 0.0;
    for (const std::size_t idx : in.live) {
      used += static_cast<double>(fleet.stats(in.sessions[idx].id).arena_used);
    }
    const double mean_mb =
        used / static_cast<double>(std::max<std::size_t>(1, in.live.size())) /
        1048576.0;
    const double sim_s = static_cast<double>(b * w.block) / plan.fs;
    r.arena_samples.emplace_back(sim_s, mean_mb);
  };

  r.block_s.reserve(plan.timed_blocks);
  r.control.reserve(plan.timed_blocks);
  const std::uint64_t heap0 = fleet.steady_allocations();
  r.before = usage_now();
  const auto t0 = Clock::now();
  for (std::size_t b = 0; b < plan.timed_blocks; ++b) {
    if (traced && b % arena_every == 0) sample_arena(b);
    int control = 0;
    if (w.churn_every > 0 && b % w.churn_every == 0) {
      Session& old = in.sessions[in.live.front()];
      in.live.pop_front();
      old.drained = true;
      old.samples_at_drain = served(fleet, old);
      fleet.drain(old.id);
      in.sessions[admit(in)].admitted_in_timed = true;
      control = 1;
    }
    const auto tb = Clock::now();
    fleet.run_blocks(1);
    r.block_s.push_back(seconds_since(tb));
    r.control.push_back(control);
  }
  r.wall_s = seconds_since(t0);
  r.after = usage_now();
  if (traced) sample_arena(plan.timed_blocks);
  r.heap_allocs = fleet.steady_allocations() - heap0;

  r.profile_samples.assign(fleet.profile_count(), 0.0);
  for (std::size_t i = 0; i < in.sessions.size(); ++i) {
    const Session& s = in.sessions[i];
    const std::uint64_t start =
        i < first_timed_session ? s.samples_at_timed_start : 0;
    const double n = static_cast<double>(served(fleet, s) - start);
    r.profile_samples[s.profile] += n;
    r.device_samples += n;
  }
  return r;
}

// --- Quality ---------------------------------------------------------------

struct Quality {
  std::size_t windows = 0;
  double worst_excess_db = 0.0;
  double dist_energy = 0.0;  // over served loud samples after the grace
  double res_energy = 0.0;
  std::size_t holds = 0;
  std::size_t handoffs = 0;
  std::size_t arena_high_water = 0;
};

std::vector<Quality> score_sessions(const Instance& in) {
  const FleetRuntime& fleet = *in.fleet;
  std::vector<Quality> out;
  out.reserve(in.sessions.size());
  for (const Session& s : in.sessions) {
    const mute::sim::TenantStats st = fleet.stats(s.id);
    const FleetProfile& p = fleet.profile(s.profile);
    const std::uint64_t end = s.drained ? s.samples_at_drain : st.samples;
    if (st.samples > p.length()) {
      throw std::logic_error("session outlived its captured first pass");
    }
    const Signal& res = fleet.captured_residual(s.id);
    const auto grace = static_cast<std::size_t>(
        in.config.invariant_grace_s * p.streams.sample_rate);
    Quality q;
    q.windows = st.windows;
    q.worst_excess_db = st.worst_excess_db;
    q.holds = st.hold_count;
    q.handoffs = st.handoff_count;
    q.arena_high_water = st.arena_high_water;
    const std::size_t from = std::max(grace, p.streams.quiet_samples);
    for (std::size_t n = from; n < end; ++n) {
      const double d = static_cast<double>(p.streams.d[n]);
      const double e = static_cast<double>(res[n]);
      q.dist_energy += d * d;
      q.res_energy += e * e;
    }
    out.push_back(q);
  }
  return out;
}

// --- Single-thread replay and the per-layer ledger ------------------------

// The span of one session the fleet served in the timed region, replayed
// on the caller thread with nothing else running.
struct Span {
  std::size_t session = 0;
  std::size_t begin = 0;  // first timed sample
  std::size_t end = 0;    // replay/compare horizon (before any drain fade)
  bool construct_in_span = false;
};

Span pick_span(const Instance& in, std::size_t profile) {
  // Prefer a whole session inside the timed region (churn); otherwise the
  // session the region served longest, timed from the region's start.
  std::optional<Span> whole, longest;
  for (std::size_t i = 0; i < in.sessions.size(); ++i) {
    const Session& s = in.sessions[i];
    if (s.profile != profile) continue;
    Span span;
    span.session = i;
    span.construct_in_span = s.admitted_in_timed;
    span.begin = s.admitted_in_timed ? 0 : s.samples_at_timed_start;
    span.end = s.drained ? s.samples_at_drain : served(*in.fleet, s);
    if (!whole && s.admitted_in_timed && s.drained) whole = span;
    if (!longest || span.end - span.begin > longest->end - longest->begin) {
      longest = span;
    }
  }
  if (!longest || longest->end == longest->begin) {
    throw std::logic_error("a profile has no session in the timed region");
  }
  return whole.value_or(*longest);
}

struct Replay {
  Signal e, y;  // device inputs/outputs of the closed loop
  std::size_t cal_end = 0, run_start = 0;  // to within kStatePoll samples
  double loop_s = 0.0;  // timed part of the closed loop (+ construction)
  double construct_s = 0.0;
  bool identical = true;
  std::unique_ptr<mute::core::MuteDevice> device;
};

// Device state is polled once per this many samples, off the sample path.
constexpr std::size_t kStatePoll = 64;

template <class F>
double timed_loop(std::size_t a, std::size_t b, F&& f) {
  if (a >= b) return 0.0;
  const auto t0 = Clock::now();
  for (std::size_t n = a; n < b; ++n) f(n);
  return seconds_since(t0);
}

// Mirrors FleetRuntime::process_tenant_block for one tenant from its
// admission: the residual must match the fleet's capture bit for bit.
Replay replay_closed_loop(const Instance& in, const Span& span) {
  const Session& s = in.sessions[span.session];
  const auto& st = in.fleet->profile(s.profile).streams;
  Replay r;
  r.y.assign(span.end, 0.0f);
  Signal at_ear(span.end, 0.0f);

  const auto tc = Clock::now();
  mute::core::MuteDeviceConfig cfg = st.device;
  cfg.seed = s.device_seed;
  r.device = std::make_unique<mute::core::MuteDevice>(cfg);
  mute::dsp::FirFilter hse(st.hse_eff);
  r.construct_s = seconds_since(tc);

  Signal feed(st.x.size(), 0.0f);
  const auto ramp =
      static_cast<std::size_t>(in.config.ramp_s * st.sample_rate);
  double gain = ramp > 0 ? 0.0 : 1.0;
  const double step = ramp > 0 ? 1.0 / static_cast<double>(ramp) : 0.0;
  bool ramping = ramp > 0;
  Sample error = 0.0f;
  const auto body = [&](std::size_t n) {
    for (std::size_t k = 0; k < feed.size(); ++k) feed[k] = st.x[k][n];
    const Sample y = r.device->tick(feed, error);
    r.y[n] = y;
    const Sample anti = hse.process(y);
    error = static_cast<Sample>(static_cast<double>(st.d[n]) +
                                gain * static_cast<double>(anti));
    at_ear[n] = error;
    if (ramping) {
      gain += step;
      if (gain >= 1.0) {
        gain = 1.0;
        ramping = false;
      }
    }
  };
  r.cal_end = r.run_start = span.end;
  const auto run = [&](std::size_t a, std::size_t b) {
    for (std::size_t n = a; n < b;) {
      const std::size_t stop = std::min(b, n + kStatePoll);
      for (; n < stop; ++n) body(n);
      const auto state = r.device->state();
      if (r.cal_end == span.end &&
          state != mute::core::MuteDevice::State::kCalibrating) {
        r.cal_end = n;
      }
      if (r.run_start == span.end &&
          state == mute::core::MuteDevice::State::kRunning) {
        r.run_start = n;
      }
    }
  };
  run(0, span.begin);
  const auto t0 = Clock::now();
  run(span.begin, span.end);
  r.loop_s =
      seconds_since(t0) + (span.construct_in_span ? r.construct_s : 0.0);

  const Signal& captured = in.fleet->captured_residual(s.id);
  r.identical = std::memcmp(at_ear.data(), captured.data(),
                            span.end * sizeof(Sample)) == 0;
  // The device consumed the previous sample's ear field as its error.
  r.e.assign(span.end, 0.0f);
  std::copy(at_ear.begin(), at_ear.end() - 1, r.e.begin() + 1);
  return r;
}

struct LedgerEntry {
  std::size_t profile = 0;
  double span_samples = 0.0;
  double replay_s = 0.0;
  double tick_s = 0.0;
  double fir_s = 0.0;
  double selection_s = 0.0;
  double round_s = 0.0;
  std::size_t rounds = 0;
  double monitor_s = 0.0;
  double lanc_s = 0.0;
  double shadow_s = 0.0;
  double construct_ms = 0.0;
  double calibration_ms = 0.0;
  bool construct_in_span = false;
  bool calibration_in_span = false;
  bool identical = true;
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Each layer's public entry point, called on the replayed session's own
// streams over the same span; every time is charged to the span.
LedgerEntry measure_layers(const Instance& in, std::size_t profile) {
  const Span span = pick_span(in, profile);
  const Session& s = in.sessions[span.session];
  const auto& st = in.fleet->profile(profile).streams;
  const double fs = st.sample_rate;
  Replay r = replay_closed_loop(in, span);

  LedgerEntry L;
  L.profile = profile;
  L.span_samples = static_cast<double>(span.end - span.begin);
  L.replay_s = r.loop_s;
  L.construct_in_span = span.construct_in_span;
  L.calibration_in_span = span.begin < r.cal_end;
  L.identical = r.identical;

  mute::core::MuteDeviceConfig cfg = st.device;
  cfg.seed = s.device_seed;
  const std::size_t relays = st.x.size();
  Signal feed(relays, 0.0f);
  const auto in_span = [&](std::size_t a, std::size_t b, auto&& f) {
    // Runs [a, b), timing only the part inside the span.
    const std::size_t lo = std::clamp(span.begin, a, b);
    timed_loop(a, lo, f);
    return timed_loop(lo, b, f);
  };

  // MuteDevice::tick open loop on the recorded error: the same work as
  // the closed loop without the plant (its outputs must match).
  {
    mute::core::MuteDevice dev(cfg);
    bool same = true;
    const auto tick = [&](std::size_t n) {
      for (std::size_t k = 0; k < relays; ++k) feed[k] = st.x[k][n];
      const Sample y = dev.tick(feed, r.e[n]);
      same &= std::bit_cast<std::uint32_t>(y) ==
              std::bit_cast<std::uint32_t>(r.y[n]);
    };
    const double cal = timed_loop(0, r.cal_end, tick);
    L.calibration_ms = cal * 1e3;
    L.tick_s = in_span(r.cal_end, span.end, tick) +
               (L.calibration_in_span ? cal : 0.0);
    L.identical &= same;
  }
  // Plant FIR on hse_eff over the recorded speaker feed.
  {
    mute::dsp::FirFilter fir(st.hse_eff);
    L.fir_s = in_span(0, span.end, [&](std::size_t n) { fir.process(r.y[n]); });
  }
  // Relay selection: capture every sample, a GCC-PHAT round per period.
  {
    mute::core::RelaySelector sel(relays, fs, cfg.selection_period_s,
                                  cfg.selection);
    const auto period =
        static_cast<std::size_t>(cfg.selection_period_s * fs);
    const auto push = [&](std::size_t n) {
      for (std::size_t k = 0; k < relays; ++k) feed[k] = st.x[k][n];
      return sel.push(feed, r.e[n]).has_value();
    };
    std::size_t n = r.cal_end;
    while (n < span.end) {
      const std::size_t round_at =
          std::min(span.end, n + (period - (n - r.cal_end) % period) - 1);
      L.selection_s += in_span(n, round_at, [&](std::size_t i) { push(i); });
      if (round_at == span.end) break;
      const auto t0 = Clock::now();
      const bool round = push(round_at);
      const double dt = seconds_since(t0);
      if (!round) throw std::logic_error("selection round misaligned");
      if (round_at >= span.begin) {
        L.selection_s += dt;
        L.round_s += dt;
        ++L.rounds;
      }
      n = round_at + 1;
    }
  }
  // Link monitors, one per relay, over every tick.
  if (cfg.link_supervision) {
    std::vector<mute::core::LinkMonitor> monitors(
        relays, mute::core::LinkMonitor(cfg.link_monitor, fs));
    L.monitor_s = in_span(0, span.end, [&](std::size_t n) {
      for (std::size_t k = 0; k < relays; ++k) monitors[k].process(st.x[k][n]);
    });
  }
  // LANC engine, configured as MuteDevice::associate does, from the
  // replayed device's calibration and lookahead.
  const mute::core::MuteDevice& dev = *r.device;
  if (dev.active_relay().has_value() && r.run_start < span.end) {
    mute::core::LancOptions opts = cfg.lanc;
    opts.sample_rate = fs;
    if (opts.fxlms.weight_norm_limit <= 0.0) {
      opts.fxlms.weight_norm_limit = cfg.weight_norm_limit;
    }
    if (cfg.link_supervision && opts.fxlms.min_excitation <= 0.0) {
      opts.fxlms.min_excitation = 1e-5;
    }
    opts.fxlms.noncausal_taps = dev.noncausal_taps();
    mute::core::LancController lanc(dev.calibration().impulse_response,
                                    opts);
    const std::size_t relay = *dev.active_relay();
    L.lanc_s = in_span(r.run_start, span.end, [&](std::size_t n) {
      lanc.observe_error(r.e[n]);
      lanc.tick(st.x[relay][n]);
    });
    // Shadow pre-convergence on the standby relay (multi-relay only).
    if (relays > 1 && cfg.enable_shadow) {
      mute::core::ShadowFilter shadow(opts.fxlms, cfg.shadow);
      const std::size_t standby = (relay + 1) % relays;
      shadow.assign(standby, dev.noncausal_taps(),
                    dev.measured_lookahead_s());
      L.shadow_s = in_span(r.run_start, span.end, [&](std::size_t n) {
        shadow.observe(st.x[standby][n], r.y[n]);
      });
    }
  }
  // Construction of the arena-backed tenant objects.
  {
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      auto d = std::make_unique<mute::core::MuteDevice>(cfg);
      auto f = std::make_unique<mute::dsp::FirFilter>(st.hse_eff);
      ms.push_back(seconds_since(t0) * 1e3);
    }
    L.construct_ms = median_of(ms);
  }
  return L;
}

// --- JSON output -------------------------------------------------------------

class Json {
 public:
  Json() { out_.precision(17); }
  Json& key(const char* k) {
    sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    if (std::isfinite(v)) {
      out_ << v;
    } else {
      out_ << "null";
    }
    return *this;
  }
  Json& num(std::uint64_t v) {
    sep();
    out_ << v;
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    out_ << '"' << v << '"';
    return *this;
  }
  Json& open(char c) {
    sep();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  Json& nums(const std::vector<double>& v) {
    open('[');
    for (const double x : v) num(x);
    return close(']');
  }
  std::string text() const { return out_.str(); }

 private:
  void sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

void write_pass(Json& j, const char* name, const PassResult& r) {
  j.key(name).open('{');
  j.key("block_s").nums(r.block_s);
  std::vector<double> control(r.control.begin(), r.control.end());
  j.key("control").nums(control);
  j.key("wall_s").num(r.wall_s);
  j.key("cpu_user_s").num(r.after.user_s - r.before.user_s);
  j.key("cpu_sys_s").num(r.after.sys_s - r.before.sys_s);
  j.key("minflt").num(
      static_cast<std::uint64_t>(r.after.minflt - r.before.minflt));
  j.key("device_samples").num(r.device_samples);
  j.key("profile_samples").nums(r.profile_samples);
  j.key("heap_allocs").num(r.heap_allocs);
  j.key("arena_samples").open('[');
  for (const auto& [t, mb] : r.arena_samples) {
    j.open('[').num(t).num(mb).close(']');
  }
  j.close(']');
  j.close('}');
}

void write_quality(Json& j, const std::vector<Quality>& qs) {
  j.key("sessions").open('[');
  for (const Quality& q : qs) {
    j.open('{');
    j.key("windows").num(static_cast<std::uint64_t>(q.windows));
    j.key("worst_excess_db").num(q.worst_excess_db);
    j.key("dist_energy").num(q.dist_energy);
    j.key("res_energy").num(q.res_energy);
    j.key("holds").num(static_cast<std::uint64_t>(q.holds));
    j.key("handoffs").num(static_cast<std::uint64_t>(q.handoffs));
    j.key("arena_high_water")
        .num(static_cast<std::uint64_t>(q.arena_high_water));
    j.close('}');
  }
  j.close(']');
}

void write_ledger(Json& j, const std::vector<LedgerEntry>& ledger) {
  j.key("ledger").open('[');
  for (const LedgerEntry& L : ledger) {
    j.open('{');
    j.key("profile").num(static_cast<std::uint64_t>(L.profile));
    j.key("span_samples").num(L.span_samples);
    j.key("replay_s").num(L.replay_s);
    j.key("tick_s").num(L.tick_s);
    j.key("fir_s").num(L.fir_s);
    j.key("selection_s").num(L.selection_s);
    j.key("round_s").num(L.round_s);
    j.key("rounds").num(static_cast<std::uint64_t>(L.rounds));
    j.key("monitor_s").num(L.monitor_s);
    j.key("lanc_s").num(L.lanc_s);
    j.key("shadow_s").num(L.shadow_s);
    j.key("construct_ms").num(L.construct_ms);
    j.key("calibration_ms").num(L.calibration_ms);
    j.key("construct_in_span").boolean(L.construct_in_span);
    j.key("calibration_in_span").boolean(L.calibration_in_span);
    j.close('}');
  }
  j.close(']');
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace is 0 or 1");
      }
      a.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return a;
}

int run(const Args& args) {
  const std::string build_type = FLEETBENCH_BUILD_TYPE;
  const std::string sanitize = FLEETBENCH_SANITIZE;
  if (build_type == "Debug" || build_type.empty() || !sanitize.empty()) {
    std::fprintf(stderr,
                 "fleetbench: refusing to time a '%s' build (sanitize '%s'); "
                 "use Release or RelWithDebInfo\n",
                 build_type.c_str(), sanitize.c_str());
    return 3;
  }
  const Workload* found = nullptr;
  for (const Workload& w : workloads()) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  const Workload& w = *found;
  const Plan plan = make_plan(w, args.seconds);
  const std::vector<int> pinned = pin_lanes();

  Json j;
  j.open('{');
  j.key("workload").str(w.name);
  j.key("seed").num(args.seed);
  j.key("build_type").str(build_type);
  j.key("lanes").num(static_cast<std::uint64_t>(kLanes));
  j.key("nproc").num(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.key("pinned_cpus").open('[');
  for (const int c : pinned) j.num(static_cast<std::uint64_t>(c));
  j.close(']');
  j.key("heap_tracked")
      .boolean(mute::RtAllocationGuard::interposition_enabled());
  j.key("tenants").num(static_cast<std::uint64_t>(w.tenants));
  j.key("block_samples").num(static_cast<std::uint64_t>(w.block));
  j.key("sample_rate").num(plan.fs);
  j.key("timed_blocks").num(static_cast<std::uint64_t>(plan.timed_blocks));
  j.key("warmup_blocks").num(static_cast<std::uint64_t>(plan.warmup_blocks));
  j.key("profile_s").num(plan.profile_s);
  j.key("arena_mb").num(static_cast<double>(plan.arena_bytes) / 1048576.0);

  // Untraced: set up several times (the median is setup_s), keep the last.
  std::vector<double> setups;
  std::unique_ptr<Instance> in;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    in.reset();
    in = set_up(w, plan, args.seed);
    setups.push_back(in->setup_s);
  }
  j.key("setup_s").nums(setups);
  j.key("profile_build_s").nums(in->profile_build_s);
  const PassResult untraced = run_timed(*in, w, plan, false);
  write_pass(j, "untraced", untraced);
  write_quality(j, score_sessions(*in));
  if (!args.trace) {
    // Output check: one session per profile replayed single-threaded must
    // reproduce the fleet's residual bit for bit.
    bool identical = true;
    for (std::size_t p = 0; p < in->fleet->profile_count(); ++p) {
      identical &= replay_closed_loop(*in, pick_span(*in, p)).identical;
    }
    j.key("replay_identical").boolean(identical);
  }
  j.key("peak_rss_kb")
      .num(static_cast<std::uint64_t>(usage_now().maxrss_kb));

  if (args.trace) {
    in.reset();
    in = set_up(w, plan, args.seed);
    const PassResult traced = run_timed(*in, w, plan, true);
    write_pass(j, "traced", traced);
    std::vector<LedgerEntry> ledger;
    bool identical = true;
    for (std::size_t p = 0; p < in->fleet->profile_count(); ++p) {
      ledger.push_back(measure_layers(*in, p));
      identical &= ledger.back().identical;
    }
    j.key("replay_identical").boolean(identical);
    write_ledger(j, ledger);
    // RF chain set-up cost: the RF profile against its no-RF twin.
    double rf_chain_s = 0.0;
    for (std::size_t p = 0; p < w.sources.size(); ++p) {
      if (w.sources[p] != Source::kRfDropout) continue;
      const auto t0 = Clock::now();
      build_profile(w.sources[p], plan.profile_s, in->profile_seeds[p], false);
      rf_chain_s += in->profile_build_s[p] - seconds_since(t0);
    }
    j.key("rf_chain_s").num(rf_chain_s);
  }
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
}
