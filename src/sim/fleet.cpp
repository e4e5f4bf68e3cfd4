#include "sim/fleet.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace mute::sim {

namespace {

FleetConfig validate(FleetConfig config) {
  ensure(config.max_tenants > 0, "fleet needs at least one tenant slot");
  ensure(config.block_samples > 0, "fleet block must be non-empty");
  ensure(config.arena_bytes > 0, "fleet arenas must be non-empty");
  ensure(config.ramp_s >= 0.0, "fleet ramp must be non-negative");
  return config;
}

}  // namespace

namespace {

// Splice the loop seam: when the cursor wraps from the stream tail to
// `loop_start`, a raw jump is a step discontinuity in every reference
// and in the disturbance. White-noise tenants shrug it off, but a filter
// adapted to a COLORED reference has unconstrained gain where the
// spectrum carries no energy, and the broadband step excites exactly
// that region — measured +77 dB post-wrap blowups on pink-noise
// profiles. Standard audio loop splicing fixes it at the source: pick
// the loop point `seam` samples into the loud region and crossfade the
// stream tail into the `seam` samples that precede it, so the wrap
// lands mid-crossfade with sample-continuous references. Applied to
// x[k] and d with the same window, so they stay coherent.
void splice_loop_seam(DeviceStreams& streams, std::size_t loop_start,
                      std::size_t seam) {
  const std::size_t len = streams.d.size();
  const auto blend = [&](Signal& s) {
    for (std::size_t i = 0; i < seam; ++i) {
      const double a = 0.5 - 0.5 * std::cos(M_PI * static_cast<double>(i + 1) /
                                            static_cast<double>(seam + 1));
      const std::size_t tail = len - seam + i;
      s[tail] = static_cast<Sample>((1.0 - a) * static_cast<double>(s[tail]) +
                                    a * static_cast<double>(
                                            s[loop_start - seam + i]));
    }
  };
  for (Signal& xr : streams.x) blend(xr);
  blend(streams.d);
}

}  // namespace

FleetProfile make_fleet_profile(audio::SoundSource& noise,
                                const DeviceSimConfig& config,
                                bool loop_steady_state) {
  FleetProfile profile;
  profile.streams = prepare_device_streams(noise, config);
  if (loop_steady_state) {
    const std::size_t quiet = profile.streams.quiet_samples;
    ensure(quiet < profile.length(),
           "fleet profile has no loud region to loop");
    // ~16 ms seam; degrade gracefully for very short loud regions.
    const std::size_t loud = profile.length() - quiet;
    const std::size_t seam = std::min<std::size_t>(
        static_cast<std::size_t>(profile.streams.sample_rate * 0.016),
        loud / 4);
    profile.loop_start = quiet + seam;
    if (seam > 0) {
      splice_loop_seam(profile.streams, profile.loop_start, seam);
    }
  }
  return profile;
}

FleetRuntime::FleetRuntime(FleetConfig config)
    : config_(validate(config)),
      arenas_(config_.arena_bytes, config_.max_tenants),
      pool_(config_.workers),
      tenants_(config_.max_tenants) {
  free_slots_.reserve(config_.max_tenants);
  // Reverse order so pop_back hands out slot 0 first (stable, readable
  // slot assignment in tests and soak logs).
  for (std::size_t s = config_.max_tenants; s-- > 0;) free_slots_.push_back(s);
}

FleetRuntime::~FleetRuntime() = default;

std::size_t FleetRuntime::add_profile(FleetProfile profile) {
  ensure(profile.length() > 0, "fleet profile has no samples");
  ensure(profile.streams.sample_rate > 0, "fleet profile has no sample rate");
  ensure(profile.loop_start == FleetProfile::kNoLoop ||
             profile.loop_start < profile.length(),
         "fleet profile loop point out of range");
  profiles_.push_back(std::move(profile));
  return profiles_.size() - 1;
}

const FleetProfile& FleetRuntime::profile(std::size_t id) const {
  ensure(id < profiles_.size(), "unknown fleet profile");
  return profiles_[id];
}

std::uint64_t FleetRuntime::admit(std::size_t profile_id, std::uint64_t seed,
                                  bool capture_residual) {
  ensure(profile_id < profiles_.size(), "admit on unknown fleet profile");
  ensure(!free_slots_.empty(), "fleet at capacity");
  const std::size_t slot = free_slots_.back();
  const FleetProfile& p = profiles_[profile_id];

  Tenant& t = tenants_[slot];
  t = Tenant{};
  {
    // Build inside the slot's arena, reclaiming the previous occupant's
    // bytes first (a constructor that throws leaves the slot free).
    MonotonicArena& arena = arenas_.arena(slot);
    arena.reset();
    ScopedArenaAlloc scope(arena);
    core::MuteDeviceConfig cfg = p.streams.device;
    cfg.seed = seed;
    t.session = std::make_unique<DeviceSession>(
        cfg, p.streams.hse_eff,
        static_cast<std::size_t>(config_.invariant_grace_s *
                                 p.streams.sample_rate));
  }
  t.session->ramp_in(ramp_samples(profile_id));
  free_slots_.pop_back();

  t.id = next_id_++;
  t.profile = profile_id;
  t.state = t.session->ramping() ? TenantState::kRampIn
                                 : TenantState::kRunning;
  t.capture = capture_residual;
  if (capture_residual) t.captured.assign(p.length(), 0.0f);

  live_.emplace(t.id, slot);
  return t.id;
}

void FleetRuntime::drain(std::uint64_t tenant_id) {
  const auto it = live_.find(tenant_id);
  ensure(it != live_.end(), "drain of unknown fleet tenant");
  Tenant& t = tenants_[it->second];
  if (t.state == TenantState::kDraining || t.state == TenantState::kDrained) {
    return;
  }
  t.session->fade_out(ramp_samples(t.profile));
  if (t.session->faded_out()) {
    // Already silent (never served, or no fade): nothing left to play.
    t.state = TenantState::kDrained;
    evict(it->second);
  } else {
    t.state = TenantState::kDraining;
  }
}

std::size_t FleetRuntime::ramp_samples(std::size_t profile_id) const {
  return static_cast<std::size_t>(config_.ramp_s *
                                  profiles_[profile_id].streams.sample_rate);
}

void FleetRuntime::run_blocks(std::size_t blocks) {
  for (std::size_t b = 0; b < blocks; ++b) {
    // Block boundary: evict the tenants that finished draining in the
    // previous block (on this thread, between pool barriers).
    for (std::size_t slot = 0; slot < tenants_.size(); ++slot) {
      if (tenants_[slot].state == TenantState::kDrained) evict(slot);
    }
    if (!live_.empty()) {
      pool_.run(tenants_.size(),
                [this](std::size_t slot) { process_slot(slot); });
    }
    ++blocks_processed_;
  }
}

void FleetRuntime::evict(std::size_t slot) {
  Tenant& t = tenants_[slot];
  completed_.push_back(snapshot(t, slot));
  if (t.capture) completed_residuals_[t.id] = std::move(t.captured);
  live_.erase(t.id);
  // Arena-backed objects die here; their operator delete is a no-op via
  // the region registry (or a real free when routing is compiled out).
  // The bytes are reclaimed when the slot's next tenant is admitted.
  t = Tenant{};
  free_slots_.push_back(slot);
}

void FleetRuntime::process_slot(std::size_t slot) {
  Tenant& t = tenants_[slot];
  if (t.session == nullptr || t.state == TenantState::kDrained) return;
  // Every allocation the tenant makes during its block — selection
  // rounds, handoffs, any amortized control event inside tick() — lands
  // in its arena; the guard counts whatever still escapes to the global
  // heap and steady_allocations() reports it (expected: zero).
  ScopedArenaAlloc scope(arenas_.arena(slot));
  RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "fleet/block");
  process_tenant_block(t);
  steady_allocs_.fetch_add(guard.allocations_since_entry(),
                           std::memory_order_relaxed);
}

void FleetRuntime::process_tenant_block(Tenant& t) {
  const FleetProfile& p = profiles_[t.profile];
  const std::size_t len = p.length();
  const std::span<const Sample> d(p.streams.d);
  DeviceSession& session = *t.session;

  // A loop wrap splits the block in two: the session steps contiguous
  // stream spans, so the wrap costs one check per span, not per sample.
  for (std::size_t left = config_.block_samples; left > 0;) {
    if (t.cursor >= len) {
      if (p.loop_start == FleetProfile::kNoLoop) {
        // End of a finite session: the tenant auto-drains and is evicted
        // at the next block boundary.
        t.state = TenantState::kDrained;
        return;
      }
      t.cursor = p.loop_start;
    }
    const std::size_t n = std::min(left, len - t.cursor);
    // Capture the first pass only: until the first wrap the cursor equals
    // the samples served.
    std::span<Sample> ear;
    if (t.capture && session.samples() < len) {
      ear = std::span<Sample>(t.captured).subspan(t.cursor, n);
    }
    const std::size_t used =
        session.step(p.streams.x, t.cursor, d.subspan(t.cursor, n), ear, {});
    t.cursor += used;
    left -= used;
    if (session.faded_out()) {
      t.state = TenantState::kDrained;
      return;
    }
  }
  if (t.state == TenantState::kRampIn && !session.ramping()) {
    t.state = TenantState::kRunning;
  }
}

TenantStats FleetRuntime::snapshot(const Tenant& t, std::size_t slot) const {
  TenantStats s;
  s.id = t.id;
  s.state = t.state;
  s.profile = t.profile;
  if (t.session != nullptr) {
    const NeverLouderAccountant& acc = t.session->accountant();
    s.samples = acc.samples();
    s.windows = acc.windows();
    s.worst_excess_db = acc.worst_excess_db();
    if (acc.windows() > 0) {
      s.worst_excess_t_s = static_cast<double>(acc.worst_window_end()) /
                           profiles_[t.profile].streams.sample_rate;
    }
    s.handoff_count = t.session->device().handoff_count();
    s.hold_count = t.session->device().hold_count();
  }
  const MonotonicArena& arena = arenas_.arena(slot);
  s.arena_used = arena.used();
  s.arena_high_water = arena.high_water();
  s.arena_allocations = arena.allocation_count();
  return s;
}

TenantStats FleetRuntime::stats(std::uint64_t tenant_id) const {
  const auto it = live_.find(tenant_id);
  if (it != live_.end()) return snapshot(tenants_[it->second], it->second);
  for (auto rit = completed_.rbegin(); rit != completed_.rend(); ++rit) {
    if (rit->id == tenant_id) return *rit;
  }
  throw PreconditionError("stats for unknown fleet tenant");
}

const Signal& FleetRuntime::captured_residual(std::uint64_t tenant_id) const {
  const auto it = live_.find(tenant_id);
  if (it != live_.end()) {
    const Tenant& t = tenants_[it->second];
    ensure(t.capture, "tenant was not admitted with capture_residual");
    return t.captured;
  }
  const auto cit = completed_residuals_.find(tenant_id);
  ensure(cit != completed_residuals_.end(),
         "no captured residual for fleet tenant");
  return cit->second;
}

}  // namespace mute::sim
