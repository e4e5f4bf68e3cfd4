#include "sim/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "audio/source.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace mute::sim {
namespace {

// Compact device-sim config shared by the fleet tests: short power-up
// calibration, modest taps, no RF chain (the equivalence claim is about
// the device/fleet loop, not the FM link).
DeviceSimConfig quick_cfg(double duration_s = 2.0) {
  DeviceSimConfig cfg;
  cfg.scene = acoustics::Scene::paper_office();
  cfg.duration_s = duration_s;
  cfg.seed = 7;
  cfg.use_rf_link = false;
  cfg.device.calibration_s = 0.25;
  cfg.device.selection_period_s = 0.5;
  cfg.device.secondary_taps = 96;
  cfg.device.lanc.fxlms.causal_taps = 128;
  return cfg;
}

FleetConfig quick_fleet(std::size_t workers, std::size_t max_tenants = 4) {
  FleetConfig fc;
  fc.workers = workers;
  fc.max_tenants = max_tenants;
  fc.arena_bytes = std::size_t{8} << 20;
  fc.ramp_s = 0.0;  // hard admit: gain == 1.0 from the first sample
  return fc;
}

std::size_t blocks_for(const FleetRuntime& fleet, std::size_t samples) {
  return (samples + fleet.block_samples() - 1) / fleet.block_samples() + 2;
}

Signal fleet_residual(std::size_t workers, const FleetProfile& profile,
                      std::uint64_t device_seed) {
  FleetRuntime fleet(quick_fleet(workers));
  const std::size_t pid = fleet.add_profile(profile);
  const std::uint64_t id = fleet.admit(pid, device_seed,
                                       /*capture_residual=*/true);
  fleet.run_blocks(blocks_for(fleet, profile.length()));
  // The finite-session tenant auto-drained and was evicted; the capture
  // survives eviction.
  EXPECT_EQ(fleet.live_tenants(), 0u);
  return fleet.captured_residual(id);
}

TEST(Fleet, SingleTenantIsBitIdenticalToRunDeviceSimulation) {
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 1011);
  const SystemResult ref = run_device_simulation(noise, cfg);

  const FleetProfile profile = make_fleet_profile(noise, cfg);
  const Signal got = fleet_residual(2, profile, cfg.device.seed);

  ASSERT_EQ(got.size(), ref.residual.size());
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < got.size(); ++t) {
    if (std::memcmp(&got[t], &ref.residual[t], sizeof(Sample)) != 0) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u)
      << "fleet tenant diverged from run_device_simulation";
}

// A churned multi-tenant fleet on two finite profiles: 6 tenants with
// distinct seeds, the default ramp, every residual captured, and one drain
// plus one admit mid-run. Runs until every tenant has finished its stream.
struct ChurnedRun {
  std::vector<Signal> captures;
  std::vector<TenantStats> stats;
};

ChurnedRun churned_fleet_run(std::size_t workers, const FleetProfile& a,
                             const FleetProfile& b) {
  FleetConfig fc = quick_fleet(workers, 8);
  fc.ramp_s = FleetConfig{}.ramp_s;
  FleetRuntime fleet(fc);
  const std::size_t pa = fleet.add_profile(a);
  const std::size_t pb = fleet.add_profile(b);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ids.push_back(fleet.admit(i % 2 == 0 ? pa : pb, 100 + i,
                              /*capture_residual=*/true));
  }
  fleet.run_blocks(40);  // past calibration: the drain fades live output
  fleet.drain(ids[1]);
  ids.push_back(fleet.admit(pb, 200, /*capture_residual=*/true));
  fleet.run_blocks(blocks_for(fleet, std::max(a.length(), b.length())));
  EXPECT_EQ(fleet.live_tenants(), 0u);

  ChurnedRun run;
  for (const std::uint64_t id : ids) {
    run.captures.push_back(fleet.captured_residual(id));
    run.stats.push_back(fleet.stats(id));
  }
  return run;
}

TEST(Fleet, OutputIsInvariantAcrossWorkerCounts) {
  // Tenants migrate between lanes from block to block; with one claim per
  // slot every multi-worker run spreads them over the helper threads, so
  // any cross-lane state leak or ordering dependence shows here.
  audio::WhiteNoiseSource noise_a(0.1, 1011);
  audio::WhiteNoiseSource noise_b(0.1, 2022);
  const FleetProfile a = make_fleet_profile(noise_a, quick_cfg(2.0));
  const FleetProfile b = make_fleet_profile(noise_b, quick_cfg(1.5));

  const ChurnedRun ref = churned_fleet_run(1, a, b);
  ASSERT_EQ(ref.stats.size(), 7u);
  EXPECT_LT(ref.stats[1].samples, b.length()) << "the drain cut tenant 1";
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const ChurnedRun run = churned_fleet_run(workers, a, b);
    ASSERT_EQ(run.stats.size(), ref.stats.size());
    for (std::size_t i = 0; i < ref.stats.size(); ++i) {
      SCOPED_TRACE(testing::Message()
                   << "workers " << workers << ", tenant " << i);
      const Signal& want = ref.captures[i];
      const Signal& got = run.captures[i];
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(Sample)),
                0)
          << "worker count changed the output (DESIGN.md §10 violated)";
      const TenantStats& s = run.stats[i];
      const TenantStats& r = ref.stats[i];
      EXPECT_EQ(s.samples, r.samples);
      EXPECT_EQ(s.windows, r.windows);
      EXPECT_EQ(s.worst_excess_db, r.worst_excess_db);
      EXPECT_EQ(s.hold_count, r.hold_count);
      EXPECT_EQ(s.handoff_count, r.handoff_count);
    }
  }
}

// One looped tenant served `blocks` blocks of `block_samples`; returns the
// fleet so callers can read the capture and the stats.
std::unique_ptr<FleetRuntime> looped_tenant_run(const FleetProfile& profile,
                                                std::size_t block_samples,
                                                std::size_t blocks,
                                                double ramp_s = 0.0) {
  FleetConfig fc = quick_fleet(1, 1);
  fc.block_samples = block_samples;
  fc.ramp_s = ramp_s;
  auto fleet = std::make_unique<FleetRuntime>(fc);
  fleet->admit(fleet->add_profile(profile), 5, /*capture_residual=*/true);
  fleet->run_blocks(blocks);
  return fleet;
}

TEST(Fleet, CaptureKeepsTheFirstPassAcrossALoopWrap) {
  // The capture is documented as the first pass of the stream: serving
  // half a pass more (the cursor wraps to loop_start) must not overwrite
  // it.
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 1011);
  const FleetProfile profile =
      make_fleet_profile(noise, cfg, /*loop_steady_state=*/true);
  constexpr std::size_t kBlock = 256;
  const std::size_t len = profile.length();
  ASSERT_EQ(len % kBlock, 0u) << "one pass must end on a block boundary";

  const auto one_pass = looped_tenant_run(profile, kBlock, len / kBlock);
  const auto one_and_a_half =
      looped_tenant_run(profile, kBlock, (3 * len / 2) / kBlock);
  EXPECT_GT(one_and_a_half->stats(1).samples, len);

  const Signal& a = one_pass->captured_residual(1);
  const Signal& b = one_and_a_half->captured_residual(1);
  ASSERT_EQ(a.size(), len);
  ASSERT_EQ(b.size(), len);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), len * sizeof(Sample)), 0)
      << "serving past the loop wrap rewrote the first-pass capture";
}

TEST(Fleet, OutputIsInvariantToBlockSizeAcrossALoopWrap) {
  // The tenant loop splits a block at the loop wrap; pin that the split
  // is invisible: blocks of 1, 256 and 2048 samples on a profile whose
  // length is a multiple of neither 256 nor 2048 (so the wrap lands
  // mid-block) give the same capture and the same never-louder stats,
  // which cover the span after the wrap.
  const DeviceSimConfig cfg = quick_cfg(2.01);
  audio::WhiteNoiseSource noise(0.1, 1011);
  const FleetProfile profile =
      make_fleet_profile(noise, cfg, /*loop_steady_state=*/true);
  const std::size_t len = profile.length();
  ASSERT_NE(len % 256, 0u);
  ASSERT_NE(len % 2048, 0u);
  constexpr std::size_t kServed = 2048 * 60;  // a multiple of every block
  ASSERT_GT(kServed, len);

  const auto ref = looped_tenant_run(profile, 1, kServed, 0.005);
  const TenantStats s_ref = ref->stats(1);
  EXPECT_EQ(s_ref.samples, kServed);
  EXPECT_GT(s_ref.windows, 0u);
  for (const std::size_t block : {std::size_t{256}, std::size_t{2048}}) {
    const auto run = looped_tenant_run(profile, block, kServed / block, 0.005);
    EXPECT_EQ(std::memcmp(run->captured_residual(1).data(),
                          ref->captured_residual(1).data(),
                          len * sizeof(Sample)),
              0)
        << "block " << block << " changed the residual";
    const TenantStats s = run->stats(1);
    EXPECT_EQ(s.samples, s_ref.samples) << "block " << block;
    EXPECT_EQ(s.windows, s_ref.windows) << "block " << block;
    EXPECT_EQ(s.worst_excess_db, s_ref.worst_excess_db) << "block " << block;
  }
}

TEST(Fleet, AdmitDrainChurnReusesSlotsAndKeepsStats) {
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 2022);
  FleetRuntime fleet(quick_fleet(2, 3));
  const std::size_t pid =
      fleet.add_profile(make_fleet_profile(noise, cfg,
                                           /*loop_steady_state=*/true));

  const std::uint64_t a = fleet.admit(pid, 1);
  const std::uint64_t b = fleet.admit(pid, 2);
  const std::uint64_t c = fleet.admit(pid, 3);
  EXPECT_EQ(fleet.live_tenants(), 3u);
  EXPECT_THROW(fleet.admit(pid, 4), PreconditionError);  // at capacity

  fleet.run_blocks(40);
  fleet.drain(b);
  fleet.run_blocks(4);  // fade + eviction boundary
  EXPECT_EQ(fleet.live_tenants(), 2u);
  EXPECT_FALSE(fleet.is_live(b));

  // The freed slot admits a replacement.
  const std::uint64_t d = fleet.admit(pid, 4);
  fleet.run_blocks(40);
  EXPECT_EQ(fleet.live_tenants(), 3u);

  // Stats survive eviction and stay queryable while live.
  const TenantStats sb = fleet.stats(b);
  EXPECT_EQ(sb.id, b);
  EXPECT_EQ(sb.state, TenantState::kDrained);
  EXPECT_GT(sb.samples, 0u);
  for (const std::uint64_t id : {a, c, d}) {
    const TenantStats s = fleet.stats(id);
    EXPECT_TRUE(fleet.is_live(id));
    EXPECT_GT(s.samples, 0u);
    EXPECT_GT(s.arena_high_water, 0u);
  }
  EXPECT_EQ(fleet.completed().size(), 1u);
  EXPECT_THROW(fleet.stats(9999), PreconditionError);
}

TEST(Fleet, DrainBeforeFirstBlockCancelsTheAdmit) {
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 2022);
  FleetRuntime fleet(quick_fleet(1, 2));
  const std::size_t pid = fleet.add_profile(make_fleet_profile(noise, cfg));
  const std::uint64_t id = fleet.admit(pid, 1);
  fleet.drain(id);
  EXPECT_EQ(fleet.live_tenants(), 0u);
  const TenantStats s = fleet.stats(id);
  EXPECT_EQ(s.samples, 0u);
  // The slot is free again and the fleet still runs.
  fleet.admit(pid, 2);
  fleet.run_blocks(4);
  EXPECT_EQ(fleet.live_tenants(), 1u);
}

TEST(Fleet, AdmitThatCannotBuildTheDeviceLeavesTheSlotFree) {
  // admit() builds the device at once; a constructor that throws must
  // leave the slot, and its arena, as if the admit never happened.
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 2022);
  const FleetProfile good = make_fleet_profile(noise, cfg);
  FleetProfile bad = good;
  bad.streams.device.lanc.engine = core::LancEngineKind::kFdBlock;

  const auto served_arena = [&](bool failed_admit_first) {
    FleetRuntime fleet(quick_fleet(1, 1));
    const std::size_t pbad = fleet.add_profile(bad);
    const std::size_t pgood = fleet.add_profile(good);
    if (failed_admit_first) {
      EXPECT_THROW(fleet.admit(pbad, 1), PreconditionError);
      EXPECT_EQ(fleet.live_tenants(), 0u);
    }
    const std::uint64_t id = fleet.admit(pgood, 2);
    fleet.run_blocks(4);
    return fleet.stats(id).arena_used;
  };
  EXPECT_EQ(served_arena(true), served_arena(false));
}

TEST(Fleet, SteadyStateIsAllocationCleanOnWorkerLanes) {
  if (!RtAllocationGuard::interposition_enabled()) {
    GTEST_SKIP() << "allocation interposition compiled out";
  }
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 303);
  FleetRuntime fleet(quick_fleet(2, 4));
  const std::size_t pid =
      fleet.add_profile(make_fleet_profile(noise, cfg,
                                           /*loop_steady_state=*/true));
  for (std::uint64_t s = 0; s < 4; ++s) fleet.admit(pid, s + 1);

  // Run through power-up calibration into steady state...
  fleet.run_blocks(64);
  // ...then hold the fleet to the RtAllocationGuard contract: every
  // allocation inside a tenant audio block must land in the tenant's
  // arena, so the global heap sees ZERO traffic from worker lanes — not
  // "a small fraction of ticks", zero (this is the property that removes
  // the allocator lock from the multi-core scaling path).
  const std::uint64_t heap_before = fleet.steady_allocations();
  // TickStaysAllocationLean-style leanness on the arena side: most blocks
  // must not allocate at all, arena or not (control events such as the
  // first association are the budgeted exception).
  std::size_t clean_blocks = 0;
  const std::size_t kBlocks = 128;
  auto arena_allocs = [&] {
    std::uint64_t total = 0;
    for (const auto id : {1, 2, 3, 4}) {
      total += fleet.stats(static_cast<std::uint64_t>(id)).arena_allocations;
    }
    return total;
  };
  std::uint64_t prev = arena_allocs();
  for (std::size_t b = 0; b < kBlocks; ++b) {
    fleet.run_blocks(1);
    const std::uint64_t now = arena_allocs();
    if (now == prev) ++clean_blocks;
    prev = now;
  }
  EXPECT_EQ(fleet.steady_allocations(), heap_before)
      << "a worker lane reached the global heap in steady state";
  EXPECT_GE(clean_blocks, (kBlocks * 9) / 10)
      << "fleet steady state allocates (even arena-side) too often";
}

TEST(Fleet, ArenaHighWaterIsFlatOverLongServing) {
  // A tenant's memory must be bounded for any serving time: once the
  // first selection round has run (and associated the relay), nothing a
  // long-lived tenant does — 120 more rounds here — may grow its arena.
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 505);
  FleetRuntime fleet(quick_fleet(1, 1));
  const std::size_t pid =
      fleet.add_profile(make_fleet_profile(noise, cfg,
                                           /*loop_steady_state=*/true));
  const std::uint64_t id = fleet.admit(pid, 1);
  const auto blocks_until = [&](double t_s) {
    const auto samples =
        static_cast<std::size_t>(t_s * cfg.scene.sample_rate);
    return (samples + fleet.block_samples() - 1) / fleet.block_samples();
  };
  // Calibration ends at 0.25 s; the first round lands 0.5 s later.
  const std::size_t first_round = blocks_until(
      cfg.device.calibration_s + cfg.device.selection_period_s) + 1;
  fleet.run_blocks(first_round);
  const std::size_t after_first_round = fleet.stats(id).arena_high_water;
  fleet.run_blocks(blocks_until(60.0) - first_round);
  const TenantStats s = fleet.stats(id);
  EXPECT_GE(s.samples,
            static_cast<std::uint64_t>(60.0 * cfg.scene.sample_rate));
  EXPECT_EQ(s.arena_high_water, after_first_round)
      << "tenant arena grew while serving";
  EXPECT_TRUE(fleet.is_live(id));
}

TEST(Fleet, SoakSmokeChurnWithFaultsKeepsEveryTenantNoLouder) {
  // Small-fleet soak: mixed profiles (one with a scripted relay dropout),
  // admit/drain churn, and the PR 2 invariant held per tenant — a dead
  // link must never leave any tenant's ear louder than passive (worst
  // disturbance-audible window within the soak margin).
  DeviceSimConfig benign = quick_cfg(2.0);
  DeviceSimConfig faulty = quick_cfg(2.0);
  faulty.use_rf_link = true;
  faulty.relay_positions = {{2.0, 2.5, 1.5}, {2.2, 2.5, 1.5}};
  faulty.relay_faults = {
      make_fault_schedule(FaultScenario::kRelayDropout, 1.0, 0.5)};
  faulty.device.hold_timeout_s = 0.3;

  audio::WhiteNoiseSource noise(0.1, 4044);
  FleetRuntime fleet(quick_fleet(2, 8));
  const std::size_t p0 =
      fleet.add_profile(make_fleet_profile(noise, benign, true));
  const std::size_t p1 =
      fleet.add_profile(make_fleet_profile(noise, faulty, true));

  std::vector<std::uint64_t> live;
  std::uint64_t seed = 1;
  for (std::size_t i = 0; i < 6; ++i) {
    live.push_back(fleet.admit(i % 2 == 0 ? p0 : p1, seed++));
  }
  // ~2.5 simulated seconds of churn: every 32 blocks drain the oldest and
  // admit a replacement on the other profile.
  for (std::size_t round = 0; round < 5; ++round) {
    fleet.run_blocks(32);
    fleet.drain(live.front());
    live.erase(live.begin());
    live.push_back(fleet.admit(round % 2 == 0 ? p1 : p0, seed++));
  }
  fleet.run_blocks(32);

  constexpr double kLouderMarginDb = 3.0;
  std::size_t checked = 0;
  const auto check = [&](const TenantStats& s) {
    if (s.windows == 0) return;  // evicted before any audible window
    ++checked;
    EXPECT_LE(s.worst_excess_db, kLouderMarginDb)
        << "tenant " << s.id << " louder than passive at t="
        << s.worst_excess_t_s << "s";
  };
  for (const TenantStats& s : fleet.completed()) check(s);
  for (const std::uint64_t id : live) check(fleet.stats(id));
  EXPECT_GT(checked, 0u);
}

TEST(FleetDeathTest, UndersizedArenaFailsLoudlyAtAdmission) {
  // Exhaustion inside the fleet is the arena's deterministic abort, not a
  // silent fallback: device construction overflows a tiny tenant arena.
  if (!ScopedArenaAlloc::routing_enabled()) {
    GTEST_SKIP() << "allocation interposition compiled out (construction "
                    "would fall back to the global heap, not the arena)";
  }
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 1011);
  const FleetProfile profile = make_fleet_profile(noise, cfg);
  EXPECT_DEATH(
      {
        FleetConfig fc;
        fc.workers = 1;  // no helper threads: fork-safe death test
        fc.max_tenants = 1;
        fc.arena_bytes = 1 << 12;
        FleetRuntime fleet(fc);
        const std::size_t pid = fleet.add_profile(profile);
        fleet.admit(pid, 1);
        fleet.run_blocks(1);
      },
      "monotonic arena exhausted");
}

}  // namespace
}  // namespace mute::sim
