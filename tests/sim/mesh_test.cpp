// Tests for the N-relay mesh, run by run_device_simulation: its per-block
// RF streaming must be bit-identical to the whole-record RF streams the
// fleet profiles use (the RF chains are streaming-stateful, so block
// streaming is not an approximation), with spectrum supervision on the
// result must not depend on the control block size, and a channel-pinned
// jammer is dodged by hopping — recovering cancellation on the SAME relay,
// no handoff spent.
#include <cmath>
#include <cstddef>
#include <cstring>

#include <gtest/gtest.h>

#include "acoustics/environment.hpp"
#include "audio/generators.hpp"
#include "eval/metrics.hpp"
#include "sim/fleet.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace mute::sim {
namespace {

DeviceSimConfig two_relay_config() {
  DeviceSimConfig cfg;
  cfg.scene = acoustics::Scene::paper_office();
  cfg.relay_positions = {{2.0, 2.5, 1.5}, {2.2, 2.5, 1.5}};
  cfg.duration_s = 5.0;
  cfg.seed = 11;
  cfg.device.calibration_s = 1.0;
  cfg.device.selection_period_s = 0.5;
  cfg.device.hold_timeout_s = 0.3;
  cfg.device.lanc.fxlms.mu = 0.3;
  cfg.device.lanc.fxlms.leakage = 2e-4;
  return cfg;
}

double window_db(const SystemResult& r, double t0, double t1) {
  return eval::window_cancellation_db(r.disturbance, r.residual,
                                     r.sample_rate, t0, t1);
}

TEST(MeshSim, SupervisionOffIsBitIdenticalToTheDeviceSim) {
  // The device sim streams RF per control block through persistent links;
  // a single-tenant fleet replays prepare_device_streams' whole-record RF
  // pass. Same links, same samples: the residuals must match bit for bit.
  const DeviceSimConfig cfg = two_relay_config();

  audio::WhiteNoiseSource noise_a(0.1, 1011);
  const SystemResult device = run_device_simulation(noise_a, cfg);

  audio::WhiteNoiseSource noise_b(0.1, 1011);
  const FleetProfile profile = make_fleet_profile(noise_b, cfg);
  FleetConfig fc;
  fc.workers = 1;
  fc.max_tenants = 1;
  fc.arena_bytes = std::size_t{64} << 20;
  fc.ramp_s = 0.0;  // hard admit: gain == 1.0 from the first sample
  FleetRuntime fleet(fc);
  const std::uint64_t id =
      fleet.admit(fleet.add_profile(profile), cfg.device.seed,
                  /*capture_residual=*/true);
  fleet.run_blocks(profile.length() / fleet.block_samples() + 2);
  const Signal& whole_record = fleet.captured_residual(id);

  ASSERT_EQ(whole_record.size(), device.residual.size());
  EXPECT_EQ(std::memcmp(whole_record.data(), device.residual.data(),
                        device.residual.size() * sizeof(Sample)),
            0)
      << "per-block RF diverged from the whole-record RF streams";
  ASSERT_EQ(profile.streams.d.size(), device.disturbance.size());
  EXPECT_EQ(std::memcmp(profile.streams.d.data(), device.disturbance.data(),
                        device.disturbance.size() * sizeof(Sample)),
            0);
  const TenantStats tenant = fleet.stats(id);
  EXPECT_EQ(tenant.handoff_count, device.handoff_count);
  EXPECT_EQ(tenant.hold_count, device.device_hold_count);
  EXPECT_EQ(device.hop_count, 0u);
  EXPECT_EQ(device.tx_step_count, 0u);
}

TEST(MeshSim, ControlBlockSizeDoesNotChangeTheResult) {
  // Supervision ON but the scenario benign: the planner consults at every
  // control block yet never acts, so the residual must be invariant to
  // the block size — the streaming-stateful chain property, pinned.
  DeviceSimConfig mesh = two_relay_config();
  mesh.spectrum_supervision = true;
  mesh.control_block_s = 0.016;
  audio::WhiteNoiseSource noise_a(0.1, 1011);
  const SystemResult a = run_device_simulation(noise_a, mesh);
  EXPECT_EQ(a.hop_count, 0u) << "benign run must not hop";

  mesh.control_block_s = 0.064;
  audio::WhiteNoiseSource noise_b(0.1, 1011);
  const SystemResult b = run_device_simulation(noise_b, mesh);

  ASSERT_EQ(a.residual.size(), b.residual.size());
  for (std::size_t i = 0; i < a.residual.size(); ++i) {
    ASSERT_EQ(a.residual[i], b.residual[i])
        << "control block size leaked into the audio path at sample " << i;
  }
}

TEST(MeshSim, RelaysStartOnTheirHomeChannels) {
  DeviceSimConfig mesh = two_relay_config();
  mesh.spectrum_supervision = true;
  audio::WhiteNoiseSource noise(0.1, 1011);
  const SystemResult m = run_device_simulation(noise, mesh);
  ASSERT_EQ(m.final_channels.size(), 2u);
  // Benign run: the frequency-division assignment (relay k on channel k)
  // survives untouched, at nominal TX power.
  EXPECT_EQ(m.final_channels[0], 0u);
  EXPECT_EQ(m.final_channels[1], 1u);
  EXPECT_DOUBLE_EQ(m.final_tx_gain_db[0], 0.0);
  EXPECT_DOUBLE_EQ(m.final_tx_gain_db[1], 0.0);
}

TEST(MeshSim, HoppingDodgesAChannelPinnedJammerWithoutAHandoff) {
  // Acceptance (ISSUE tentpole, part 2): a jammer parked on the active
  // relay's home channel captures its FM receiver; the monitor flags it,
  // the planner hops the link to a clean channel, and cancellation
  // recovers on the SAME relay to within 3 dB of the pre-fault residual —
  // no handoff spent, the warm standby stays in reserve.
  constexpr double kFaultStart = 5.0;
  constexpr double kFaultLen = 3.0;
  constexpr double kDuration = 9.0;

  DeviceSimConfig mesh = two_relay_config();
  mesh.duration_s = kDuration;
  // Relay 0's home channel is 0 (the planner's frequency-division start).
  mesh.relay_faults = {make_fault_schedule(
      FaultScenario::kJammerBurst, kFaultStart, kFaultLen, /*channel=*/0)};
  // A hop resolves the fault in ~2 control rounds (~50 ms), far inside
  // the hold timeout; keep the shadow's fast handoff out of the race so
  // the test pins the hop path, not the failover path.
  mesh.device.hold_timeout_s = 1.0;
  mesh.device.enable_shadow = false;
  mesh.spectrum_supervision = true;

  audio::WhiteNoiseSource noise(0.1, 1011);
  const SystemResult r = run_device_simulation(noise, mesh);

  const double pre_db = window_db(r, kFaultStart - 1.5, kFaultStart - 0.1);
  EXPECT_LT(pre_db, -3.0) << "never converged; the scenario is vacuous";

  // The planner acted: relay 0 left its jammed home channel.
  EXPECT_GE(r.hop_count, 1u);
  EXPECT_NE(r.final_channels[0], 0u);

  // The fault was survived WITHOUT spending the standby.
  EXPECT_EQ(r.handoff_count, 0u)
      << "hopping should keep the association; the standby is for dead "
         "relays, not dirty channels";
  EXPECT_GE(r.device_hold_count, 1u) << "the jammer was never even noticed";

  // Cancellation recovers on the hopped channel while the jammer is still
  // transmitting, within 1 s of onset, and holds to the end of the run.
  double recover_s = -1.0;
  for (double t = kFaultStart; t + 0.25 <= kDuration; t += 0.05) {
    if (window_db(r, t, t + 0.25) <= pre_db + 3.0) {
      recover_s = t - kFaultStart;
      break;
    }
  }
  ASSERT_GE(recover_s, 0.0) << "cancellation never recovered after the hop";
  EXPECT_LE(recover_s, 1.0);
  EXPECT_LT(window_db(r, kDuration - 1.0, kDuration), pre_db + 3.0);

  // And the ear was never meaningfully louder than passive meanwhile.
  // +3 dB margin (NeverLouderAccountant::kLouderMarginDb): a jammer capture
  // feeds the filter demod garbage for the few ms of detection lag, a
  // transient a dropout does not have, so the +1 dB dropout bound is too
  // tight for the onset window.
  for (double t = 1.6; t + 0.25 <= kDuration; t += 0.25) {
    EXPECT_LT(window_db(r, t, t + 0.25), 3.0)
        << "louder than passive in window starting at t=" << t;
  }
}

TEST(MeshSim, SupervisionRequiresItsEvidenceSources) {
  DeviceSimConfig mesh = two_relay_config();
  mesh.spectrum_supervision = true;
  mesh.device.link_supervision = false;  // no monitor evidence
  audio::WhiteNoiseSource noise(0.1, 1011);
  EXPECT_THROW(run_device_simulation(noise, mesh), PreconditionError);

  mesh.device.link_supervision = true;
  mesh.use_rf_link = false;  // nothing to retune
  EXPECT_THROW(run_device_simulation(noise, mesh), PreconditionError);
}

}  // namespace
}  // namespace mute::sim
