// End-to-end tests of the streaming MuteDevice: lifecycle state machine,
// calibration quality, relay selection and live cancellation, driven
// against a physically synthesized world (channels from the image-source
// room model).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "acoustics/environment.hpp"
#include "audio/generators.hpp"
#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "core/mute_device.hpp"
#include "dsp/fir_filter.hpp"
#include "dsp/signal_ops.hpp"

namespace mute::core {
namespace {

constexpr double kFs = 16000.0;

/// A miniature physical world for the device: one ambient source, K relay
/// microphones, one error mic, one speaker, all synthetic FIR channels.
struct World {
  explicit World(std::size_t relay_count)
      : noise(0.2, 7), h_se({0.0, 0.9, 0.2}) {
    // Relay k hears the source advance_k samples before the ear does.
    const std::size_t advances[] = {40, 12, 0};
    for (std::size_t k = 0; k < relay_count; ++k) {
      relay_advance.push_back(advances[k % 3]);
    }
  }

  /// Advance the world one tick given the speaker output; returns the
  /// error-mic sample for THIS tick and fills the relay feed.
  /// The ambient source stays quiet for the first 0.6 s — the device is
  /// powered up (and calibrates) before the disturbance starts, like the
  /// sim's quiet-room calibration.
  Sample step(Sample speaker_out, std::span<Sample> relay_feed) {
    Signal one(1);
    noise.render(one);
    if (history.size() < 9600) one[0] = 0.0f;
    history.push_back(one[0]);
    const std::size_t t = history.size() - 1;
    // Ear hears the source with a 60-sample bulk delay.
    const Sample ambient = (t >= 60) ? history[t - 60] : 0.0f;
    const Sample anti = h_se.process(speaker_out);
    for (std::size_t k = 0; k < relay_feed.size(); ++k) {
      const std::size_t lag = 60 - relay_advance[k];
      relay_feed[k] = (t >= lag) ? history[t - lag] : 0.0f;
    }
    return static_cast<Sample>(static_cast<double>(ambient) +
                               static_cast<double>(anti));
  }

  audio::WhiteNoiseSource noise;
  mute::dsp::FirFilter h_se;
  std::vector<std::size_t> relay_advance;
  Signal history;
};

MuteDeviceConfig quick_config(std::size_t relays) {
  MuteDeviceConfig cfg;
  cfg.relay_count = relays;
  cfg.calibration_s = 0.5;
  cfg.secondary_taps = 32;
  cfg.selection_period_s = 0.5;
  cfg.lanc.fxlms.causal_taps = 64;
  cfg.lanc.fxlms.mu = 0.4;
  return cfg;
}

TEST(MuteDevice, LifecycleReachesRunning) {
  World world(1);
  MuteDevice device(quick_config(1));
  EXPECT_EQ(device.state(), MuteDevice::State::kCalibrating);

  Sample speaker = 0.0f;
  Sample error = 0.0f;
  Signal relay_feed(1);
  bool saw_listening = false;
  for (int t = 0; t < 30000; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
    if (device.state() == MuteDevice::State::kListening) saw_listening = true;
  }
  EXPECT_TRUE(saw_listening);
  EXPECT_EQ(device.state(), MuteDevice::State::kRunning);
  ASSERT_TRUE(device.active_relay().has_value());
  EXPECT_EQ(*device.active_relay(), 0u);
  EXPECT_GT(device.noncausal_taps(), 20u);  // ~40-sample advance minus budget
  EXPECT_LT(device.calibration().final_error_db, -25.0);
}

TEST(MuteDevice, CancelsOnceRunning) {
  World world(1);
  MuteDevice device(quick_config(1));
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(1);
  double early = 0.0, late = 0.0;
  int early_n = 0, late_n = 0;
  for (int t = 0; t < 80000; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
    if (t > 15000 && t < 25000 &&
        device.state() == MuteDevice::State::kRunning) {
      early += static_cast<double>(error) * static_cast<double>(error);
      ++early_n;
    }
    if (t > 70000) {
      late += static_cast<double>(error) * static_cast<double>(error);
      ++late_n;
    }
  }
  ASSERT_GT(late_n, 0);
  const double late_db = 10.0 * std::log10(late / late_n / 0.04);
  EXPECT_LT(late_db, -20.0);  // deep cancellation relative to ambient 0.2 rms
}

TEST(MuteDevice, PicksTheRelayWithMostLookahead) {
  World world(3);  // advances 40, 12, 0
  MuteDevice device(quick_config(3));
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(3);
  for (int t = 0; t < 40000; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
  }
  ASSERT_TRUE(device.active_relay().has_value());
  EXPECT_EQ(*device.active_relay(), 0u);
  EXPECT_NEAR(device.measured_lookahead_s(), 40.0 / kFs, 3.0 / kFs);
}

TEST(MuteDevice, StaysListeningWhenNoRelayLeads) {
  // Single relay with ZERO advance: GCC-PHAT lag ~0 < min_lookahead.
  World world(1);
  world.relay_advance[0] = 0;
  MuteDevice device(quick_config(1));
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(1);
  for (int t = 0; t < 40000; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
  }
  EXPECT_EQ(device.state(), MuteDevice::State::kListening);
  EXPECT_FALSE(device.active_relay().has_value());
}

TEST(MuteDevice, ShortRelayLossHoldsThenResumes) {
  World world(1);
  auto cfg = quick_config(1);
  cfg.hold_timeout_s = 1.0;
  MuteDevice device(cfg);
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(1);
  const int kDrop = 30000;                        // well into kRunning
  const int kRestore = kDrop + 5600;              // 0.35 s outage
  bool saw_holding = false;
  for (int t = 0; t < 60000; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
    // The relay's battery dies: its feed goes silent (not noisy — the
    // device-side monitor sees whatever the receiver hands it).
    if (t >= kDrop && t < kRestore) relay_feed[0] = 0.0f;
    if (device.state() == MuteDevice::State::kHolding) saw_holding = true;
    if (t == kDrop) {
      ASSERT_EQ(device.state(), MuteDevice::State::kRunning);
    }
  }
  EXPECT_TRUE(saw_holding);
  EXPECT_EQ(device.hold_count(), 1u);
  // Outage (0.35 s) was shorter than hold_timeout_s: the association
  // survived and the device resumed cancelling on the same relay.
  EXPECT_EQ(device.state(), MuteDevice::State::kRunning);
  ASSERT_TRUE(device.active_relay().has_value());
  EXPECT_EQ(*device.active_relay(), 0u);
  ASSERT_NE(device.link_monitor(0), nullptr);
  EXPECT_GE(device.link_monitor(0)->fault_episodes(), 1u);
}

TEST(MuteDevice, LongRelayLossFallsBackToListeningThenReacquires) {
  World world(1);
  auto cfg = quick_config(1);
  cfg.hold_timeout_s = 0.5;
  MuteDevice device(cfg);
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(1);
  const int kDrop = 30000;
  const int kRestore = kDrop + 19200;  // 1.2 s outage >> hold timeout
  bool saw_listening_again = false;
  for (int t = 0; t < 90000; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
    if (t >= kDrop && t < kRestore) relay_feed[0] = 0.0f;
    if (t > kDrop && device.state() == MuteDevice::State::kListening) {
      saw_listening_again = true;
      EXPECT_FALSE(device.active_relay().has_value());
    }
  }
  // The hold timed out: association dropped, device went back to
  // kListening, then re-acquired the relay once its feed returned.
  EXPECT_TRUE(saw_listening_again);
  EXPECT_EQ(device.state(), MuteDevice::State::kRunning);
  ASSERT_TRUE(device.active_relay().has_value());
  EXPECT_EQ(*device.active_relay(), 0u);
}

TEST(MuteDevice, SupervisionOffDisablesMonitors) {
  auto cfg = quick_config(1);
  cfg.link_supervision = false;
  MuteDevice device(cfg);
  EXPECT_EQ(device.link_monitor(0), nullptr);
  EXPECT_EQ(device.hold_count(), 0u);
}

TEST(MuteDevice, GarbageReferenceNeverReachesTheEngine) {
  // A noise-burst reference (demod garbage) while running: the sanitized
  // feed squelches it, the device holds, and every output stays finite.
  World world(1);
  auto cfg = quick_config(1);
  cfg.hold_timeout_s = 1.0;
  MuteDevice device(cfg);
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(1);
  Rng garbage(99);
  const int kDrop = 30000;
  const int kRestore = kDrop + 4800;  // 0.3 s of demod noise
  for (int t = 0; t < 50000; ++t) {
    speaker = device.tick(relay_feed, error);
    ASSERT_TRUE(std::isfinite(static_cast<double>(speaker)));
    error = world.step(speaker, relay_feed);
    if (t >= kDrop && t < kRestore) {
      // Demod noise dwarfs this world's 0.2-rms ambient — the surge the
      // dropout detector keys on is relative to the healthy baseline.
      relay_feed[0] = static_cast<Sample>(0.7 * garbage.gaussian());
    }
  }
  EXPECT_GE(device.hold_count(), 1u);
  EXPECT_EQ(device.state(), MuteDevice::State::kRunning);
}

TEST(MuteDevice, RejectsWrongRelayCount) {
  MuteDevice device(quick_config(2));
  Signal wrong(1, 0.0f);
  EXPECT_THROW(device.tick(wrong, 0.0f), PreconditionError);
}

TEST(MuteDevice, RejectsTheBlockEngine) {
  // A kFdBlock device would throw from tick() at its first handoff or
  // zero-lookahead association; it is refused at construction instead.
  MuteDeviceConfig cfg = quick_config(2);
  cfg.lanc.engine = LancEngineKind::kFdBlock;
  EXPECT_THROW(MuteDevice{cfg}, PreconditionError);
}

TEST(MuteDevice, HandsOffToWarmStandbyOnRelayDeath) {
  // Two relays with positive lookahead (advances 40 and 12). Kill the
  // active relay's feed for good: the device must hold, then hand the
  // association to the standby through kHandoff — never touching
  // kListening — and keep cancelling on relay 1.
  World world(2);
  auto cfg = quick_config(2);
  cfg.hold_timeout_s = 0.3;
  MuteDevice device(cfg);
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(2);
  const int kDrop = 30000;
  bool saw_handoff = false, listened_after_drop = false;
  for (int t = 0; t < 60000; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
    if (t >= kDrop) relay_feed[0] = 0.0f;  // relay 0's battery dies
    if (t == kDrop) {
      ASSERT_EQ(device.state(), MuteDevice::State::kRunning);
      ASSERT_EQ(*device.active_relay(), 0u);
    }
    if (t > kDrop) {
      if (device.state() == MuteDevice::State::kHandoff) saw_handoff = true;
      if (device.state() == MuteDevice::State::kListening) {
        listened_after_drop = true;
      }
    }
  }
  EXPECT_TRUE(saw_handoff);
  EXPECT_FALSE(listened_after_drop)
      << "warm standby existed; re-listening defeats the handoff path";
  EXPECT_EQ(device.state(), MuteDevice::State::kRunning);
  ASSERT_TRUE(device.active_relay().has_value());
  EXPECT_EQ(*device.active_relay(), 1u);
  EXPECT_GE(device.handoff_count(), 1u);
  EXPECT_GE(device.hold_count(), 1u);
  // Gap = detection + hold timeout + settle; a kListening round trip
  // would add at least a full selection period on top.
  EXPECT_GT(device.last_reacquisition_gap_s(), 0.0);
  EXPECT_LT(device.last_reacquisition_gap_s(), 0.48);
  EXPECT_GT(device.relay_active_s(0), 1.0);
  EXPECT_GT(device.relay_active_s(1), 0.5);
}

/// World variant whose relay advances may be NEGATIVE (relay hears the
/// source after the ear — confidently useless lookahead). Used to script
/// specific selection-round outcomes for the adverse-evidence tests.
struct AdvWorld {
  explicit AdvWorld(std::vector<int> advances)
      : noise(0.2, 7), h_se({0.0, 0.9, 0.2}), relay_advance(advances) {}

  Sample step(Sample speaker_out, std::span<Sample> relay_feed) {
    Signal one(1);
    noise.render(one);
    if (history.size() < 9600) one[0] = 0.0f;
    history.push_back(one[0]);
    const auto t = static_cast<std::ptrdiff_t>(history.size()) - 1;
    const Sample ambient =
        (t >= 60) ? history[static_cast<std::size_t>(t - 60)] : 0.0f;
    const Sample anti = h_se.process(speaker_out);
    for (std::size_t k = 0; k < relay_feed.size(); ++k) {
      const std::ptrdiff_t lag = 60 - relay_advance[k];
      relay_feed[k] =
          (t >= lag) ? history[static_cast<std::size_t>(t - lag)] : 0.0f;
    }
    return static_cast<Sample>(static_cast<double>(ambient) +
                               static_cast<double>(anti));
  }

  audio::WhiteNoiseSource noise;
  mute::dsp::FirFilter h_se;
  std::vector<int> relay_advance;
  Signal history;
};

TEST(MuteDevice, AdverseEvidenceCausesDoNotPool) {
  // Regression for the pooled adverse counter: one confident "nobody
  // qualified" round followed by one confident "relay 1 won" round are
  // two DIFFERENT one-round claims and must NOT re-associate; two
  // consecutive "relay 1 won" rounds must. The step size is ~zero so
  // cancellation never bites and every selection round stays confident.
  AdvWorld world({40, 12});
  auto cfg = quick_config(2);
  cfg.enable_handoff = false;  // cold path keeps the scenario minimal
  cfg.lanc.fxlms.mu = 1e-9;
  MuteDevice device(cfg);
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(2);

  // Calibration ends at tick ~8000; selector pushes start the tick after,
  // so selection rounds complete every 8000 ticks from t_listen on.
  int t_listen = -1;
  int t = 0;
  for (; t < 20000 && t_listen < 0; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
    if (device.state() != MuteDevice::State::kCalibrating) t_listen = t;
  }
  ASSERT_GT(t_listen, 0);
  const auto run_round = [&](int rounds_end) {
    const int until = t_listen + rounds_end * 8000 + 100;
    for (; t < until; ++t) {
      speaker = device.tick(relay_feed, error);
      error = world.step(speaker, relay_feed);
    }
  };

  // Rounds 1-2: both relays lead; relay 0 wins and is associated.
  run_round(2);
  ASSERT_EQ(device.state(), MuteDevice::State::kRunning);
  ASSERT_EQ(*device.active_relay(), 0u);

  // Round 3: both relays now LAG the ear -> confident "nobody qualified".
  world.relay_advance = {-20, -5};
  run_round(3);
  EXPECT_EQ(device.state(), MuteDevice::State::kRunning);
  EXPECT_EQ(*device.active_relay(), 0u);

  // Round 4: relay 1 leads again and wins the round. Under the pooled
  // counter this was adverse round #2 -> eviction; cause-separated
  // evidence restarts the count instead.
  world.relay_advance = {-20, 12};
  run_round(4);
  EXPECT_EQ(device.state(), MuteDevice::State::kRunning);
  EXPECT_EQ(*device.active_relay(), 0u)
      << "a no-chosen round plus a rival round must not pool to eviction";

  // Round 5: relay 1 wins AGAIN - two consecutive same-claim rounds now;
  // the association moves.
  run_round(5);
  ASSERT_TRUE(device.active_relay().has_value());
  EXPECT_EQ(*device.active_relay(), 1u)
      << "two consecutive rival wins are legitimate eviction evidence";
}

TEST(MuteDevice, TickStaysAllocationLeanInEveryState) {
  if (!RtAllocationGuard::interposition_enabled()) {
    GTEST_SKIP() << "allocation interposition compiled out";
  }
  // Drive one device through its whole lifecycle — calibration,
  // listening, running, a relay death, hold, handoff, running on the
  // standby — and count heap allocations per tick, attributed to the
  // state the tick STARTED in. Signal-path ticks must be allocation-free;
  // the budgeted exceptions are control-plane ticks (calibration fit,
  // association, shadow retargets, the handoff itself), all of which fit
  // in a small per-state fraction.
  World world(2);
  auto cfg = quick_config(2);
  cfg.hold_timeout_s = 0.3;
  MuteDevice device(cfg);
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(2);
  const int kDrop = 30000;
  std::map<MuteDevice::State, std::pair<std::size_t, std::size_t>> by_state;
  for (int t = 0; t < 60000; ++t) {
    const auto state = device.state();
    std::size_t allocs = 0;
    {
      RtAllocationGuard guard(RtAllocationGuard::Mode::kCount,
                              "device-tick");
      speaker = device.tick(relay_feed, error);
      allocs = guard.allocations_since_entry();
    }
    auto& [ticks, clean] = by_state[state];
    ++ticks;
    if (allocs == 0) ++clean;
    error = world.step(speaker, relay_feed);
    if (t >= kDrop) relay_feed[0] = 0.0f;
  }
  // All five states must have been visited...
  ASSERT_EQ(by_state.size(), 5u);
  // ...and in every one of them, at least 95% of ticks are clean.
  for (const auto& [state, counts] : by_state) {
    const auto& [ticks, clean] = counts;
    EXPECT_GE(static_cast<double>(clean), 0.95 * static_cast<double>(ticks))
        << "state " << static_cast<int>(state) << ": " << (ticks - clean)
        << " of " << ticks << " ticks allocated";
  }
}

TEST(MuteDevice, FlappingMeshAllocatesOnlyAtHandoffsAndRetargets) {
  if (!ScopedArenaAlloc::routing_enabled()) {
    GTEST_SKIP() << "allocation interposition compiled out";
  }
  // Two relays whose links die in turn, 1.5 s each, for 12 s: the device
  // hands the association back and forth and retargets its shadow every
  // flap. Measured in the device's own arena, the only ticks that may
  // allocate are the end of calibration, the first association, handoffs
  // and shadow retargets. Selection rounds (every 0.5 s) allocate nothing.
  // The per-event bytes are printed: they are what still grows a tenant's
  // arena with serving time on a flapping mesh.
  World world(2);
  auto cfg = quick_config(2);
  cfg.hold_timeout_s = 0.3;
  ArenaPool pool(std::size_t{16} << 20, 1);
  MonotonicArena& arena = pool.arena(0);
  std::optional<MuteDevice> device;
  {
    ScopedArenaAlloc scope(arena);
    device.emplace(cfg);
  }
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(2);
  const auto flap_start = static_cast<int>(2.0 * kFs);
  const auto flap_len = static_cast<int>(1.5 * kFs);
  std::vector<std::size_t> handoff_bytes, retarget_bytes;
  bool associated = false;
  for (int t = 0; t < static_cast<int>(14.0 * kFs); ++t) {
    const std::size_t before = arena.used();
    const std::size_t handoffs = device->handoff_count();
    const ShadowFilter* sh = device->shadow();
    const bool had_target = sh != nullptr && sh->has_target();
    const std::size_t old_target = had_target ? sh->relay() : 0;
    const auto state = device->state();
    {
      ScopedArenaAlloc scope(arena);
      speaker = device->tick(relay_feed, error);
    }
    const std::size_t bytes = arena.used() - before;
    sh = device->shadow();
    const bool handoff = device->handoff_count() != handoffs;
    const bool retarget = sh != nullptr && sh->has_target() &&
                          (!had_target || sh->relay() != old_target);
    const bool calibrated = state == MuteDevice::State::kCalibrating &&
                            device->state() != state;
    const bool first_association =
        !associated && device->active_relay().has_value();
    associated |= first_association;
    if (handoff) {
      handoff_bytes.push_back(bytes);
    } else if (retarget) {
      retarget_bytes.push_back(bytes);
    } else if (!calibrated && !first_association) {
      EXPECT_EQ(bytes, 0u) << "tick at t=" << t / kFs << " s allocated";
    }
    error = world.step(speaker, relay_feed);
    if (t >= flap_start) {
      const int dead = ((t - flap_start) / flap_len) % 2;
      relay_feed[static_cast<std::size_t>(dead)] = 0.0f;
    }
  }
  ASSERT_GE(handoff_bytes.size(), 6u);
  ASSERT_GE(retarget_bytes.size(), 6u);
  const auto [h_min, h_max] =
      std::minmax_element(handoff_bytes.begin(), handoff_bytes.end());
  const auto [r_min, r_max] =
      std::minmax_element(retarget_bytes.begin(), retarget_bytes.end());
  std::printf("flapping mesh: %zu handoffs %zu-%zu B each, %zu shadow "
              "retargets %zu-%zu B each\n",
              handoff_bytes.size(), *h_min, *h_max, retarget_bytes.size(),
              *r_min, *r_max);
}

TEST(MuteDevice, StandbyListIsRefreshedByQualifiedRoundsAndAgesOutWithoutThem) {
  // Pin the standby_max_age_s contract (satellite S1): a qualified
  // selection round RESETS the list's age — so with confident rounds
  // every period the list outlives max_age indefinitely — while rounds
  // that rank nobody leave the age running until the list expires.
  AdvWorld world({40, 12});
  auto cfg = quick_config(2);
  cfg.lanc.fxlms.mu = 1e-9;        // no cancellation: rounds stay confident
  cfg.standby_max_age_s = 0.9;     // < two selection periods (0.5 s each)
  MuteDevice device(cfg);
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(2);
  for (int t = 0; t < 30000; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
  }
  ASSERT_EQ(device.state(), MuteDevice::State::kRunning);
  ASSERT_EQ(device.standby().size(), 2u);
  // Keep running well past max_age: every round re-qualifies both relays,
  // so each refresh must reset the age and the list must survive.
  for (int t = 0; t < 32000; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
  }
  EXPECT_EQ(device.standby().size(), 2u)
      << "a qualified round must reset the standby age";

  // Now starve the selector of correlation: each relay forwards healthy-
  // power noise that is UNRELATED to the ambient, so every round loses
  // confidence and ranks nobody (no refresh, and no adverse evidence
  // either — unconfident rounds are what cancellation success looks
  // like). The stale list must age out within standby_max_age_s.
  // (Long enough that the boundary-straddling selection round — whose
  // buffer is still mostly correlated and may refresh once more — is
  // followed by a fully decorrelated round plus the full expiry age.)
  Rng decorrelated(123);
  for (int t = 0; t < 26000; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
    for (std::size_t k = 0; k < 2; ++k) {
      relay_feed[k] = static_cast<Sample>(0.1 * decorrelated.gaussian());
    }
  }
  EXPECT_EQ(device.state(), MuteDevice::State::kRunning);
  EXPECT_TRUE(device.standby().empty())
      << "measurements older than standby_max_age_s are guesses, not a "
         "ranking";
}

TEST(MuteDevice, FlaggedRelayIsNeverRanked) {
  // Satellite S1, flagged-relay-never-ranked rule: a relay whose link
  // monitor currently flags it forwards squelched zeros to the selector,
  // so it cannot earn a standby slot — the next qualified round drops it
  // from the ranking while the healthy relays keep theirs.
  AdvWorld world({40, 12});
  auto cfg = quick_config(2);
  cfg.lanc.fxlms.mu = 1e-9;  // keep every selection round confident
  MuteDevice device(cfg);
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(2);
  for (int t = 0; t < 30000; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
  }
  ASSERT_EQ(device.state(), MuteDevice::State::kRunning);
  ASSERT_EQ(*device.active_relay(), 0u);
  bool relay1_ranked = false;
  for (const auto& m : device.standby()) {
    if (m.relay_index == 1) relay1_ranked = true;
  }
  ASSERT_TRUE(relay1_ranked) << "healthy relay 1 should hold a standby slot";

  // Relay 1's receiver starts emitting demod garbage: the monitor flags
  // it (noise burst), its sanitized feed goes to zeros, and within two
  // selection rounds the refreshed ranking no longer contains it.
  Rng garbage(77);
  for (int t = 0; t < 20000; ++t) {
    speaker = device.tick(relay_feed, error);
    error = world.step(speaker, relay_feed);
    relay_feed[1] = static_cast<Sample>(0.7 * garbage.gaussian());
  }
  ASSERT_NE(device.link_monitor(1), nullptr);
  EXPECT_FALSE(device.link_monitor(1)->healthy());
  ASSERT_FALSE(device.standby().empty())
      << "relay 0 is healthy and confident; the list must refresh, not die";
  for (const auto& m : device.standby()) {
    EXPECT_NE(m.relay_index, 1u) << "flagged relay must never be ranked";
  }
  // The healthy active association is untouched throughout.
  EXPECT_EQ(device.state(), MuteDevice::State::kRunning);
  EXPECT_EQ(*device.active_relay(), 0u);
}

TEST(MuteDevice, TrainingToneOnlyDuringCalibration) {
  World world(1);
  MuteDevice device(quick_config(1));
  Sample speaker = 0.0f, error = 0.0f;
  Signal relay_feed(1);
  double cal_energy = 0.0;
  for (int t = 0; t < 7000; ++t) {  // < calibration_s * fs = 8000
    speaker = device.tick(relay_feed, error);
    cal_energy += std::abs(static_cast<double>(speaker));
    error = world.step(speaker, relay_feed);
  }
  EXPECT_EQ(device.state(), MuteDevice::State::kCalibrating);
  EXPECT_GT(cal_energy, 100.0);  // the training noise is audible
}

}  // namespace
}  // namespace mute::core
