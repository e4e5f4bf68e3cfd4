#include "acoustics/environment.hpp"

#include "common/error.hpp"

namespace mute::acoustics {

// Every synthesized room path is this many taps long.
constexpr std::size_t kRirLength = 2048;

Scene Scene::paper_office() {
  Scene s;
  s.room = Room::office();
  // Noise enters near the door at one end; relay is taped to the wall by
  // the door; the desk with the ear device sits ~3.5 m away.
  s.noise_source = {0.8, 2.5, 1.5};
  s.relay_mic = {1.5, 2.5, 1.8};
  s.error_mic = {4.8, 2.6, 1.2};
  s.anti_speaker = {4.8, 2.57, 1.2};
  return s;
}

ChannelSet build_channels(const Scene& scene) {
  RirOptions opts;
  opts.sample_rate = scene.sample_rate;
  opts.length = kRirLength;

  auto nr = image_source_rir(scene.room, scene.noise_source, scene.relay_mic,
                             opts);
  auto ne = image_source_rir(scene.room, scene.noise_source, scene.error_mic,
                             opts);
  // The speaker->error-mic path is centimeters long; a shorter RIR
  // suffices but keep the same length for uniform processing.
  auto se = image_source_rir(scene.room, scene.anti_speaker, scene.error_mic,
                             opts);

  ChannelSet cs{AcousticChannel(std::move(nr), "h_nr"),
                AcousticChannel(std::move(ne), "h_ne"),
                AcousticChannel(std::move(se), "h_se")};
  const double d_r = distance(scene.noise_source, scene.relay_mic);
  const double d_e = distance(scene.noise_source, scene.error_mic);
  cs.lookahead_s = lookahead_s(d_r, d_e, scene.room.speed_of_sound);
  cs.direct_nr_samples =
      direct_delay_samples(scene.room, scene.noise_source, scene.relay_mic,
                           scene.sample_rate);
  cs.direct_ne_samples =
      direct_delay_samples(scene.room, scene.noise_source, scene.error_mic,
                           scene.sample_rate);
  cs.direct_se_samples =
      direct_delay_samples(scene.room, scene.anti_speaker, scene.error_mic,
                           scene.sample_rate);
  return cs;
}

AcousticChannel build_path(const Scene& scene, Point source, Point receiver,
                           const char* label) {
  RirOptions opts;
  opts.sample_rate = scene.sample_rate;
  opts.length = kRirLength;
  return AcousticChannel(
      image_source_rir(scene.room, source, receiver, opts), label);
}

}  // namespace mute::acoustics
