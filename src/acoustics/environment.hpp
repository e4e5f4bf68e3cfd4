#pragma once

#include <cstddef>
#include <vector>

#include "acoustics/channel.hpp"
#include "acoustics/room.hpp"
#include "common/types.hpp"

namespace mute::acoustics {

/// Physical placement of one MUTE deployment inside a room: the noise
/// source, the IoT relay's reference microphone, and the ear device
/// (error microphone + anti-noise speaker a few centimeters apart).
struct Scene {
  Room room = Room::office();
  Point noise_source{1.0, 2.5, 1.5};
  Point relay_mic{2.0, 2.5, 1.5};       // closer to the source than the ear
  Point error_mic{5.0, 2.5, 1.2};       // at the (virtual) ear
  Point anti_speaker{5.0, 2.47, 1.2};   // 3 cm from the error mic
  double sample_rate = kDefaultSampleRate;

  /// The paper's Figure 2 layout: relay on the wall near the door (noise
  /// outside/near the door), ear device on the table across the office.
  static Scene paper_office();
};

/// The three channels every ANC formulation needs, synthesized from a
/// Scene with the image-source model.
struct ChannelSet {
  AcousticChannel h_nr;  // noise source -> reference (relay) mic
  AcousticChannel h_ne;  // noise source -> error mic
  AcousticChannel h_se;  // anti-noise speaker -> error mic
  double lookahead_s = 0.0;        // acoustic lead of the relay (Eq. 4)
  double direct_nr_samples = 0.0;  // direct-path delays, fractional samples
  double direct_ne_samples = 0.0;
  double direct_se_samples = 0.0;
};

/// Build the channel set for a scene.
ChannelSet build_channels(const Scene& scene);

/// Build only the noise->mic channel for an arbitrary receiver position
/// (used by multi-relay experiments).
AcousticChannel build_path(const Scene& scene, Point source, Point receiver,
                           const char* label);

}  // namespace mute::acoustics
