// rt-lint fixture: an MUTE_RT_SAFE function whose parameter has a braced
// default argument. The `{}` inside the parameter list must not end the
// declaration: `d` is a root, and its vector growth must FAIL the gate
// (construct: container-growth). Its two neighbours are clean roots.
#include <span>
#include <vector>

#include "common/rt_annotations.hpp"

namespace fixture {

std::vector<double> g_log;

MUTE_RT_SAFE int f(int c = 0) { return c + 1; }

MUTE_RT_SAFE int g(std::span<double> c) {
  return static_cast<int>(c.size());
}

MUTE_RT_SAFE int d(std::span<double> c = {}) {
  g_log.push_back(1.0);
  return static_cast<int>(c.size());
}

}  // namespace fixture
