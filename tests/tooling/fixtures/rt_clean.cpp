// rt-lint fixture: a well-behaved RT surface. The gate must PASS this TU.
//
// Fixtures are analyzed by tools/rt_lint.py, not compiled into the build;
// they still include the real annotation header, as production code does.
#include <cstddef>

#include "common/rt_annotations.hpp"

namespace fixture {

double helper_accumulate(const double* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

class CleanFilter {
 public:
  MUTE_RT_SAFE double process(double x) {
    state_ = 0.5 * state_ + x;
    return helper_accumulate(&state_, 1);
  }

  // Control-plane by design: fenced off, never called from process().
  MUTE_RT_UNSAFE void reconfigure(std::size_t taps);

 private:
  double state_ = 0.0;
};

}  // namespace fixture
