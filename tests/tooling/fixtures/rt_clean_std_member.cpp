// rt-lint fixture: a member call on a standard-library object. `clear()`
// calls `chosen.reset()` on a std::optional member; that must not resolve
// by bare name to the project's allocating `Pool::reset`, which nothing on
// the RT surface calls. The gate must PASS this TU.
#include <optional>
#include <vector>

#include "common/rt_annotations.hpp"

namespace fixture {

class Pool {
 public:
  void reset() { blocks_.push_back(0.0); }

 private:
  std::vector<double> blocks_;
};

class Sel {
 public:
  MUTE_RT_SAFE void clear() { chosen.reset(); }

 private:
  std::optional<int> chosen;
};

}  // namespace fixture
