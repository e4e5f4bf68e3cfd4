// rt-lint fixture: a member call on an object declared through a project
// alias of a standard-library container. `Meter::level()` calls
// `samples_.size()` on a `Buffer` (an alias of std::vector); that must not
// resolve by bare name to the project's allocating `Log::size`, which
// nothing on the RT surface calls. The gate must PASS this TU.
#include <cstddef>
#include <vector>

#include "common/rt_annotations.hpp"

namespace fixture {

using Buffer = std::vector<double>;

class Log {
 public:
  std::size_t size() {
    entries_.push_back(0.0);
    return entries_.size();
  }

 private:
  Buffer entries_;
};

class Meter {
 public:
  MUTE_RT_SAFE std::size_t level() const { return samples_.size(); }

 private:
  Buffer samples_;
};

}  // namespace fixture
