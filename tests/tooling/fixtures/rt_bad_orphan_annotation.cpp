// rt-lint fixture: an MUTE_RT_SAFE annotation that yields no RT root. A
// lambda bound to a variable is not a function declaration, so the walk
// would never start there; the gate must FAIL and name this line rather
// than let the root set shrink silently.
#include "common/rt_annotations.hpp"

namespace fixture {

MUTE_RT_SAFE auto kernel = [](double x) { return 2.0 * x; };

}  // namespace fixture
