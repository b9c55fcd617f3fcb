// Fixture: lp-isolation root (matches the util/thread_pool.cpp root rule).
// Pulls in shared_state.h, whose paired .cpp hides a mutable static — the
// reachability walk must find it through the header pairing.
#include "util/shared_state.h"

namespace fixture {

int Advance(int step) { return SharedBump(step); }

}  // namespace fixture
