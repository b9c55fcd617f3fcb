// Fixture: mutable static reachable from an lp-isolation root — must be
// flagged. The immutable table below it must not be.
#include "util/shared_state.h"

namespace fixture {

int SharedBump(int step) {
  static int hits = 0;
  static const int kScale = 2;
  hits += step;
  return hits * kScale;
}

}  // namespace fixture
