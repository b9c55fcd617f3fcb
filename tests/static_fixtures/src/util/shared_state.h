// Fixture: header pulled in by the lp-isolation root; its implementation
// file holds the offending static.
#pragma once

namespace fixture {

int SharedBump(int step);

}  // namespace fixture
