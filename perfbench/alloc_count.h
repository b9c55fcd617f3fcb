// Global operator-new counter of the benchmark binary (the libraries are
// linked statically, so every allocation the program makes is counted).
#pragma once

#include <cstdint>

namespace perfbench {

/// operator new calls made so far by any thread of this process.
[[nodiscard]] std::uint64_t AllocCount() noexcept;

}  // namespace perfbench
