// Shared command-line plumbing for the example binaries.
//
// Every example exposes the same pair of run knobs (--seed, --packets);
// before this helper each binary either hand-parsed them or hardcoded the
// values. ApplySimFlags overlays the flags onto an options struct whose
// fields already hold that example's defaults, so each binary keeps its own
// canonical seed/packet count while gaining validated overrides.
#pragma once

#include "node/link_simulation.h"
#include "util/args.h"

namespace wsnlink::examples {

/// Overlays `--seed N` and `--packets N` (validated, >= 1) onto `options`.
/// Absent flags leave the caller's defaults untouched. Callers list both
/// flags among the value flags they pass to util::Args.
inline void ApplySimFlags(const util::Args& args,
                          node::SimulationOptions& options) {
  options.seed = static_cast<std::uint64_t>(
      args.GetInt("--seed", static_cast<int>(options.seed)));
  options.packet_count =
      args.GetPositiveInt("--packets", options.packet_count);
}

}  // namespace wsnlink::examples
