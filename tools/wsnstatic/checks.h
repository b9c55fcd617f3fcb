// wsnstatic rule families (docs/STATIC_ANALYSIS.md has the catalog).
//
// Four cross-TU semantic checks over the structural Index:
//   serdes-complete     declared serialize/parse pairs
//                       (wsnstatic:serdes(Struct, WriteFn, ReadFn)) cover
//                       every field of the struct
//   hot-path-transitive wsnlint's no-hot-alloc / no-wallclock bans
//                       propagate from wsnlint:hot-path roots through the
//                       call graph instead of stopping at file boundaries
//   lp-isolation        no unjustified mutable static state in files
//                       reachable from the worker pool, the sweep workers,
//                       or the serve/ handlers
//   layer-dag           quoted includes respect the directory layering
//                       util < sim/trace < phy/channel < mac/core < link <
//                       app < node < metrics < experiment/validate < serve
//
// File-scope escapes use `wsnstatic:allow(<rule-id>): reason` with the same
// grammar, justification requirement, and stale detection as wsnlint
// (tools/analysis_common/markers.h).
#pragma once

#include <string>
#include <vector>

#include "index.h"
#include "markers.h"

namespace wsnstatic {

/// All registered rules, in reporting order.
[[nodiscard]] const std::vector<analysis::RuleInfo>& Rules();

/// One named upward edge tolerated by the layer-dag rule.
struct LayerEscape {
  std::string from_dir;
  std::string to_dir;
  std::string reason;
};

/// The reviewed escape-hatch table (empty entries mean the DAG is strict).
[[nodiscard]] const std::vector<LayerEscape>& LayerEscapes();

/// Runs every rule family over the index. File-scope `wsnstatic:allow`
/// directives are applied per file; directive problems (unknown rule id,
/// missing justification, stale allow/transient) are themselves findings.
[[nodiscard]] std::vector<analysis::Finding> CheckIndex(const Index& index);

}  // namespace wsnstatic
