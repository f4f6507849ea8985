// Script-origin attribution from JS stack traces.
//
// Shared by the measurement extension (§4.1 "the calling script's URL,
// derived from the stack trace") and CookieGuard (§6.2 "inferred by
// analyzing the JavaScript stack trace to locate the last external script
// URL"). The attribution mode is a design knob: bench_paper's D1 ablation
// compares the modes.
#pragma once

#include <string>

#include "webplat/stack_trace.h"

namespace cg::ext {

enum class AttributionMode {
  /// The paper's approach: deepest (most recent) frame with an external URL,
  /// falling back through async frames when the browser provides them.
  kLastExternal,
  /// Naive alternative: only the topmost frame, no async recovery.
  kTopFrameOnly,
};

struct Attribution {
  /// Attributed script URL; empty when no external frame was found.
  std::string script_url;
  /// eTLD+1 of script_url; empty for inline/unknown.
  std::string domain;
  /// True when attribution failed (inline script or lost async stack).
  bool unknown = false;
};

/// Attributes an action to a script origin from its capture-time stack,
/// reading the origin each frame cached when it was pushed.
Attribution attribute_stack(const webplat::StackTrace& stack,
                            AttributionMode mode = AttributionMode::kLastExternal);

}  // namespace cg::ext
