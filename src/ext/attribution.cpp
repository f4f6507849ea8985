#include "ext/attribution.h"

namespace cg::ext {

Attribution attribute_stack(const webplat::StackTrace& stack,
                            AttributionMode mode) {
  Attribution out;
  const webplat::StackFrame* frame = nullptr;
  switch (mode) {
    case AttributionMode::kLastExternal:
      frame = stack.last_external_frame();
      break;
    case AttributionMode::kTopFrameOnly: {
      // Ignore async-recovered frames: only a genuine top frame counts.
      const auto& frames = stack.frames();
      if (!frames.empty() && !frames.back().async &&
          !frames.back().script_url.empty()) {
        frame = &frames.back();
      }
      break;
    }
  }
  if (frame == nullptr) {
    out.unknown = true;
    return out;
  }
  out.script_url = frame->script_url;
  if (frame->script_origin) {
    out.domain = *frame->script_origin;
  } else {
    out.unknown = true;
  }
  return out;
}

}  // namespace cg::ext
