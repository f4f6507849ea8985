// JavaScript stack-trace model.
//
// Both the measurement extension and CookieGuard attribute cookie accesses
// and network requests to "the last external script URL" found on the
// capture-time stack (paper §4.1, §6.2). The paper's §8 notes this breaks in
// async scenarios (setTimeout, promise resolutions) where the scheduling
// script no longer appears on the stack — the simulator reproduces that gap
// and lets it be toggled (async stack traces on/off).
//
// Attribution runs on every cookie access and every request, so each frame
// carries its script's origin (eTLD+1), resolved once when the frame is
// built: readers take it from the frame instead of re-parsing the URL.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace cg::webplat {

struct StackFrame {
  /// Resolves script_origin from script_url: one URL parse plus eTLD+1,
  /// paid here rather than on every attribution of the frame.
  StackFrame(std::string script_url_in, std::string function_name_in,
             bool async_in = false);
  /// For callers that already know the origin — the browser pushes each
  /// script's ExecContext::script_domain — so nothing is parsed.
  StackFrame(std::string script_url_in, std::string function_name_in,
             bool async_in, std::optional<std::string> script_origin_in)
      : script_url(std::move(script_url_in)),
        function_name(std::move(function_name_in)),
        async(async_in),
        script_origin(std::move(script_origin_in)) {}

  /// URL of the external script this frame executes in; empty for inline
  /// scripts and browser-internal frames.
  std::string script_url;
  std::string function_name;
  /// True when this frame was recovered across an async boundary (only
  /// present when async stack traces are enabled).
  bool async = false;
  /// eTLD+1 of script_url (empty for a bare public suffix). nullopt when
  /// script_url is empty or is not a URL — attribution then fails.
  std::optional<std::string> script_origin;
};

class StackTrace {
 public:
  StackTrace() = default;
  explicit StackTrace(std::vector<StackFrame> frames)
      : frames_(std::move(frames)) {}

  void push(StackFrame frame) { frames_.push_back(std::move(frame)); }
  void pop() {
    if (!frames_.empty()) frames_.pop_back();
  }

  bool empty() const { return frames_.empty(); }
  std::size_t depth() const { return frames_.size(); }
  const std::vector<StackFrame>& frames() const { return frames_; }

  /// The most recently pushed frame with an external URL — the frame the
  /// paper's attribution uses ("analyzing the JavaScript stack trace to
  /// locate the last external script URL", §6.2). Null when the stack is
  /// empty or purely inline.
  const StackFrame* last_external_frame() const {
    for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
      if (!it->script_url.empty()) return &*it;
    }
    return nullptr;
  }

  /// last_external_frame()'s URL; nullopt when there is none.
  std::optional<std::string> last_external_script_url() const {
    const StackFrame* frame = last_external_frame();
    if (frame == nullptr) return std::nullopt;
    return frame->script_url;
  }

  /// Naive attribution alternative: the topmost frame's URL regardless of
  /// whether it's external. Used by ablation benchmarks.
  std::optional<std::string> top_frame_url() const {
    if (frames_.empty()) return std::nullopt;
    if (frames_.back().script_url.empty()) return std::nullopt;
    return frames_.back().script_url;
  }

  /// Appends `older` below the current frames, marking its frames async —
  /// how DevTools-style async stack traces stitch across task boundaries.
  void prepend_async(const StackTrace& older) {
    std::vector<StackFrame> merged = older.frames_;
    for (auto& f : merged) f.async = true;
    merged.insert(merged.end(), frames_.begin(), frames_.end());
    frames_ = std::move(merged);
  }

 private:
  std::vector<StackFrame> frames_;
};

}  // namespace cg::webplat
