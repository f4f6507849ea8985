// The measurement extension (paper §4.1).
//
// Implements the four instrumentation channels:
//   1. document.cookie getter/setter interception,
//   2. cookieStore get/getAll/set/delete interception,
//   3. webRequest.onHeadersReceived Set-Cookie capture,
//   4. Network.requestWillBeSent with stack-based attribution.
// Purely observational: it never filters or vetoes anything.
#pragma once

#include "browser/extension.h"
#include "ext/attribution.h"
#include "instrument/records.h"

namespace cg::instrument {

class Recorder final : public browser::Extension {
 public:
  explicit Recorder(ext::AttributionMode mode = ext::AttributionMode::kLastExternal)
      : mode_(mode) {}

  /// Directs logging into `log`. The crawler installs a fresh VisitLog per
  /// site visit. Null disables recording.
  void set_visit_log(VisitLog* log) { log_ = log; }
  VisitLog* visit_log() { return log_; }

  std::string name() const override { return "cookie-measurement"; }

  void on_page_finished(browser::Page& page) override;
  void on_cookie_read(browser::Page& page, const script::ExecContext& ctx,
                      const webplat::StackTrace& stack,
                      cookies::CookieSource api,
                      std::size_t returned) override;
  void on_script_cookie_change(browser::Page& page,
                               const script::ExecContext& ctx,
                               const webplat::StackTrace& stack,
                               const cookies::CookieChange& change,
                               cookies::CookieSource api) override;
  void on_headers_received(
      browser::Page& page, const net::HttpRequest& request,
      const net::HttpResponse& response,
      const std::vector<cookies::CookieChange>& changes) override;
  void on_request_will_be_sent(browser::Page& page,
                               const net::HttpRequest& request,
                               const script::ExecContext* initiator,
                               const webplat::StackTrace& stack) override;
  void on_script_included(browser::Page& page,
                          const script::ExecContext& ctx) override;
  void on_page_start(browser::Page& page) override;

 private:
  ext::AttributionMode mode_;
  VisitLog* log_ = nullptr;
};

}  // namespace cg::instrument
