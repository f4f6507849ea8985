// Extension hook interface — the browser's embedder API for extensions.
//
// Mirrors the capabilities the paper's two extensions rely on:
//  * wrapping document.cookie / cookieStore at the page boundary
//    (Object.defineProperty in the real implementation, §4.1/§6.2),
//  * webRequest.onHeadersReceived for Set-Cookie capture,
//  * Chrome-Debugger-style Network.requestWillBeSent with initiator stacks.
//
// Hooks receive both the capture-time JS stack (what a real extension can
// see) and the ground-truth ExecContext (what only the simulator knows).
// Production hooks must attribute from the stack alone; the ground truth is
// for evaluating attribution accuracy.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "cookies/cookie.h"
#include "cookies/cookie_jar.h"
#include "net/http.h"
#include "script/exec_context.h"
#include "script/page_services.h"
#include "webplat/stack_trace.h"

namespace cg::browser {

class Page;
class Browser;

class Extension {
 public:
  virtual ~Extension() = default;

  virtual std::string name() const = 0;

  /// A fresh browser visit begins (new jar): reset per-visit state.
  virtual void on_visit_start(Browser& browser) { (void)browser; }
  /// A navigation committed; content scripts would be injected here.
  virtual void on_page_start(Page& page) { (void)page; }
  /// Page reached its load event.
  virtual void on_page_finished(Page& page) { (void)page; }

  // ---- cookie API interception (content-script layer) -----------------

  /// Filter the cookies a script read returns: document.cookie or a
  /// cookieStore get/getAll, as `api` says. Called in registration order;
  /// each extension receives the previous one's output and may only drop
  /// pairs. The views are valid for the duration of the call.
  virtual void filter_cookie_read(Page& page, const script::ExecContext& ctx,
                                  const webplat::StackTrace& stack,
                                  cookies::CookieSource api,
                                  std::vector<script::CookiePair>& cookies) {
    (void)page;
    (void)ctx;
    (void)stack;
    (void)api;
    (void)cookies;
  }

  /// Veto a document.cookie write. Returning false blocks the jar update.
  virtual bool allow_document_cookie_write(Page& page,
                                           const script::ExecContext& ctx,
                                           const webplat::StackTrace& stack,
                                           std::string_view cookie_line) {
    (void)page;
    (void)ctx;
    (void)stack;
    (void)cookie_line;
    return true;
  }

  /// Veto cookieStore.set / cookieStore.delete.
  virtual bool allow_store_write(Page& page, const script::ExecContext& ctx,
                                 const webplat::StackTrace& stack,
                                 std::string_view name,
                                 std::string_view value, bool is_delete) {
    (void)page;
    (void)ctx;
    (void)stack;
    (void)name;
    (void)value;
    (void)is_delete;
    return true;
  }

  // ---- observations ----------------------------------------------------

  /// A script read returned `returned` cookies through `api`, after every
  /// filter_cookie_read.
  virtual void on_cookie_read(Page& page, const script::ExecContext& ctx,
                              const webplat::StackTrace& stack,
                              cookies::CookieSource api,
                              std::size_t returned) {
    (void)page;
    (void)ctx;
    (void)stack;
    (void)api;
    (void)returned;
  }

  /// A script-initiated jar change completed (document.cookie or
  /// cookieStore). Blocked writes never reach this hook.
  virtual void on_script_cookie_change(Page& page,
                                       const script::ExecContext& ctx,
                                       const webplat::StackTrace& stack,
                                       const cookies::CookieChange& change,
                                       cookies::CookieSource api) {
    (void)page;
    (void)ctx;
    (void)stack;
    (void)change;
    (void)api;
  }

  /// A write was vetoed by some extension (for blocked-action accounting).
  virtual void on_write_blocked(Page& page, const script::ExecContext& ctx,
                                const webplat::StackTrace& stack,
                                std::string_view cookie_line) {
    (void)page;
    (void)ctx;
    (void)stack;
    (void)cookie_line;
  }

  /// webRequest.onHeadersReceived: response arrived; `changes` are the jar
  /// updates its Set-Cookie headers caused.
  virtual void on_headers_received(
      Page& page, const net::HttpRequest& request,
      const net::HttpResponse& response,
      const std::vector<cookies::CookieChange>& changes) {
    (void)page;
    (void)request;
    (void)response;
    (void)changes;
  }

  /// Veto an outgoing request before it leaves (content blockers). Vetoed
  /// requests are dropped silently: no response, no observer notifications.
  virtual bool allow_request(Page& page, const net::HttpRequest& request,
                             const script::ExecContext* initiator) {
    (void)page;
    (void)request;
    (void)initiator;
    return true;
  }

  /// Network.requestWillBeSent: outgoing request with initiator stack.
  /// `initiator` is nullptr for browser-initiated (navigation) requests.
  virtual void on_request_will_be_sent(Page& page,
                                       const net::HttpRequest& request,
                                       const script::ExecContext* initiator,
                                       const webplat::StackTrace& stack) {
    (void)page;
    (void)request;
    (void)initiator;
    (void)stack;
  }

  /// Veto a script inclusion before it executes (content blockers work
  /// here; CookieGuard deliberately does not).
  virtual bool allow_script_include(Page& page,
                                    const script::ExecContext& ctx) {
    (void)page;
    (void)ctx;
    return true;
  }

  /// A script entered the main frame (static or dynamic inclusion).
  virtual void on_script_included(Page& page,
                                  const script::ExecContext& ctx) {
    (void)page;
    (void)ctx;
  }

  // ---- cost model --------------------------------------------------------

  /// Simulated per-intercepted-API-call overhead this extension adds
  /// (content-script wrapper + messaging round trip), in milliseconds.
  virtual TimeMillis api_call_overhead_ms() const { return 0; }
};

}  // namespace cg::browser
