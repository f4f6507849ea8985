// The API surface a page exposes to scripts.
//
// The interpreter only ever touches the page through this interface, which
// the browser implements. Because the measurement extension and CookieGuard
// interpose on the browser's implementation, scripts cannot tell whether
// they are being observed or filtered — same as a real extension wrapping
// document.cookie with Object.defineProperty (paper §4.1, §6.2).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/clock.h"
#include "net/url.h"
#include "script/exec_context.h"
#include "script/rng.h"
#include "webplat/dom.h"

namespace cg::script {

/// One cookie as a script read returns it: a name and a value viewing the
/// cookie jar (or a test's own string). The views die at the next jar
/// write, from any API: a caller that writes takes every decision that
/// reads them before its first write.
struct CookiePair {
  std::string_view name;
  std::string_view value;
};

/// The document.cookie serialisation of `pairs`: "a=1; b=2".
inline std::string join_cookie_pairs(const std::vector<CookiePair>& pairs) {
  std::string out;
  for (const CookiePair& pair : pairs) {
    if (!out.empty()) out += "; ";
    out += pair.name;
    out += '=';
    out += pair.value;
  }
  return out;
}

/// Structured cookie object as returned by cookieStore.getAll().
struct StoreCookie {
  std::string name;
  std::string value;
};

class PageServices {
 public:
  virtual ~PageServices() = default;

  // --- document.cookie -----------------------------------------------
  /// The cookies a document.cookie read returns, in order, as views (see
  /// CookiePair). The vector belongs to the services and is refilled by
  /// their next read.
  virtual const std::vector<CookiePair>& document_cookie_pairs(
      const ExecContext& ctx) = 0;
  /// The string document.cookie returns: the join of the pairs.
  std::string document_cookie_read(const ExecContext& ctx) {
    return join_cookie_pairs(document_cookie_pairs(ctx));
  }
  virtual void document_cookie_write(const ExecContext& ctx,
                                     std::string_view cookie_line) = 0;

  // --- cookieStore (async: callbacks run as microtasks) ---------------
  virtual void cookie_store_get_all(
      const ExecContext& ctx,
      std::function<void(std::vector<StoreCookie>)> callback) = 0;
  /// cookieStore.get(name): resolves with the cookie if visible, else
  /// nullopt (paper §2.3 documents both accessors).
  virtual void cookie_store_get(
      const ExecContext& ctx, std::string_view name,
      std::function<void(std::optional<StoreCookie>)> callback) = 0;
  virtual void cookie_store_set(const ExecContext& ctx, std::string_view name,
                                std::string_view value) = 0;
  virtual void cookie_store_delete(const ExecContext& ctx,
                                   std::string_view name) = 0;

  // --- network ----------------------------------------------------------
  virtual void send_request(const ExecContext& ctx, const net::Url& url) = 0;

  // --- script inclusion / scheduling -------------------------------------
  virtual void inject_script(const ExecContext& includer,
                             std::string_view script_id) = 0;
  /// setTimeout: `callback` runs after `delay_ms`. When `helper_script_url`
  /// is non-empty the callback executes through that helper script, so the
  /// synchronous stack bottom belongs to the helper (paper §8 async gap).
  virtual void set_timeout(const ExecContext& ctx, TimeMillis delay_ms,
                           std::function<void()> callback,
                           std::string_view helper_script_url) = 0;

  // --- environment --------------------------------------------------------
  virtual webplat::Document& main_document() = 0;
  virtual TimeMillis now() const = 0;
  virtual Rng& rng() = 0;
};

}  // namespace cg::script
