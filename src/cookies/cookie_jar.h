// The browser's first-party cookie jar: RFC 6265 storage model.
//
// This is the resource the whole paper is about. Scripts in the main frame
// share one jar per top-level site; CookieGuard does NOT change this jar —
// it interposes on the API boundary above it and filters what each script
// origin may see (paper §6).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cookies/cookie.h"
#include "net/set_cookie.h"
#include "net/url.h"

namespace cg::cookies {

/// Which API surface performs a jar operation. Script APIs cannot create
/// HttpOnly cookies nor read/overwrite existing ones (RFC 6265 §8.6).
enum class JarApi { kHttp, kScript };

/// Outcome of a store attempt, rich enough for the measurement extension to
/// classify the event (create vs overwrite vs delete) and diff attributes.
struct CookieChange {
  enum class Type {
    kCreated,
    kOverwritten,
    kDeleted,     // stored with expiry <= now while a live cookie existed
    kExpiredNoop,  // expiry <= now and no matching live cookie
    kRejected,    // failed a storage-model rule
  };
  Type type = Type::kRejected;
  /// State before the operation (set for kOverwritten / kDeleted).
  std::optional<Cookie> previous;
  /// State after the operation (set for kCreated / kOverwritten).
  std::optional<Cookie> current;
  /// Human-readable reason for kRejected.
  std::string reject_reason;
};

class CookieJar {
 public:
  /// RFC 6265 §6.1 minimum capabilities, enforced like Chromium: oversized
  /// name+value pairs are rejected; beyond the per-jar cookie limit the
  /// least-recently-accessed cookies are evicted (expired ones first).
  static constexpr std::size_t kMaxPairBytes = 4096;
  static constexpr std::size_t kMaxCookies = 180;

  /// Applies the RFC 6265 §5.3 storage algorithm for a cookie received from
  /// `source_url` (the response URL for HTTP, the document URL for scripts).
  /// `source` overrides the recorded CookieSource (e.g. kCookieStore for
  /// cookieStore.set, which is also a script API).
  CookieChange set(const net::Url& source_url,
                   const net::ParsedSetCookie& parsed, TimeMillis now,
                   JarApi api,
                   std::optional<CookieSource> source = std::nullopt);

  /// Convenience for script writes: parses `cookie_line` exactly like a
  /// Set-Cookie value (document.cookie assignment grammar is the same).
  CookieChange set_from_string(const net::Url& document_url,
                               std::string_view cookie_line, TimeMillis now);

  /// The one RFC 6265 §5.4 matcher every retrieval goes through: appends
  /// to `out` the cookies matching `url` (domain-match, path-match, secure
  /// channel check; HttpOnly filtered out for JarApi::kScript), sorted
  /// longer paths first, then earlier creation. Entries already in `out`
  /// keep their place, so reading several partitions in turn concatenates
  /// their orders. Updates last_access of every match. No cookie is
  /// copied; the pointers stay valid until the jar is next modified.
  void retrieve(const net::Url& url, TimeMillis now, JarApi api,
                std::vector<const Cookie*>& out);

  /// Read-only twin of retrieve(): identical matching and sort order, but
  /// does NOT update last_access. Measurement code must use this — an
  /// observer read that refreshed last_access would perturb the LRU
  /// eviction order it is trying to observe.
  void peek(const net::Url& url, TimeMillis now, JarApi api,
            std::vector<const Cookie*>& out) const;

  /// retrieve() as copies, for callers that keep cookies past the next
  /// jar change. Updates last_access.
  std::vector<Cookie> cookies_for_url(const net::Url& url, TimeMillis now,
                                      JarApi api);

  /// peek() as copies; does NOT update last_access.
  std::vector<Cookie> peek_for_url(const net::Url& url, TimeMillis now,
                                   JarApi api) const;

  /// The exact string document.cookie returns: "a=1; b=2". Updates
  /// last_access like any script read.
  std::string document_cookie_string(const net::Url& url, TimeMillis now);

  /// Looks up a live cookie by identity.
  std::optional<Cookie> find(std::string_view name, std::string_view domain,
                             std::string_view path) const;

  /// Removes a cookie by identity; true if one was removed.
  bool remove(std::string_view name, std::string_view domain,
              std::string_view path);

  /// Drops expired cookies; returns how many were evicted.
  std::size_t purge_expired(TimeMillis now);

  std::size_t size() const { return cookies_.size(); }
  const std::vector<Cookie>& all() const { return cookies_; }
  void clear() { cookies_.clear(); }

 private:
  std::vector<Cookie> cookies_;
  std::uint64_t next_index_ = 0;
};

/// Appends the document.cookie / `Cookie` header serialisation of
/// `cookies` — "a=1; b=2", in the given order — to `out`, separated from
/// any text already there by "; ".
void append_cookie_pairs(const std::vector<const Cookie*>& cookies,
                         std::string& out);

}  // namespace cg::cookies
