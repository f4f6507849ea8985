// Canonical cookie representation (RFC 6265 storage model item).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/clock.h"
#include "net/set_cookie.h"

namespace cg::cookies {

/// How a cookie entered the jar. The paper distinguishes HTTP cookies from
/// script cookies ("document.cookie" vs "cookieStore", §2.3) and its
/// measurement pipeline tracks which API created each cookie.
enum class CookieSource {
  kHttpHeader,
  kDocumentCookie,
  kCookieStore,
};

std::string_view to_string(CookieSource s);

struct Cookie {
  std::string name;
  std::string value;
  /// Registrable-ish domain the cookie is scoped to (no leading dot).
  std::string domain;
  std::string path = "/";
  /// True when no Domain attribute was given: cookie only matches the exact
  /// host that set it.
  bool host_only = true;
  bool secure = false;
  bool http_only = false;
  /// CHIPS `Partitioned` attribute as received. Which jar partition the
  /// cookie actually landed in is the policy layer's decision; this flag
  /// records the site's intent for measurement and visibility filtering.
  bool partitioned = false;
  net::SameSite same_site = net::SameSite::kUnspecified;
  /// Absolute expiry; nullopt = session cookie.
  std::optional<TimeMillis> expires;
  TimeMillis creation_time = 0;
  TimeMillis last_access = 0;
  CookieSource source = CookieSource::kHttpHeader;
  /// Monotonic per-jar counter breaking creation-time ties in sort order.
  std::uint64_t creation_index = 0;

  bool persistent() const { return expires.has_value(); }
  bool expired(TimeMillis now) const { return expires && *expires <= now; }

  /// Identity per RFC 6265: (name, domain, path).
  bool same_identity(const Cookie& other) const {
    return name == other.name && domain == other.domain && path == other.path;
  }
};

}  // namespace cg::cookies
