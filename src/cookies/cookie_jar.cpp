#include "cookies/cookie_jar.h"

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "net/psl.h"
#include "net/set_cookie.h"

namespace cg::cookies {
namespace {

std::string_view source_name(CookieSource s) {
  switch (s) {
    case CookieSource::kHttpHeader:
      return "http";
    case CookieSource::kDocumentCookie:
      return "document.cookie";
    case CookieSource::kCookieStore:
      return "cookieStore";
  }
  return "http";
}

// RFC 6265 §5.1.4 path-match.
bool path_matches(std::string_view request_path, std::string_view cookie_path) {
  if (request_path == cookie_path) return true;
  if (request_path.starts_with(cookie_path)) {
    if (cookie_path.ends_with('/')) return true;
    if (request_path.size() > cookie_path.size() &&
        request_path[cookie_path.size()] == '/') {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string_view to_string(CookieSource s) { return source_name(s); }

CookieChange CookieJar::set(const net::Url& source_url,
                            const net::ParsedSetCookie& parsed, TimeMillis now,
                            JarApi api, std::optional<CookieSource> source) {
  CookieChange change;

  Cookie cookie;
  cookie.name = parsed.name;
  cookie.value = parsed.value;
  cookie.secure = parsed.secure;
  cookie.http_only = parsed.http_only;
  cookie.partitioned = parsed.partitioned;
  cookie.same_site = parsed.same_site;
  cookie.creation_time = now;
  cookie.last_access = now;
  cookie.source = source.value_or(api == JarApi::kHttp
                                      ? CookieSource::kHttpHeader
                                      : CookieSource::kDocumentCookie);

  // RFC 6265 §6.1: reject oversized name+value pairs.
  if (parsed.name.size() + parsed.value.size() > kMaxPairBytes) {
    change.reject_reason = "cookie exceeds size limit";
    return change;
  }

  // RFC 6265 §8.6 / 6265bis: non-HTTP APIs cannot create HttpOnly cookies.
  if (api == JarApi::kScript && parsed.http_only) {
    change.reject_reason = "script cannot set HttpOnly cookie";
    return change;
  }

  // Secure-attribute cookies may only be set from secure URLs (6265bis §5.5).
  if (parsed.secure && !source_url.is_secure()) {
    change.reject_reason = "Secure cookie from non-secure context";
    return change;
  }

  // CHIPS: a Partitioned cookie must also carry Secure.
  if (parsed.partitioned && !parsed.secure) {
    change.reject_reason = "Partitioned cookie without Secure";
    return change;
  }

  // Domain attribute handling (RFC 6265 §5.3 steps 4-6).
  if (!parsed.domain.empty()) {
    if (net::is_public_suffix(parsed.domain) &&
        parsed.domain != source_url.host()) {
      change.reject_reason = "Domain attribute is a public suffix";
      return change;
    }
    if (!net::domain_matches(source_url.host(), parsed.domain)) {
      change.reject_reason = "Domain attribute does not domain-match host";
      return change;
    }
    cookie.domain = parsed.domain;
    cookie.host_only = false;
  } else {
    cookie.domain = source_url.host();
    cookie.host_only = true;
  }

  cookie.path =
      parsed.path.empty() ? source_url.default_cookie_path() : parsed.path;

  // Expiry: Max-Age wins over Expires (RFC 6265 §5.3 step 3).
  if (parsed.max_age_ms) {
    cookie.expires = now + *parsed.max_age_ms;
  } else if (parsed.expires) {
    cookie.expires = *parsed.expires;
  }

  // Find an existing cookie with the same identity.
  auto existing = std::find_if(cookies_.begin(), cookies_.end(),
                               [&](const Cookie& c) {
                                 return c.same_identity(cookie);
                               });

  // Scripts may not evict or replace an HttpOnly cookie.
  if (existing != cookies_.end() && existing->http_only &&
      api == JarApi::kScript) {
    change.reject_reason = "script cannot replace HttpOnly cookie";
    return change;
  }

  const bool lands_expired = cookie.expired(now);

  if (existing != cookies_.end()) {
    change.previous = *existing;
    if (lands_expired) {
      // Setting with a past expiry is the web's delete operation.
      cookies_.erase(existing);
      change.type = CookieChange::Type::kDeleted;
      return change;
    }
    cookie.creation_time = existing->creation_time;  // §5.3 step 11.3
    cookie.creation_index = existing->creation_index;
    *existing = cookie;
    change.type = CookieChange::Type::kOverwritten;
    change.current = cookie;
    return change;
  }

  if (lands_expired) {
    change.type = CookieChange::Type::kExpiredNoop;
    return change;
  }

  cookie.creation_index = next_index_++;
  cookies_.push_back(cookie);

  // Evict past the jar limit: expired first, then least recently accessed.
  if (cookies_.size() > kMaxCookies) {
    purge_expired(now);
    while (cookies_.size() > kMaxCookies) {
      auto victim = std::min_element(
          cookies_.begin(), cookies_.end(),
          [](const Cookie& a, const Cookie& b) {
            if (a.last_access != b.last_access) {
              return a.last_access < b.last_access;
            }
            return a.creation_index < b.creation_index;
          });
      cookies_.erase(victim);
    }
  }

  change.type = CookieChange::Type::kCreated;
  change.current = cookie;
  return change;
}

CookieChange CookieJar::set_from_string(const net::Url& document_url,
                                        std::string_view cookie_line,
                                        TimeMillis now) {
  const auto parsed = net::parse_set_cookie(cookie_line);
  if (!parsed) {
    CookieChange change;
    change.reject_reason = "unparseable cookie string";
    return change;
  }
  return set(document_url, *parsed, now, JarApi::kScript);
}

namespace {

// RFC 6265 §5.4 steps 1-2: does `c` match a request to `url` over `api`?
bool retrieval_match(const Cookie& c, const net::Url& url, TimeMillis now,
                     JarApi api) {
  if (c.expired(now)) return false;
  if (c.http_only && api == JarApi::kScript) return false;
  if (c.secure && !url.is_secure()) return false;
  if (c.host_only) {
    if (url.host() != c.domain) return false;
  } else if (!net::domain_matches(url.host(), c.domain)) {
    return false;
  }
  return path_matches(url.path(), c.path);
}

// §5.4 sort: longer paths first, then earlier creation. creation_index is
// unique within a jar, so the order is total and any sort reproduces it.
bool retrieval_before(const Cookie* a, const Cookie* b) {
  if (a->path.size() != b->path.size()) {
    return a->path.size() > b->path.size();
  }
  if (a->creation_time != b->creation_time) {
    return a->creation_time < b->creation_time;
  }
  return a->creation_index < b->creation_index;
}

// The matcher behind retrieve() and peek(): appends pointers to the
// matching cookies and sorts only the appended range. Through a non-const
// vector (retrieve) it also refreshes last_access.
template <typename Cookies>
void collect_matches(Cookies& cookies, const net::Url& url, TimeMillis now,
                     JarApi api, std::vector<const Cookie*>& out) {
  const std::size_t first = out.size();
  for (auto& c : cookies) {
    if (!retrieval_match(c, url, now, api)) continue;
    if constexpr (!std::is_const_v<Cookies>) c.last_access = now;
    out.push_back(&c);
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            retrieval_before);
}

std::vector<Cookie> copies_of(const std::vector<const Cookie*>& matched) {
  std::vector<Cookie> out;
  out.reserve(matched.size());
  for (const Cookie* c : matched) out.push_back(*c);
  return out;
}

}  // namespace

void CookieJar::retrieve(const net::Url& url, TimeMillis now, JarApi api,
                         std::vector<const Cookie*>& out) {
  collect_matches(cookies_, url, now, api, out);
}

void CookieJar::peek(const net::Url& url, TimeMillis now, JarApi api,
                     std::vector<const Cookie*>& out) const {
  collect_matches(cookies_, url, now, api, out);
}

std::vector<Cookie> CookieJar::cookies_for_url(const net::Url& url,
                                               TimeMillis now, JarApi api) {
  std::vector<const Cookie*> matched;
  retrieve(url, now, api, matched);
  return copies_of(matched);
}

std::vector<Cookie> CookieJar::peek_for_url(const net::Url& url,
                                            TimeMillis now, JarApi api) const {
  std::vector<const Cookie*> matched;
  peek(url, now, api, matched);
  return copies_of(matched);
}

std::string CookieJar::document_cookie_string(const net::Url& url,
                                              TimeMillis now) {
  std::vector<const Cookie*> matched;
  retrieve(url, now, JarApi::kScript, matched);
  std::string out;
  append_cookie_pairs(matched, out);
  return out;
}

void append_cookie_pairs(const std::vector<const Cookie*>& cookies,
                         std::string& out) {
  for (const Cookie* c : cookies) {
    if (!out.empty()) out += "; ";
    out += c->name;
    out += '=';
    out += c->value;
  }
}

std::optional<Cookie> CookieJar::find(std::string_view name,
                                      std::string_view domain,
                                      std::string_view path) const {
  for (const auto& c : cookies_) {
    if (c.name == name && c.domain == domain && c.path == path) return c;
  }
  return std::nullopt;
}

bool CookieJar::remove(std::string_view name, std::string_view domain,
                       std::string_view path) {
  const auto count = std::erase_if(cookies_, [&](const Cookie& c) {
    return c.name == name && c.domain == domain && c.path == path;
  });
  return count > 0;
}

std::size_t CookieJar::purge_expired(TimeMillis now) {
  return std::erase_if(cookies_,
                       [&](const Cookie& c) { return c.expired(now); });
}

}  // namespace cg::cookies
