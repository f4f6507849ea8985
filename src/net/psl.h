// Minimal embedded public-suffix list and eTLD+1 ("registrable domain")
// computation.
//
// The paper attributes every script and cookie to a domain at eTLD+1
// granularity ("we log ... the ETLD+1 of the script or server that created
// it", §6.1). A full Mozilla PSL is ~9k rules; the embedded subset here
// covers every suffix that occurs in the synthetic corpus plus the common
// multi-label suffixes needed for correctness tests (co.uk, com.au,
// github.io, ...). Unknown TLDs fall back to the last label, matching PSL
// semantics ("If no rules match, the prevailing rule is '*'").
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace cg::net {

// All four functions are pure and allocate nothing beyond etld_plus_one's
// result when their input is already lower-case (every Url host is).

/// True if `host` is exactly a public suffix (e.g. "com", "co.uk").
bool is_public_suffix(std::string_view host);

/// Returns the registrable domain (eTLD+1) of `host`, lower-cased.
///
/// Examples:
///   etld_plus_one("www.example.co.uk")     == "example.co.uk"
///   etld_plus_one("cdn.shopifycloud.com")  == "shopifycloud.com"
///   etld_plus_one("example.com")           == "example.com"
///   etld_plus_one("com")                   == ""   (a bare suffix has no +1)
///   etld_plus_one("127.0.0.1")             == "127.0.0.1" (IP literals)
std::string etld_plus_one(std::string_view host);

/// True if both hosts share the same registrable domain. The paper's
/// "cross-domain" definition compares eTLD+1, not full origins (§3, fn. 1).
bool same_site(std::string_view host_a, std::string_view host_b);

/// True iff `host` equals `domain` or is a subdomain of it
/// (RFC 6265 §5.1.3 domain-matching, for host-vs-cookie-domain checks).
bool domain_matches(std::string_view host, std::string_view domain);

/// Memo of etld_plus_one per host. A visit meets a few dozen hosts from a
/// finite catalog but asks for their sites thousands of times (every
/// cookie access, request and script inclusion), so each host is resolved
/// once. Not thread-safe: browser::Browser owns one per visit, which keeps
/// it on the crawl worker running that visit and bounds its size by the
/// visit's hosts.
class SiteCache {
 public:
  /// etld_plus_one(host), computed the first time `host` is seen. The
  /// reference stays valid for the cache's lifetime.
  const std::string& site_of(std::string_view host);

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, std::string, Hash, std::equal_to<>> sites_;
};

}  // namespace cg::net
