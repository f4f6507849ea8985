// Unit tests for the net substrate: URL parsing, PSL/eTLD+1, percent and
// query codecs, HTTP headers, cookie-date parsing, Set-Cookie parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "net/http.h"
#include "net/http_date.h"
#include "net/percent.h"
#include "net/psl.h"
#include "net/query.h"
#include "net/set_cookie.h"
#include "net/url.h"

namespace cg::net {
namespace {

// ---------------------------------------------------------------- Url ----

TEST(UrlTest, ParsesBasicHttpsUrl) {
  const auto url = Url::parse("https://www.example.com/path/page?x=1#frag");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->scheme(), "https");
  EXPECT_EQ(url->host(), "www.example.com");
  EXPECT_EQ(url->port(), 443);
  EXPECT_EQ(url->path(), "/path/page");
  EXPECT_EQ(url->query(), "x=1");
  EXPECT_EQ(url->fragment(), "frag");
}

TEST(UrlTest, DefaultPortsPerScheme) {
  EXPECT_EQ(Url::must_parse("http://a.com/").port(), 80);
  EXPECT_EQ(Url::must_parse("https://a.com/").port(), 443);
  EXPECT_EQ(Url::must_parse("https://a.com:8443/").port(), 8443);
}

TEST(UrlTest, HostIsLowercased) {
  EXPECT_EQ(Url::must_parse("https://WWW.Example.COM/").host(),
            "www.example.com");
}

TEST(UrlTest, EmptyPathBecomesSlash) {
  EXPECT_EQ(Url::must_parse("https://example.com").path(), "/");
}

TEST(UrlTest, RejectsGarbage) {
  EXPECT_FALSE(Url::parse("not a url").has_value());
  EXPECT_FALSE(Url::parse("https://").has_value());
  EXPECT_FALSE(Url::parse("://host").has_value());
  EXPECT_FALSE(Url::parse("https://host:notaport/").has_value());
  EXPECT_FALSE(Url::parse("https://host:70000/").has_value());
}

TEST(UrlTest, OriginOmitsDefaultPort) {
  EXPECT_EQ(Url::must_parse("https://a.com/x").origin(), "https://a.com");
  EXPECT_EQ(Url::must_parse("https://a.com:444/x").origin(),
            "https://a.com:444");
}

TEST(UrlTest, SiteIsEtldPlusOne) {
  EXPECT_EQ(Url::must_parse("https://cdn.shopifycloud.com/x.js").site(),
            "shopifycloud.com");
  EXPECT_EQ(Url::must_parse("https://a.b.example.co.uk/").site(),
            "example.co.uk");
}

TEST(UrlTest, SpecRoundTrips) {
  const std::string spec = "https://sub.example.com:8443/a/b?k=v#top";
  EXPECT_EQ(Url::must_parse(spec).spec(), spec);
}

TEST(UrlTest, ResolveAbsolutePath) {
  const auto base = Url::must_parse("https://example.com/dir/page?a=1");
  EXPECT_EQ(base.resolve("/other?b=2").spec(),
            "https://example.com/other?b=2");
}

TEST(UrlTest, ResolveRelativePath) {
  const auto base = Url::must_parse("https://example.com/dir/page");
  EXPECT_EQ(base.resolve("next").spec(), "https://example.com/dir/next");
}

TEST(UrlTest, ResolveAbsoluteUrlReplacesEverything) {
  const auto base = Url::must_parse("https://example.com/dir/");
  EXPECT_EQ(base.resolve("https://other.org/x").spec(),
            "https://other.org/x");
}

TEST(UrlTest, ResolveQueryOnly) {
  const auto base = Url::must_parse("https://example.com/p?old=1");
  EXPECT_EQ(base.resolve("?new=2").spec(), "https://example.com/p?new=2");
}

TEST(UrlTest, DefaultCookiePath) {
  EXPECT_EQ(Url::must_parse("https://a.com/").default_cookie_path(), "/");
  EXPECT_EQ(Url::must_parse("https://a.com/x").default_cookie_path(), "/");
  EXPECT_EQ(Url::must_parse("https://a.com/dir/page").default_cookie_path(),
            "/dir");
}

TEST(UrlTest, StripsUserinfo) {
  EXPECT_EQ(Url::must_parse("https://user:pw@example.com/").host(),
            "example.com");
}

TEST(UrlTest, SameSiteComparesRegistrableDomains) {
  const auto a = Url::must_parse("https://www.facebook.com/");
  const auto b = Url::must_parse("https://static.facebook.com/");
  const auto c = Url::must_parse("https://fbcdn.net/");
  EXPECT_TRUE(same_site(a, b));
  // The paper's facebook.com/fbcdn.net breakage case: different sites.
  EXPECT_FALSE(same_site(a, c));
}

// ---------------------------------------------------------------- PSL ----

TEST(PslTest, SimpleTlds) {
  EXPECT_EQ(etld_plus_one("www.example.com"), "example.com");
  EXPECT_EQ(etld_plus_one("example.com"), "example.com");
  EXPECT_EQ(etld_plus_one("a.b.c.example.org"), "example.org");
}

TEST(PslTest, MultiLabelSuffixes) {
  EXPECT_EQ(etld_plus_one("www.example.co.uk"), "example.co.uk");
  EXPECT_EQ(etld_plus_one("shop.example.com.au"), "example.com.au");
}

TEST(PslTest, PrivateSectionSuffixes) {
  EXPECT_EQ(etld_plus_one("user.github.io"), "user.github.io");
  EXPECT_EQ(etld_plus_one("store.myshopify.com"), "store.myshopify.com");
}

TEST(PslTest, BareSuffixHasNoRegistrableDomain) {
  EXPECT_EQ(etld_plus_one("com"), "");
  EXPECT_EQ(etld_plus_one("co.uk"), "");
}

TEST(PslTest, UnknownTldFallsBackToLastLabel) {
  EXPECT_EQ(etld_plus_one("www.example.zz"), "example.zz");
}

TEST(PslTest, IpLiteralsAreTheirOwnSite) {
  EXPECT_EQ(etld_plus_one("127.0.0.1"), "127.0.0.1");
}

TEST(PslTest, CaseAndTrailingDotNormalised) {
  EXPECT_EQ(etld_plus_one("WWW.Example.COM."), "example.com");
}

TEST(PslTest, IsPublicSuffix) {
  EXPECT_TRUE(is_public_suffix("com"));
  EXPECT_TRUE(is_public_suffix("co.uk"));
  EXPECT_TRUE(is_public_suffix("github.io"));
  EXPECT_FALSE(is_public_suffix("example.com"));
}

TEST(PslTest, DomainMatches) {
  EXPECT_TRUE(domain_matches("www.example.com", "example.com"));
  EXPECT_TRUE(domain_matches("example.com", "example.com"));
  EXPECT_TRUE(domain_matches("a.example.com", ".example.com"));
  EXPECT_FALSE(domain_matches("badexample.com", "example.com"));
  EXPECT_FALSE(domain_matches("example.com", "www.example.com"));
}

TEST(PslTest, SameSiteHosts) {
  EXPECT_TRUE(same_site("www.zoom.us", "zoom.us"));
  EXPECT_FALSE(same_site("microsoft.com", "live.com"));
  EXPECT_FALSE(same_site("com", "com"));  // bare suffixes never same-site
}

// ------------------------------------------- PSL vs linear-scan oracle ----

// The public-suffix code as it was before the candidate-suffix lookup:
// lower-case into a copy, then scan all 58 suffixes. Kept verbatim as the
// oracle the lookup must agree with.
namespace oracle {

constexpr std::array<std::string_view, 58> kSuffixes = {
    "com", "org", "net", "io", "co", "ai", "de", "fr", "jp", "ru", "uk",
    "us", "eu", "info", "biz", "tv", "me", "app", "dev", "cloud", "media",
    "agency", "online", "shop", "store", "site", "xyz", "news", "blog",
    "edu", "gov", "mil", "int", "ac",
    "co.uk", "org.uk", "ac.uk", "gov.uk", "co.jp", "ne.jp", "or.jp",
    "com.au", "net.au", "org.au", "com.br", "com.cn", "com.tr", "co.in",
    "co.kr", "com.mx", "co.za",
    "github.io", "gitlab.io", "netlify.app", "herokuapp.com",
    "blogspot.com", "myshopify.com", "amazonaws.com",
};

bool is_ip_literal(std::string_view host) {
  return !host.empty() &&
         host.find_first_not_of("0123456789.") == std::string_view::npos &&
         std::count(host.begin(), host.end(), '.') == 3;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::size_t suffix_length(std::string_view host) {
  std::size_t best = 0;
  for (const auto suffix : kSuffixes) {
    if (host.size() == suffix.size() && host == suffix) {
      best = std::max(best, suffix.size());
    } else if (host.size() > suffix.size() && host.ends_with(suffix) &&
               host[host.size() - suffix.size() - 1] == '.') {
      best = std::max(best, suffix.size());
    }
  }
  if (best == 0) {
    const auto dot = host.rfind('.');
    best = (dot == std::string_view::npos) ? host.size() : host.size() - dot - 1;
  }
  return best;
}

bool is_public_suffix(std::string_view host) {
  const std::string lower = to_lower(host);
  return !lower.empty() && suffix_length(lower) == lower.size();
}

std::string etld_plus_one(std::string_view host) {
  std::string lower = to_lower(host);
  while (!lower.empty() && lower.back() == '.') lower.pop_back();
  if (lower.empty()) return {};
  if (is_ip_literal(lower)) return lower;
  const std::size_t suffix_len = suffix_length(lower);
  if (suffix_len >= lower.size()) return {};
  const std::string_view rest =
      std::string_view(lower).substr(0, lower.size() - suffix_len - 1);
  const auto dot = rest.rfind('.');
  const std::size_t start = (dot == std::string_view::npos) ? 0 : dot + 1;
  return lower.substr(start);
}

bool domain_matches(std::string_view host, std::string_view domain) {
  const std::string h = to_lower(host);
  std::string d = to_lower(domain);
  if (!d.empty() && d.front() == '.') d.erase(d.begin());
  if (h == d) return true;
  return h.size() > d.size() && h.ends_with(d) &&
         h[h.size() - d.size() - 1] == '.' && !is_ip_literal(h);
}

}  // namespace oracle

void expect_psl_agrees(const std::string& host) {
  EXPECT_EQ(etld_plus_one(host), oracle::etld_plus_one(host)) << host;
  EXPECT_EQ(is_public_suffix(host), oracle::is_public_suffix(host)) << host;
  const std::string site = oracle::etld_plus_one(host);
  for (const std::string& domain :
       {site, "." + site, host, std::string("com"), std::string("")}) {
    EXPECT_EQ(domain_matches(host, domain),
              oracle::domain_matches(host, domain))
        << host << " vs " << domain;
  }
}

// "{site}" stands for the visited page's host in catalog templates.
std::string expand(std::string_view tpl, std::string_view site_host) {
  std::string out(tpl);
  if (const auto pos = out.find("{site}"); pos != std::string::npos) {
    out.replace(pos, 6, site_host);
  }
  return out;
}

void collect_op_hosts(const std::vector<script::ScriptOp>& ops,
                      std::string_view site_host, std::set<std::string>& out) {
  for (const auto& op : ops) {
    if (!op.dest_host.empty()) out.insert(expand(op.dest_host, site_host));
    if (!op.helper_script_url.empty()) {
      if (const auto url = Url::parse(op.helper_script_url)) {
        out.insert(url->host());
      }
    }
    collect_op_hosts(op.nested, site_host, out);
  }
}

TEST(PslOracleTest, EveryCorpusHostAgreesWithLinearScan) {
  corpus::CorpusParams params;
  params.site_count = 400;
  const corpus::Corpus corpus(params);
  std::set<std::string> hosts;
  for (int i = 0; i < corpus.size(); ++i) {
    const auto& bp = corpus.site(i);
    hosts.insert(bp.host);
    if (!bp.cloaked_host.empty()) hosts.insert(bp.cloaked_host);
  }
  const std::string some_site = corpus.site(0).host;
  for (const auto& [id, spec] : corpus.catalog().all()) {
    if (!spec.is_inline) {
      if (const auto url = Url::parse(expand(spec.url_template, some_site))) {
        hosts.insert(url->host());
      }
    }
    collect_op_hosts(spec.ops, some_site, hosts);
  }
  ASSERT_GT(hosts.size(), 400u);
  for (const auto& host : hosts) {
    expect_psl_agrees(host);
    // The same hosts as they reach the API un-normalised.
    std::string upper = host;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    expect_psl_agrees(upper);
    expect_psl_agrees(host + ".");
  }
}

TEST(PslOracleTest, EdgeCasesAgreeWithLinearScan) {
  for (const std::string host : {
           "", ".", "..", "com", "COM", "com.", "co.uk", "Co.Uk.", "uk",
           "a..com", "..com", ".com", "a.com..", "example..co.uk",
           "x.herokuapp.com", "herokuapp.com", "a.b.herokuapp.com",
           "user.github.io", "github.io", "x.netlify.app", "netlify.app",
           "127.0.0.1", "10.0.0.1.", "1.2.3", "1.2.3.4.5", "256.1.1.1",
           "www.example.zz", "zz", "a.b.c.d.example.com.au", "com.au",
           "shop.example.co.jp", "example.ne.jp", "EXAMPLE.COM", "Ex.AmPle.Org",
           "a.co", "co", "amazonaws.com", "s3.amazonaws.com", "x.y.z"}) {
    expect_psl_agrees(host);
  }
  EXPECT_EQ(domain_matches("10.0.0.1", "0.0.1"),
            oracle::domain_matches("10.0.0.1", "0.0.1"));
  EXPECT_EQ(domain_matches("A.Example.COM", ".EXAMPLE.com"),
            oracle::domain_matches("A.Example.COM", ".EXAMPLE.com"));
}

TEST(SiteCacheTest, MemoizesEtldPlusOnePerHost) {
  SiteCache cache;
  const std::string& first = cache.site_of("www.example.co.uk");
  EXPECT_EQ(first, "example.co.uk");
  EXPECT_EQ(&cache.site_of("www.example.co.uk"), &first);  // same entry
  EXPECT_EQ(cache.site_of("WWW.Example.COM."), "example.com");
  EXPECT_EQ(cache.site_of("com"), "");
  EXPECT_EQ(first, "example.co.uk");  // stable across later insertions
}

// ------------------------------------------------------------ percent ----

TEST(PercentTest, EncodeUnreservedPassThrough) {
  EXPECT_EQ(percent_encode("AZaz09-._~"), "AZaz09-._~");
}

TEST(PercentTest, EncodeReservedAndSpace) {
  EXPECT_EQ(percent_encode("a b&c=d"), "a%20b%26c%3Dd");
}

TEST(PercentTest, DecodeRoundTrip) {
  const std::string original = "GA1.1.444332364.1746838827&x=%zz";
  EXPECT_EQ(percent_decode(percent_encode(original)), original);
}

TEST(PercentTest, MalformedEscapesPassThrough) {
  EXPECT_EQ(percent_decode("%zz%4"), "%zz%4");
}

TEST(PercentTest, FormDecodePlusAsSpace) {
  EXPECT_EQ(form_decode("a+b%2Bc"), "a b+c");
}

// -------------------------------------------------------------- query ----

TEST(QueryTest, ParsesPairs) {
  const auto params = parse_query("a=1&b=two&c=");
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0], (QueryParam{"a", "1"}));
  EXPECT_EQ(params[1], (QueryParam{"b", "two"}));
  EXPECT_EQ(params[2], (QueryParam{"c", ""}));
}

TEST(QueryTest, KeyWithoutEquals) {
  const auto params = parse_query("flag&k=v");
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0], (QueryParam{"flag", ""}));
}

TEST(QueryTest, SkipsEmptySegments) {
  EXPECT_EQ(parse_query("&&a=1&&").size(), 1u);
  EXPECT_TRUE(parse_query("").empty());
}

TEST(QueryTest, DecodesValues) {
  const auto params = parse_query("name=John%20Doe&sym=%26");
  EXPECT_EQ(query_value(params, "name"), "John Doe");
  EXPECT_EQ(query_value(params, "sym"), "&");
}

TEST(QueryTest, BuildRoundTrips) {
  const std::vector<QueryParam> params = {{"fbp", "fb.1.123.456"},
                                          {"u r l", "a&b"}};
  const auto rebuilt = parse_query(build_query(params));
  EXPECT_EQ(rebuilt, params);
}

// ------------------------------------------------------------ headers ----

TEST(HttpHeadersTest, CaseInsensitiveGet) {
  HttpHeaders h;
  h.add("Content-Type", "text/html");
  EXPECT_EQ(h.get("content-type"), "text/html");
  EXPECT_EQ(h.get("CONTENT-TYPE"), "text/html");
  EXPECT_FALSE(h.get("content-length").has_value());
}

TEST(HttpHeadersTest, SetCookieMayRepeat) {
  HttpHeaders h;
  h.add("Set-Cookie", "a=1");
  h.add("Set-Cookie", "b=2; HttpOnly");
  const auto all = h.get_all("set-cookie");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], "a=1");
  EXPECT_EQ(all[1], "b=2; HttpOnly");
}

TEST(HttpHeadersTest, SetReplacesAll) {
  HttpHeaders h;
  h.add("X", "1");
  h.add("X", "2");
  h.set("x", "3");
  EXPECT_EQ(h.get_all("X").size(), 1u);
  EXPECT_EQ(h.get("X"), "3");
}

TEST(HttpHeadersTest, Remove) {
  HttpHeaders h;
  h.add("A", "1");
  h.add("B", "2");
  h.remove("a");
  EXPECT_FALSE(h.has("A"));
  EXPECT_TRUE(h.has("B"));
}

// --------------------------------------------------------------- date ----

TEST(HttpDateTest, ParsesRfc1123) {
  const auto t = parse_cookie_date("Wed, 09 Jun 2021 10:18:14 GMT");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 1623233894000LL);
}

TEST(HttpDateTest, ParsesEpoch) {
  const auto t = parse_cookie_date("Thu, 01 Jan 1970 00:00:00 GMT");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 0);
}

TEST(HttpDateTest, ParsesLegacyTwoDigitYear) {
  // RFC 6265 tolerant format; 94 -> 1994.
  const auto t = parse_cookie_date("Sunday, 06-Nov-94 08:49:37 GMT");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 784111777000LL);
}

TEST(HttpDateTest, TwoDigitYearBelow70IsTwoThousands) {
  const auto t = parse_cookie_date("01 Jan 30 00:00:00");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(format_http_date(*t), "Tue, 01 Jan 2030 00:00:00 GMT");
}

TEST(HttpDateTest, RejectsDatesWithoutAllFields) {
  EXPECT_FALSE(parse_cookie_date("Wed, 09 Jun 2021").has_value());
  EXPECT_FALSE(parse_cookie_date("garbage").has_value());
  EXPECT_FALSE(parse_cookie_date("").has_value());
}

TEST(HttpDateTest, RejectsOutOfRangeTime) {
  EXPECT_FALSE(parse_cookie_date("09 Jun 2021 25:00:00").has_value());
}

TEST(HttpDateTest, FormatRoundTrips) {
  const TimeMillis t = 1746838846000LL;  // from the paper's LinkedIn case
  const auto parsed = parse_cookie_date(format_http_date(t));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, t);
}

TEST(HttpDateTest, FormatKnownDate) {
  EXPECT_EQ(format_http_date(784111777000LL),
            "Sun, 06 Nov 1994 08:49:37 GMT");
}

// ---------------------------------------------------------- SetCookie ----

TEST(SetCookieTest, SimplePair) {
  const auto c = parse_set_cookie("_ga=GA1.1.444332364.1746838827");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->name, "_ga");
  EXPECT_EQ(c->value, "GA1.1.444332364.1746838827");
  EXPECT_FALSE(c->secure);
  EXPECT_FALSE(c->http_only);
}

TEST(SetCookieTest, AllAttributes) {
  const auto c = parse_set_cookie(
      "sid=abc123; Domain=.example.com; Path=/app; "
      "Expires=Wed, 09 Jun 2021 10:18:14 GMT; Secure; HttpOnly; "
      "SameSite=Lax");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->name, "sid");
  EXPECT_EQ(c->domain, "example.com");  // leading dot stripped
  EXPECT_EQ(c->path, "/app");
  ASSERT_TRUE(c->expires.has_value());
  EXPECT_TRUE(c->secure);
  EXPECT_TRUE(c->http_only);
  EXPECT_EQ(c->same_site, SameSite::kLax);
}

TEST(SetCookieTest, MaxAge) {
  const auto c = parse_set_cookie("k=v; Max-Age=3600");
  ASSERT_TRUE(c.has_value());
  ASSERT_TRUE(c->max_age_ms.has_value());
  EXPECT_EQ(*c->max_age_ms, 3600'000);
}

TEST(SetCookieTest, NegativeMaxAgeParsesAsDeletion) {
  const auto c = parse_set_cookie("k=v; Max-Age=-1");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c->max_age_ms, -1000);
}

TEST(SetCookieTest, AttributeNamesCaseInsensitive) {
  const auto c = parse_set_cookie("k=v; SECURE; httponly; samesite=STRICT");
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->secure);
  EXPECT_TRUE(c->http_only);
  EXPECT_EQ(c->same_site, SameSite::kStrict);
}

TEST(SetCookieTest, ValueMayContainEquals) {
  const auto c = parse_set_cookie("data=a=b=c; Path=/");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->name, "data");
  EXPECT_EQ(c->value, "a=b=c");
}

TEST(SetCookieTest, InvalidExpiresIgnored) {
  const auto c = parse_set_cookie("k=v; Expires=not-a-date");
  ASSERT_TRUE(c.has_value());
  EXPECT_FALSE(c->expires.has_value());
}

TEST(SetCookieTest, NonSlashPathIgnored) {
  const auto c = parse_set_cookie("k=v; Path=relative");
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->path.empty());
}

TEST(SetCookieTest, EmptyHeaderRejected) {
  EXPECT_FALSE(parse_set_cookie("").has_value());
  EXPECT_FALSE(parse_set_cookie("=").has_value());
}

TEST(SetCookieTest, WhitespaceTrimmed) {
  const auto c = parse_set_cookie("  name =  value ; Path = /x ");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->name, "name");
  EXPECT_EQ(c->value, "value");
  EXPECT_EQ(c->path, "/x");
}

TEST(SetCookieTest, PartitionedAttribute) {
  const auto c = parse_set_cookie("__Host-id=a1b2; Secure; Path=/; Partitioned");
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->partitioned);
  EXPECT_TRUE(c->secure);

  // Case-insensitive, like every other attribute name.
  const auto lower = parse_set_cookie("k=v; partitioned");
  ASSERT_TRUE(lower.has_value());
  EXPECT_TRUE(lower->partitioned);
  // The parser records the attribute even without Secure — CHIPS's
  // Secure requirement is a storage-model rule (cookies::CookieJar), and
  // the measurement pipeline must see the malformed header as sent.
  EXPECT_FALSE(lower->secure);

  const auto absent = parse_set_cookie("k=v; Secure");
  ASSERT_TRUE(absent.has_value());
  EXPECT_FALSE(absent->partitioned);
}

TEST(SetCookieTest, SerializeRoundTripsEveryAttribute) {
  ParsedSetCookie c;
  c.name = "sid";
  c.value = "a=b=c";
  c.domain = "example.com";
  c.path = "/app";
  c.expires = 1746748800000;  // second-aligned, expressible as an HTTP date
  c.max_age_ms = 3600'000;
  c.secure = true;
  c.http_only = true;
  c.same_site = SameSite::kLax;
  c.partitioned = true;

  const auto again = parse_set_cookie(serialize_set_cookie(c));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->name, c.name);
  EXPECT_EQ(again->value, c.value);
  EXPECT_EQ(again->domain, c.domain);
  EXPECT_EQ(again->path, c.path);
  EXPECT_EQ(again->expires, c.expires);
  EXPECT_EQ(again->max_age_ms, c.max_age_ms);
  EXPECT_EQ(again->secure, c.secure);
  EXPECT_EQ(again->http_only, c.http_only);
  EXPECT_EQ(again->same_site, c.same_site);
  EXPECT_EQ(again->partitioned, c.partitioned);
}

TEST(SetCookieTest, SerializeRoundTripsBarePair) {
  ParsedSetCookie c;
  c.name = "_ga";
  c.value = "GA1.1.444332364.1746838827";
  const std::string header = serialize_set_cookie(c);
  EXPECT_EQ(header, "_ga=GA1.1.444332364.1746838827");
  const auto again = parse_set_cookie(header);
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(again->partitioned);
  EXPECT_EQ(again->same_site, SameSite::kUnspecified);
}

}  // namespace
}  // namespace cg::net

// Appended: DNS / CNAME-chain tests (paper §8 cloaking substrate).
#include "net/dns.h"

namespace cg::net {
namespace {

TEST(DnsTest, UnknownHostResolvesToItself) {
  DnsResolver dns;
  EXPECT_EQ(dns.resolve_canonical("www.example.com"), "www.example.com");
  EXPECT_FALSE(dns.has_cname("www.example.com"));
}

TEST(DnsTest, SingleCname) {
  DnsResolver dns;
  dns.add_cname("metrics.example.com", "collect.cloaktrack.net");
  EXPECT_EQ(dns.resolve_canonical("metrics.example.com"),
            "collect.cloaktrack.net");
  EXPECT_TRUE(dns.has_cname("metrics.example.com"));
}

TEST(DnsTest, FollowsChains) {
  DnsResolver dns;
  dns.add_cname("a.site.com", "b.cdn.net");
  dns.add_cname("b.cdn.net", "c.tracker.io");
  EXPECT_EQ(dns.resolve_canonical("a.site.com"), "c.tracker.io");
}

TEST(DnsTest, BoundsCnameLoops) {
  DnsResolver dns;
  dns.add_cname("x.com", "y.com");
  dns.add_cname("y.com", "x.com");
  const auto resolved = dns.resolve_canonical("x.com");  // must terminate
  EXPECT_TRUE(resolved == "x.com" || resolved == "y.com");
}

TEST(DnsTest, LaterRecordWins) {
  DnsResolver dns;
  dns.add_cname("h.com", "first.net");
  dns.add_cname("h.com", "second.net");
  EXPECT_EQ(dns.resolve_canonical("h.com"), "second.net");
}

TEST(DnsTest, CnameLoopSurfacesAsResolutionFailure) {
  DnsResolver dns;
  dns.add_cname("x.com", "y.com");
  dns.add_cname("y.com", "x.com");
  const auto resolution = dns.resolve("x.com");
  EXPECT_FALSE(resolution.ok());
  EXPECT_EQ(resolution.status, DnsStatus::kCnameLoop);
  // The canonical name falls back to the queried host, never an
  // intermediate hop of the looping chain.
  EXPECT_EQ(resolution.canonical, "x.com");
}

TEST(DnsTest, SelfLoopFails) {
  DnsResolver dns;
  dns.add_cname("me.com", "me.com");
  EXPECT_EQ(dns.resolve("me.com").status, DnsStatus::kCnameLoop);
}

TEST(DnsTest, OverlongChainFails) {
  DnsResolver dns;
  const auto host = [](int i) {
    // Built by append — chained operator+ here trips the GCC 12 -Wrestrict
    // false positive (PR 105329) under warnings-as-errors.
    std::string h = "h";
    h += std::to_string(i);
    h += ".com";
    return h;
  };
  for (int i = 0; i < 12; ++i) {
    dns.add_cname(host(i), host(i + 1));
  }
  const auto resolution = dns.resolve("h0.com");
  EXPECT_FALSE(resolution.ok());
  EXPECT_EQ(resolution.status, DnsStatus::kChainTooLong);
  EXPECT_EQ(resolution.canonical, "h0.com");
  // A chain within the hop budget still resolves.
  EXPECT_EQ(dns.resolve("h8.com").status, DnsStatus::kOk);
}

TEST(DnsTest, InjectedFailuresApplyAndClear) {
  DnsResolver dns;
  dns.add_cname("alias.com", "target.net");
  dns.inject_failure("alias.com", DnsStatus::kNxDomain);
  const auto failed = dns.resolve("alias.com");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status, DnsStatus::kNxDomain);
  EXPECT_EQ(failed.canonical, "alias.com");
  // Compat path degrades to the queried host rather than lying about hops.
  EXPECT_EQ(dns.resolve_canonical("alias.com"), "alias.com");

  dns.clear_failures();
  EXPECT_EQ(dns.resolve("alias.com").status, DnsStatus::kOk);
  EXPECT_EQ(dns.resolve_canonical("alias.com"), "target.net");
}

}  // namespace
}  // namespace cg::net
