#include "browser/page.h"

#include <utility>

#include "net/psl.h"
#include "obs/trace.h"
#include "script/interpreter.h"

namespace cg::browser {
namespace {

// Expands "{site}" in first-party script URL templates.
std::string expand_site(std::string_view url_template, std::string_view host) {
  std::string out(url_template);
  const auto pos = out.find("{site}");
  if (pos != std::string::npos) out.replace(pos, 6, host);
  return out;
}

constexpr int kMaxInclusionDepth = 8;

// Right-skewed latency: base + jitter * u1*u2*u3 (mean base + jitter/8,
// median ~ base + 0.069*jitter) — the long-tailed shape of real page loads.
TimeMillis skewed_latency(TimeMillis base, TimeMillis jitter,
                          cg::script::Rng& rng) {
  const double u = rng.uniform() * rng.uniform() * rng.uniform();
  return base + static_cast<TimeMillis>(static_cast<double>(jitter) * u);
}

}  // namespace

class Page::FrameGuard {
 public:
  /// Pushes a frame running `ctx`'s code: its script URL (none for inline
  /// scripts) and, as the frame's origin, the script_domain the context
  /// already resolved.
  FrameGuard(webplat::StackTrace& stack, const script::ExecContext& ctx,
             std::string function_name)
      : stack_(stack) {
    if (ctx.inline_script || ctx.script_url.empty()) {
      stack_.push({"", std::move(function_name), false, std::nullopt});
    } else {
      stack_.push({ctx.script_url, std::move(function_name), false,
                   ctx.script_domain});
    }
  }
  ~FrameGuard() { stack_.pop(); }
  FrameGuard(const FrameGuard&) = delete;
  FrameGuard& operator=(const FrameGuard&) = delete;

 private:
  webplat::StackTrace& stack_;
};

Page::Page(Browser& browser, net::Url url)
    : browser_(browser),
      url_(url),
      top_level_site_(browser.site_of(url_.host())),
      main_frame_(std::move(url), nullptr),
      loop_(&browser.clock()) {}

TimeMillis Page::now() const { return browser_.clock().now(); }

void Page::charge_api_call() {
  browser_.clock().advance(browser_.config().api_base_cost_ms +
                           browser_.extension_api_overhead_ms());
}

bool Page::load() {
  auto& clock = browser_.clock();
  auto& rng = browser_.rng();
  const auto& config = browser_.config();
  nav_start_ = clock.now();

  // Document fetch.
  clock.advance(
      skewed_latency(config.doc_fetch_base_ms, config.doc_fetch_jitter_ms,
                     rng));
  net::HttpRequest doc_request;
  doc_request.method = net::HttpMethod::kGet;
  doc_request.url = url_;
  doc_request.destination = net::RequestDestination::kDocument;
  const net::HttpResponse doc_response = fetch(std::move(doc_request), nullptr);
  if (!doc_response.transport_ok()) {
    load_failure_ = doc_response.net_error == net::NetError::kDnsFailure
                        ? fault::FailureClass::kDnsFailure
                        : fault::FailureClass::kConnectTimeout;
    return false;
  }

  spec_ = browser_.document_for(url_);

  // Parse static DOM; materialise link elements for the crawler.
  clock.advance(spec_.static_dom_nodes / config.dom_nodes_per_ms);
  auto& document = main_frame_.document();
  for (const auto& path : spec_.link_paths) {
    auto& anchor = document.create_element("a", "");
    document.set_attribute(anchor, "href", path, "");
    document.append_child(document.body(), anchor, "");
  }
  timings_.dom_interactive = clock.now() - nav_start_;

  // Static scripts, document order.
  for (const auto& id : spec_.script_ids) {
    include_script(id, script::Inclusion::kDirect, nullptr);
  }
  timings_.dom_content_loaded = clock.now() - nav_start_;

  // Subresources (images/CSS) and deferred script work.
  clock.advance(skewed_latency(config.subresource_base_ms,
                               config.subresource_jitter_ms, rng));
  loop_.run_until_idle();
  timings_.load_event = clock.now() - nav_start_;

  for (auto* extension : browser_.extensions()) {
    extension->on_page_finished(*this);
  }
  return true;
}

void Page::simulate_scroll() {
  browser_.clock().advance(120);
  loop_.run_until_idle();
}

script::ExecContext Page::make_context(
    const script::ScriptSpec& spec, script::Inclusion inclusion,
    const script::ExecContext* includer) const {
  script::ExecContext ctx;
  ctx.script_id = spec.id;
  ctx.category = spec.category;
  ctx.inclusion = inclusion;
  if (includer != nullptr) {
    ctx.inclusion_chain = includer->inclusion_chain;
    ctx.inclusion_chain.push_back(includer->script_id);
  }
  if (!spec.is_inline) {
    ctx.script_url = expand_site(spec.url_template, url_.host());
    ctx.url = net::Url::must_parse(ctx.script_url);
    ctx.script_domain = browser_.site_of(ctx.url.host());
  } else {
    ctx.inline_script = true;
  }
  return ctx;
}

void Page::include_script(std::string_view script_id,
                          script::Inclusion inclusion,
                          const script::ExecContext* includer) {
  if (inclusion_depth_ >= kMaxInclusionDepth) return;
  const auto* spec = browser_.catalog() != nullptr
                         ? browser_.catalog()->find(script_id)
                         : nullptr;
  if (spec == nullptr) return;

  const script::ExecContext ctx = make_context(*spec, inclusion, includer);

  for (auto* extension : browser_.extensions()) {
    if (!extension->allow_script_include(*this, ctx)) return;
  }
  for (auto* extension : browser_.extensions()) {
    extension->on_script_included(*this, ctx);
  }

  bool fetch_failed = false;
  if (!spec->is_inline) {
    // Fetch the script resource.
    const auto& config = browser_.config();
    browser_.clock().advance(static_cast<TimeMillis>(
        config.script_fetch_base_ms +
        browser_.rng().below(
            static_cast<std::uint64_t>(config.script_fetch_jitter_ms) + 1)));
    net::HttpRequest request;
    request.method = net::HttpMethod::kGet;
    request.url = ctx.url;
    request.destination = net::RequestDestination::kScript;
    request.initiator =
        includer != nullptr ? includer->script_url : url_.spec();
    fetch_failed = !fetch(std::move(request), includer).transport_ok();
  }

  // Record the script element in the DOM (owner = includer's domain for
  // dynamic inserts, parser for static).
  auto& document = main_frame_.document();
  auto& element = document.create_element(
      "script", includer != nullptr ? includer->script_domain : "");
  if (!ctx.script_url.empty()) {
    document.set_attribute(element, "src", ctx.script_url,
                           includer != nullptr ? includer->script_domain : "");
  }
  document.append_child(document.body(), element,
                        includer != nullptr ? includer->script_domain : "");

  // A script whose fetch died in transport leaves its element in the DOM
  // but never executes — the degraded-visit shape real crawls record.
  if (fetch_failed) return;

  // Inline scripts get no URL on the stack, but are distinguishable as DOM
  // elements — real extensions can hash their source text. The frame's
  // function name carries that content identity for signature matching.
  FrameGuard guard(stack_, ctx,
                   ctx.inline_script ? "inline:" + ctx.script_id : "<top>");
  ++inclusion_depth_;
  script::run_program(spec->ops, ctx, *this);
  --inclusion_depth_;
}

void Page::run_catalog_script(std::string_view script_id) {
  include_script(script_id, script::Inclusion::kDirect, nullptr);
}

void Page::run_as(const script::ExecContext& ctx,
                  const std::function<void(script::PageServices&)>& body) {
  FrameGuard guard(stack_, ctx, "<adhoc>");
  body(*this);
}

// ---- subframes (SOP boundary) -------------------------------------------

/// PageServices for a cross-origin subframe: cookie operations hit a
/// partitioned jar, DOM access goes to the frame's own document, and script
/// inclusion/injection stays inside the frame. Nothing here can reach the
/// main frame's first-party jar — SOP at work (paper §3).
///
/// Which partitioned jar depends on the active policy's frame_jar_scope():
/// kPage passes the legacy per-page ephemeral jar keyed by frame origin
/// (`legacy_jar` non-null, byte-identical to the pre-policy simulator);
/// kBrowser leaves it null and routes through Page::policy_read /
/// policy_store, so FPI/CHIPS frame cookies land in browser-level
/// partitions keyed by the top-level site.
class Page::FrameServices final : public script::PageServices {
 public:
  FrameServices(Page& page, webplat::Frame& frame,
                cookies::CookieJar* legacy_jar)
      : page_(page), frame_(frame), legacy_jar_(legacy_jar) {}

  std::string document_cookie_read(const script::ExecContext&) override {
    page_.charge_api_call();
    std::string out;
    cookies::append_cookie_pairs(read_cookies(), out);
    return out;
  }
  void document_cookie_write(const script::ExecContext&,
                             std::string_view cookie_line) override {
    page_.charge_api_call();
    if (legacy_jar_ != nullptr) {
      legacy_jar_->set_from_string(frame_.url(), cookie_line,
                                   page_.browser().clock().now());
      return;
    }
    if (const auto parsed = net::parse_set_cookie(cookie_line)) {
      store(*parsed, std::nullopt);
    }
  }
  void cookie_store_get_all(
      const script::ExecContext& ctx,
      std::function<void(std::vector<script::StoreCookie>)> callback)
      override {
    std::vector<script::StoreCookie> cookies;
    for (const cookies::Cookie* c : read_cookies()) {
      cookies.push_back({c->name, c->value});
    }
    (void)ctx;
    callback(std::move(cookies));
  }
  void cookie_store_get(
      const script::ExecContext&, std::string_view name,
      std::function<void(std::optional<script::StoreCookie>)> callback)
      override {
    for (const cookies::Cookie* c : read_cookies()) {
      if (c->name == name) {
        callback(script::StoreCookie{c->name, c->value});
        return;
      }
    }
    callback(std::nullopt);
  }
  void cookie_store_set(const script::ExecContext&, std::string_view name,
                        std::string_view value) override {
    net::ParsedSetCookie parsed;
    parsed.name = std::string(name);
    parsed.value = std::string(value);
    parsed.path = "/";
    store(parsed, cookies::CookieSource::kCookieStore);
  }
  void cookie_store_delete(const script::ExecContext&,
                           std::string_view name) override {
    net::ParsedSetCookie parsed;
    parsed.name = std::string(name);
    parsed.path = "/";
    parsed.max_age_ms = -1000;
    store(parsed, std::nullopt);
  }
  void send_request(const script::ExecContext& ctx,
                    const net::Url& url) override {
    // Frame requests go out, but carry the partitioned jar, not the
    // first-party one; attribution still works via the page stack.
    page_.send_request(ctx, url);
  }
  void inject_script(const script::ExecContext&, std::string_view) override {
    // Scripts injected inside the frame stay inside the frame; the
    // simulator's catalog programs are main-frame behaviours, so this is a
    // no-op beyond the SOP demonstration.
  }
  void set_timeout(const script::ExecContext& ctx, TimeMillis delay_ms,
                   std::function<void()> callback,
                   std::string_view helper) override {
    page_.set_timeout(ctx, delay_ms, std::move(callback), helper);
  }
  webplat::Document& main_document() override { return frame_.document(); }
  TimeMillis now() const override { return page_.browser().clock().now(); }
  script::Rng& rng() override { return page_.browser().rng(); }

 private:
  /// RFC 6265 retrieval for the frame under the active scope, into the
  /// frame's reusable buffer; legacy mode keeps the mutating retrieve()
  /// (last_access semantics unchanged).
  const std::vector<const cookies::Cookie*>& read_cookies() {
    const TimeMillis now = page_.browser().clock().now();
    matched_.clear();
    if (legacy_jar_ != nullptr) {
      legacy_jar_->retrieve(frame_.url(), now, cookies::JarApi::kScript,
                            matched_);
    } else {
      page_.policy_read(
          page_.cookie_ctx(frame_.url(), cookies::JarApi::kScript), now,
          matched_);
    }
    return matched_;
  }
  void store(const net::ParsedSetCookie& parsed,
             std::optional<cookies::CookieSource> source) {
    const TimeMillis now = page_.browser().clock().now();
    if (legacy_jar_ != nullptr) {
      legacy_jar_->set(frame_.url(), parsed, now, cookies::JarApi::kScript,
                       source);
      return;
    }
    page_.policy_store(frame_.url(), parsed,
                       page_.cookie_ctx(frame_.url(),
                                        cookies::JarApi::kScript),
                       now, source);
  }

  Page& page_;
  webplat::Frame& frame_;
  /// Legacy per-page partition (FrameJarScope::kPage); null routes through
  /// the browser-level policy partitions (FrameJarScope::kBrowser).
  cookies::CookieJar* legacy_jar_;
  std::vector<const cookies::Cookie*> matched_;
};

webplat::Frame& Page::create_subframe(const net::Url& url) {
  return main_frame_.create_subframe(url);
}

void Page::run_in_frame(
    webplat::Frame& frame, const script::ExecContext& ctx,
    const std::function<void(script::PageServices&)>& body) {
  FrameGuard guard(stack_, ctx, "<frame>");
  if (frame.same_origin(main_frame_)) {
    // Same-origin frames share the first-party jar and interception stack.
    body(*this);
    return;
  }
  // Under NoDefense/CookieGuard the cross-origin frame gets the legacy
  // per-page ephemeral jar keyed by its origin; FPI/CHIPS route frame
  // cookies into the browser-level partitions instead.
  cookies::CookieJar* legacy_jar =
      browser_.policy().frame_jar_scope() == policy::FrameJarScope::kPage
          ? &partitioned_jars_[frame.url().origin()]
          : nullptr;
  FrameServices services(*this, frame, legacy_jar);
  body(services);
}

// ---- cookie APIs -----------------------------------------------------

policy::CookieAccessContext Page::cookie_ctx(const net::Url& subject,
                                             cookies::JarApi api) const {
  policy::CookieAccessContext access;
  access.top_level_site = top_level_site_;
  access.subject_url = subject;
  // net::same_site(subject, url_), with both sides memoized: this page's
  // site is already known.
  const std::string& subject_site = browser_.site_of(subject.host());
  access.cross_site = subject_site.empty() || subject_site != top_level_site_;
  access.script_origin = policy::script_origin_from_stack(stack_);
  access.api = api;
  return access;
}

void Page::policy_read(const policy::CookieAccessContext& ctx, TimeMillis now,
                       std::vector<const cookies::Cookie*>& out) {
  out.clear();
  const auto& engine = browser_.policy();
  const auto decision = engine.key_for_read(ctx);
  if (!decision.allowed) {
    if (decision.defense_block) {
      ++browser_.policy_stats().reads_blocked;
      obs::metric_add("policy.reads_blocked");
    }
    return;
  }
  for (const auto& key : decision.keys) {
    // find(), not jar(): reads must not materialise empty partitions.
    auto* jar = browser_.jar_store().find(key);
    if (jar == nullptr) continue;
    jar->retrieve(ctx.subject_url, now, ctx.api, out);
  }
  std::erase_if(out, [&](const cookies::Cookie* cookie) {
    return !engine.visible(*cookie, ctx);
  });
}

std::optional<cookies::CookieChange> Page::policy_store(
    const net::Url& source_url, const net::ParsedSetCookie& parsed,
    policy::CookieAccessContext ctx, TimeMillis now,
    std::optional<cookies::CookieSource> source) {
  ctx.partitioned_attribute = parsed.partitioned;
  const auto decision = browser_.policy().key_for_store(ctx);
  if (!decision.allowed) {
    if (decision.defense_block) {
      ++browser_.policy_stats().writes_blocked;
      obs::metric_add("policy.writes_blocked");
    }
    return std::nullopt;
  }
  if (!decision.key.empty()) {
    ++browser_.policy_stats().partitioned_stores;
    obs::metric_add("policy.partitioned_stores");
  }
  return browser_.jar_store().jar(decision.key).set(source_url, parsed, now,
                                                    ctx.api, source);
}

std::string Page::document_cookie_read(const script::ExecContext& ctx) {
  charge_api_call();
  policy_read(cookie_ctx(url_, cookies::JarApi::kScript),
              browser_.clock().now(), matched_);
  std::string value;
  cookies::append_cookie_pairs(matched_, value);
  for (auto* extension : browser_.extensions()) {
    value = extension->filter_document_cookie_read(*this, ctx, stack_,
                                                   std::move(value));
  }
  for (auto* extension : browser_.extensions()) {
    extension->on_document_cookie_read(*this, ctx, stack_, value);
  }
  return value;
}

void Page::document_cookie_write(const script::ExecContext& ctx,
                                 std::string_view cookie_line) {
  charge_api_call();
  for (auto* extension : browser_.extensions()) {
    if (!extension->allow_document_cookie_write(*this, ctx, stack_,
                                                cookie_line)) {
      for (auto* observer : browser_.extensions()) {
        observer->on_write_blocked(*this, ctx, stack_, cookie_line);
      }
      return;
    }
  }
  const TimeMillis now = browser_.clock().now();
  const auto parsed = net::parse_set_cookie(cookie_line);
  if (!parsed) {
    // Keep the legacy set_from_string rejection shape: parse failures are
    // jar-level rejections, not policy blocks.
    cookies::CookieChange change;
    change.reject_reason = "unparseable cookie string";
    for (auto* extension : browser_.extensions()) {
      extension->on_script_cookie_change(
          *this, ctx, stack_, change, cookies::CookieSource::kDocumentCookie);
    }
    return;
  }
  const auto change =
      policy_store(url_, *parsed, cookie_ctx(url_, cookies::JarApi::kScript),
                   now);
  if (!change) {
    for (auto* observer : browser_.extensions()) {
      observer->on_write_blocked(*this, ctx, stack_, cookie_line);
    }
    return;
  }
  for (auto* extension : browser_.extensions()) {
    extension->on_script_cookie_change(*this, ctx, stack_, *change,
                                       cookies::CookieSource::kDocumentCookie);
  }
}

void Page::cookie_store_get_all(
    const script::ExecContext& ctx,
    std::function<void(std::vector<script::StoreCookie>)> callback) {
  charge_api_call();
  const webplat::StackTrace captured = stack_;
  loop_.post_microtask(
      [this, ctx, callback = std::move(callback), captured]() {
        const webplat::StackTrace saved = std::exchange(stack_, captured);
        policy_read(cookie_ctx(url_, cookies::JarApi::kScript),
                    browser_.clock().now(), matched_);
        std::vector<script::StoreCookie> cookies;
        for (const cookies::Cookie* c : matched_) {
          cookies.push_back({c->name, c->value});
        }
        for (auto* extension : browser_.extensions()) {
          extension->filter_store_read(*this, ctx, stack_, cookies);
        }
        for (auto* extension : browser_.extensions()) {
          extension->on_store_read(*this, ctx, stack_, cookies);
        }
        callback(std::move(cookies));
        stack_ = saved;
      },
      captured);
}

void Page::cookie_store_get(
    const script::ExecContext& ctx, std::string_view name,
    std::function<void(std::optional<script::StoreCookie>)> callback) {
  charge_api_call();
  const webplat::StackTrace captured = stack_;
  std::string wanted(name);
  loop_.post_microtask(
      [this, ctx, wanted, callback = std::move(callback), captured]() {
        const webplat::StackTrace saved = std::exchange(stack_, captured);
        policy_read(cookie_ctx(url_, cookies::JarApi::kScript),
                    browser_.clock().now(), matched_);
        std::vector<script::StoreCookie> cookies;
        for (const cookies::Cookie* c : matched_) {
          if (c->name == wanted) cookies.push_back({c->name, c->value});
        }
        // The same per-origin filter applies to single-cookie lookups.
        for (auto* extension : browser_.extensions()) {
          extension->filter_store_read(*this, ctx, stack_, cookies);
        }
        for (auto* extension : browser_.extensions()) {
          extension->on_store_read(*this, ctx, stack_, cookies);
        }
        callback(cookies.empty()
                     ? std::nullopt
                     : std::optional<script::StoreCookie>(cookies.front()));
        stack_ = saved;
      },
      captured);
}

void Page::cookie_store_set(const script::ExecContext& ctx,
                            std::string_view name, std::string_view value) {
  charge_api_call();
  const webplat::StackTrace captured = stack_;
  std::string cookie_name(name);
  std::string cookie_value(value);
  loop_.post_microtask(
      [this, ctx, cookie_name, cookie_value, captured]() {
        const webplat::StackTrace saved = std::exchange(stack_, captured);
        bool allowed = true;
        for (auto* extension : browser_.extensions()) {
          if (!extension->allow_store_write(*this, ctx, stack_, cookie_name,
                                            cookie_value,
                                            /*is_delete=*/false)) {
            allowed = false;
            break;
          }
        }
        if (allowed) {
          net::ParsedSetCookie parsed;
          parsed.name = cookie_name;
          parsed.value = cookie_value;
          parsed.path = "/";
          const auto change = policy_store(
              url_, parsed, cookie_ctx(url_, cookies::JarApi::kScript),
              browser_.clock().now(), cookies::CookieSource::kCookieStore);
          if (change) {
            for (auto* extension : browser_.extensions()) {
              extension->on_script_cookie_change(
                  *this, ctx, stack_, *change,
                  cookies::CookieSource::kCookieStore);
            }
          } else {
            for (auto* extension : browser_.extensions()) {
              extension->on_write_blocked(*this, ctx, stack_,
                                          cookie_name + "=" + cookie_value);
            }
          }
        } else {
          for (auto* extension : browser_.extensions()) {
            extension->on_write_blocked(*this, ctx, stack_,
                                        cookie_name + "=" + cookie_value);
          }
        }
        stack_ = saved;
      },
      captured);
}

void Page::cookie_store_delete(const script::ExecContext& ctx,
                               std::string_view name) {
  charge_api_call();
  const webplat::StackTrace captured = stack_;
  std::string cookie_name(name);
  loop_.post_microtask(
      [this, ctx, cookie_name, captured]() {
        const webplat::StackTrace saved = std::exchange(stack_, captured);
        bool allowed = true;
        for (auto* extension : browser_.extensions()) {
          if (!extension->allow_store_write(*this, ctx, stack_, cookie_name,
                                            "", /*is_delete=*/true)) {
            allowed = false;
            break;
          }
        }
        if (allowed) {
          net::ParsedSetCookie parsed;
          parsed.name = cookie_name;
          parsed.path = "/";
          parsed.max_age_ms = -1000;
          const auto change = policy_store(
              url_, parsed, cookie_ctx(url_, cookies::JarApi::kScript),
              browser_.clock().now(), cookies::CookieSource::kCookieStore);
          if (change) {
            for (auto* extension : browser_.extensions()) {
              extension->on_script_cookie_change(
                  *this, ctx, stack_, *change,
                  cookies::CookieSource::kCookieStore);
            }
          } else {
            for (auto* extension : browser_.extensions()) {
              extension->on_write_blocked(*this, ctx, stack_,
                                          cookie_name + "=");
            }
          }
        } else {
          for (auto* extension : browser_.extensions()) {
            extension->on_write_blocked(*this, ctx, stack_, cookie_name + "=");
          }
        }
        stack_ = saved;
      },
      captured);
}

// ---- network / inclusion / scheduling ----------------------------------

void Page::send_request(const script::ExecContext& ctx, const net::Url& url) {
  charge_api_call();
  net::HttpRequest request;
  request.method = net::HttpMethod::kGet;
  request.url = url;
  request.destination = net::RequestDestination::kXhr;
  request.initiator = ctx.inline_script ? url_.spec() : ctx.script_url;
  fetch(std::move(request), &ctx);
}

void Page::inject_script(const script::ExecContext& includer,
                         std::string_view script_id) {
  include_script(script_id, script::Inclusion::kIndirect, &includer);
}

void Page::set_timeout(const script::ExecContext&, TimeMillis delay_ms,
                       std::function<void()> callback,
                       std::string_view helper_script_url) {
  const webplat::StackTrace scheduling = stack_;
  std::string helper(helper_script_url);
  loop_.post_task(
      [this, callback = std::move(callback), helper]() {
        // Fresh stack for the new task; async stack traces (when enabled)
        // recover the scheduling frames, marked async.
        webplat::StackTrace task_stack;
        if (browser_.config().async_stack_traces) {
          task_stack.prepend_async(loop_.current_task_scheduling_stack());
        }
        const webplat::StackTrace saved = std::exchange(stack_, task_stack);
        if (!helper.empty()) {
          stack_.push({helper, "helperCallback", false});
        }
        callback();
        stack_ = saved;
      },
      delay_ms, scheduling);
}

net::HttpResponse Page::fetch(net::HttpRequest request,
                              const script::ExecContext* initiator) {
  const TimeMillis now = browser_.clock().now();

  for (auto* extension : browser_.extensions()) {
    if (!extension->allow_request(*this, request, initiator)) {
      net::HttpResponse blocked;
      blocked.status = 0;  // net::ERR_BLOCKED_BY_CLIENT
      return blocked;
    }
  }

  // Cookie attachment goes through the partitioning policy. Under NoDefense
  // this is exactly the legacy rule — attach the first-party jar to
  // same-site requests only (a post-third-party-cookie browser); FPI/CHIPS
  // additionally consult the request's partitions.
  const auto http_ctx = cookie_ctx(request.url, cookies::JarApi::kHttp);
  {
    policy_read(http_ctx, now, matched_);
    std::string cookie_header;
    cookies::append_cookie_pairs(matched_, cookie_header);
    if (!cookie_header.empty()) request.headers.set("Cookie", cookie_header);
  }

  for (auto* extension : browser_.extensions()) {
    extension->on_request_will_be_sent(*this, request, initiator, stack_);
  }

  net::HttpResponse response = browser_.network().dispatch(request);

  // Set-Cookie goes through the policy too. Under NoDefense cross-site
  // response cookies are refused — they would be third-party cookies, which
  // are phased out (§1) — exactly the legacy same-site gate; CHIPS lets
  // `Partitioned` ones through into the request's partition. Refused
  // headers produce no CookieChange, as before.
  std::vector<cookies::CookieChange> changes;
  for (const auto& header : response.set_cookie_headers()) {
    if (const auto parsed = net::parse_set_cookie(header)) {
      if (auto change = policy_store(request.url, *parsed, http_ctx, now)) {
        changes.push_back(std::move(*change));
      }
    }
  }
  for (auto* extension : browser_.extensions()) {
    extension->on_headers_received(*this, request, response, changes);
  }
  return response;
}

}  // namespace cg::browser
