#include "breakage/breakage.h"

#include <algorithm>
#include <set>

#include "browser/page.h"
#include "corpus/ecosystem.h"
#include "script/rng.h"

namespace cg::breakage {
namespace {

using script::ExecContext;

const char* kSsoSessionCookie = "SSO_session";

ExecContext context_for(const corpus::Corpus& corpus, const std::string& id,
                        const std::string& site_host) {
  ExecContext ctx;
  ctx.script_id = id;
  ctx.script_url = corpus::resolve_script_url(corpus.catalog(), id, site_host);
  if (!ctx.script_url.empty()) {
    ctx.url = net::Url::must_parse(ctx.script_url);
    ctx.script_domain = ctx.url.site();
  }
  ctx.category = script::Category::kSso;
  return ctx;
}

// Reads document.cookie as `ctx` and reports whether `cookie_name` is
// visible.
bool can_see_cookie(browser::Page& page, const ExecContext& ctx,
                    const std::string& cookie_name) {
  bool visible = false;
  page.run_as(ctx, [&](script::PageServices& services) {
    for (const auto& cookie : services.document_cookie_pairs(ctx)) {
      if (cookie.name == cookie_name) {
        visible = true;
        return;
      }
    }
  });
  return visible;
}

cookieguard::CookieGuardConfig config_for(GuardMode mode,
                                          const corpus::SiteBlueprint& bp,
                                          const corpus::Corpus& corpus) {
  cookieguard::CookieGuardConfig config;
  config.entity_grouping = mode == GuardMode::kEntityGrouping ||
                           mode == GuardMode::kGroupingPlusPolicies;
  if (mode == GuardMode::kGroupingPlusPolicies && bp.has_sso) {
    // The user (or a curated policy list) grants the site's identity
    // providers full jar access on this site.
    auto& allow = config.per_site_allowlist[bp.site];
    for (const auto* id : {&bp.sso_provider_a, &bp.sso_provider_b}) {
      if (id->empty()) continue;
      const auto ctx = context_for(corpus, *id, bp.host);
      if (!ctx.script_domain.empty()) allow.insert(ctx.script_domain);
    }
  }
  return config;
}

}  // namespace

const char* to_string(GuardMode mode) {
  switch (mode) {
    case GuardMode::kOff:
      return "no extension";
    case GuardMode::kStrict:
      return "CookieGuard (strict)";
    case GuardMode::kEntityGrouping:
      return "CookieGuard + entity grouping";
    case GuardMode::kGroupingPlusPolicies:
      return "CookieGuard + grouping + site policies";
  }
  return "?";
}

SiteBreakage BreakageEvaluator::evaluate_site(
    int index, GuardMode mode, policy::PolicyKind policy) const {
  const auto& bp = corpus_.site(index);
  const auto& params = corpus_.params();

  browser::Browser browser(
      {}, params.seed ^ (0xB12EACULL + static_cast<std::uint64_t>(bp.rank)));
  browser.set_policy(&policy::engine_for(policy));
  corpus_.attach(browser, bp);

  std::optional<cookieguard::CookieGuard> guard;
  if (mode != GuardMode::kOff) {
    guard.emplace(config_for(mode, bp, corpus_));
    browser.add_extension(&*guard);
  }

  SiteBreakage result;
  const net::Url landing = net::Url::must_parse("https://" + bp.host + "/");
  auto page = browser.navigate(landing);

  // --- Navigation: click a link, page must load with its DOM. ------------
  if (!page->spec().link_paths.empty()) {
    auto next = browser.navigate(landing.resolve(page->spec().link_paths[0]));
    if (next->main_document().node_count() == 0) {
      result[Aspect::kNavigation] = Severity::kMajor;
    }
    page = std::move(next);
  }

  // --- Appearance: static DOM must have been built. -----------------------
  if (page->main_document().node_count() < 2) {
    result[Aspect::kAppearance] = Severity::kMajor;
  }

  // --- SSO: log in via provider A, maintain session via provider B/A. ----
  if (bp.has_sso) {
    const ExecContext provider_a =
        context_for(corpus_, bp.sso_provider_a, bp.host);
    // Login: the identity provider's script stores the session cookie.
    page->run_as(provider_a, [&](script::PageServices& services) {
      services.document_cookie_write(
          provider_a, std::string(kSsoSessionCookie) + "=" +
                          browser.rng().hex(24) + "; Path=/");
    });
    const bool login_ok = can_see_cookie(*page, provider_a, kSsoSessionCookie);

    bool session_ok = login_ok;
    if (login_ok && bp.sso_two_domain) {
      // Session maintenance is handled by the second provider domain.
      const ExecContext provider_b =
          context_for(corpus_, bp.sso_provider_b, bp.host);
      session_ok = can_see_cookie(*page, provider_b, kSsoSessionCookie);
    }
    if (!login_ok || !session_ok) {
      result[Aspect::kSso] = Severity::kMajor;
    } else if (bp.sso_server_refresh) {
      // Reload: the server re-emits the session cookie, re-attributing it to
      // the first party in CookieGuard's store (cnn.com minor breakage).
      page = browser.navigate(landing);
      if (!can_see_cookie(*page, provider_a, kSsoSessionCookie)) {
        result[Aspect::kSso] = Severity::kMinor;
      }
    }
  }

  // --- Functionality: chat widget served from the entity CDN. ------------
  if (bp.has_entity_cdn_widget) {
    const ExecContext messenger = context_for(corpus_, "fb-messenger", bp.host);
    if (!can_see_cookie(*page, messenger, "_fbp")) {
      result[Aspect::kFunctionality] = Severity::kMajor;
    }
  }

  // --- Functionality: ad slot depending on a cross-entity cookie. --------
  if (result[Aspect::kFunctionality] == Severity::kNone && bp.serves_ads) {
    // The exchange renders from Google-side targeting cookies; a dependence
    // on a cross-entity identifier stays broken even with entity grouping.
    const std::string adstack_id = "adstack#" + std::to_string(bp.rank);
    const ExecContext exchange = context_for(corpus_, adstack_id, bp.host);
    bool ad_renders = true;
    const bool site_has_gtag =
        std::find(bp.doc.script_ids.begin(), bp.doc.script_ids.end(),
                  "gtag") != bp.doc.script_ids.end();
    if (site_has_gtag && !exchange.script_url.empty()) {
      ad_renders = can_see_cookie(*page, exchange, "_gcl_au");
    }
    if (bp.ads_depend_cross_entity && !exchange.script_url.empty()) {
      const ExecContext amazon =
          context_for(corpus_, "amazon-apstag", bp.host);
      // Amazon's header bidder prices the slot from the exchange's cookie.
      if (!can_see_cookie(*page, amazon, "__gads")) ad_renders = false;
    } else if (!site_has_gtag) {
      ad_renders = true;  // no cross-domain dependence to break
    }
    if (!ad_renders) result[Aspect::kFunctionality] = Severity::kMinor;
  }

  return result;
}

Summary BreakageEvaluator::summarize(const std::vector<int>& site_indices,
                                     GuardMode mode,
                                     policy::PolicyKind policy) const {
  Summary summary;
  summary.sites = static_cast<int>(site_indices.size());
  const bool is_baseline =
      mode == GuardMode::kOff && policy == policy::PolicyKind::kNone;
  for (const int index : site_indices) {
    const SiteBreakage result = evaluate_site(index, mode, policy);
    // Paired assessment: only regressions relative to the plain browser
    // (no extension, single jar) count as breakage caused by the
    // deployment under test.
    const SiteBreakage baseline =
        is_baseline ? SiteBreakage{}
                    : evaluate_site(index, GuardMode::kOff,
                                    policy::PolicyKind::kNone);
    bool any_minor = false;
    bool any_major = false;
    for (int aspect = 0; aspect < 4; ++aspect) {
      if (baseline.by_aspect[aspect] != Severity::kNone) continue;
      if (result.by_aspect[aspect] == Severity::kMinor) {
        ++summary.minor[aspect];
        any_minor = true;
      } else if (result.by_aspect[aspect] == Severity::kMajor) {
        ++summary.major[aspect];
        any_major = true;
      }
    }
    summary.sites_minor += any_minor ? 1 : 0;
    summary.sites_major += any_major ? 1 : 0;
  }
  return summary;
}

std::vector<int> BreakageEvaluator::sample_sites(int n, int top_k,
                                                 std::uint64_t seed) const {
  script::Rng rng(corpus_.params().seed ^ seed);
  const int limit = std::min(top_k, corpus_.size());
  std::set<int> chosen;
  while (static_cast<int>(chosen.size()) < std::min(n, limit)) {
    chosen.insert(static_cast<int>(rng.below(
        static_cast<std::uint64_t>(limit))));
  }
  return {chosen.begin(), chosen.end()};
}

}  // namespace cg::breakage
