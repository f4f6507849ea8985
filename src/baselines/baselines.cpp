#include "baselines/baselines.h"

#include "browser/page.h"

namespace cg::baselines {

std::vector<std::string> FilterListBlocker::default_blocklist() {
  return {
      "google-analytics.com", "googletagmanager.com", "doubleclick.net",
      "googlesyndication.com", "facebook.net",        "facebook.com",
      "bing.com",             "clarity.ms",           "yandex.ru",
      "pinimg.com",           "pinterest.com",        "licdn.com",
      "linkedin.com",         "tiktok.com",           "criteo.net",
      "criteo.com",           "pubmatic.com",         "openx.net",
      "amazon-adsystem.com",  "adsrvr.org",           "rubiconproject.com",
      "casalemedia.com",      "indexww.com",          "liadm.com",
      "liveintent.com",       "taboola.com",          "outbrain.com",
      "crwdcntrl.net",        "quantserve.com",       "hotjar.com",
      "segment.com",          "segment.io",           "hs-scripts.com",
      "hubspot.com",          "marketo.net",          "demdex.net",
      "adobedtm.com",         "sharethis.com",        "statcounter.com",
      "yimg.jp",              "sc-static.net",        "snapchat.com",
      "gaconnector.com",      "lazyload-ads.com",
  };
}

FilterListBlocker::FilterListBlocker(std::vector<std::string> blocked_domains)
    : blocked_(blocked_domains.begin(), blocked_domains.end()) {}

bool FilterListBlocker::allow_script_include(browser::Page& page,
                                             const script::ExecContext& ctx) {
  (void)page;
  if (!ctx.script_domain.empty() && is_blocked(ctx.script_domain)) {
    ++stats_.scripts_blocked;
    return false;
  }
  return true;
}

bool FilterListBlocker::allow_request(browser::Page& page,
                                      const net::HttpRequest& request,
                                      const script::ExecContext* initiator) {
  (void)page;
  (void)initiator;
  if (request.destination == net::RequestDestination::kDocument) return true;
  if (is_blocked(request.url.site())) {
    ++stats_.requests_blocked;
    return false;
  }
  return true;
}

}  // namespace cg::baselines
