#include "cookieguard/cookieguard.h"

#include "browser/page.h"
#include "net/psl.h"
#include "obs/trace.h"
#include "script/interpreter.h"

namespace cg::cookieguard {
namespace {

using Type = cookies::CookieChange::Type;

/// One enforcement decision: a cookieguard.* counter plus (at full trace
/// detail) an instant on the site's track at the page's virtual time.
void note_decision(browser::Page& page, std::string_view name) {
  obs::metric_add(name);
  obs::instant(obs::Detail::kFull, "cookieguard", name,
               page.browser().clock().now());
}

// Extracts the cookie name from a document.cookie assignment line.
std::string cookie_name_of(std::string_view cookie_line) {
  const auto semi = cookie_line.find(';');
  std::string_view pair = (semi == std::string_view::npos)
                              ? cookie_line
                              : cookie_line.substr(0, semi);
  const auto eq = pair.find('=');
  std::string_view name =
      (eq == std::string_view::npos) ? pair : pair.substr(0, eq);
  while (!name.empty() && name.front() == ' ') name.remove_prefix(1);
  while (!name.empty() && name.back() == ' ') name.remove_suffix(1);
  return std::string(name);
}

}  // namespace

CookieGuard::CookieGuard(CookieGuardConfig config,
                         const entities::EntityMap* entities)
    : config_(config), entities_(entities) {
  // Mirror the paper's component split: the "content script" relays set and
  // lookup messages to the "background" store over the bus.
  bus_.register_handler("record", [this](const std::string& payload) {
    const auto sep = payload.find('\x1f');
    if (sep != std::string::npos) {
      store_.record(payload.substr(0, sep), payload.substr(sep + 1));
    }
    return std::string{};
  });
  bus_.register_handler("erase", [this](const std::string& payload) {
    store_.erase(payload);
    return std::string{};
  });
  bus_.register_handler("lookup", [this](const std::string& payload) {
    return store_.creator(payload).value_or("");
  });
}

void CookieGuard::on_visit_start(browser::Browser& browser) {
  (void)browser;
  // The metadata store is per-visit (a fresh profile per site, like the
  // paper's crawl); enforcement stats accumulate across the whole crawl.
  store_.clear();
  obs::metric_add("cookieguard.partition_resets");
}

std::string CookieGuard::resolve_actor(const webplat::StackTrace& stack,
                                        browser::Page& page) const {
  const auto who = ext::attribute_stack(stack, config_.attribution);
  if (!who.unknown) {
    if (config_.resolve_cname_cloaking) {
      // Uncloak: a first-party-looking script host may CNAME to a tracker.
      const auto url = net::Url::parse(who.script_url);
      if (url) {
        const std::string canonical =
            page.browser().dns().resolve_canonical(url->host());
        if (canonical != url->host()) {
          return net::etld_plus_one(canonical);
        }
      }
    }
    return who.domain;
  }
  // Inline/unattributable: try behaviour-signature matching (§8). The
  // topmost inline frame carries the snippet's content identity.
  if (config_.signature_db != nullptr &&
      page.browser().catalog() != nullptr) {
    for (auto it = stack.frames().rbegin(); it != stack.frames().rend();
         ++it) {
      if (!it->script_url.empty()) break;  // a real external frame wins
      if (it->function_name.starts_with("inline:")) {
        const auto matched = config_.signature_db->match_inline(
            *page.browser().catalog(), it->function_name.substr(7));
        if (matched) return *matched;
        break;
      }
    }
  }
  return {};
}

bool CookieGuard::may_access(const std::string& actor_domain,
                             const std::string& creator_domain,
                             const std::string& site) const {
  if (actor_domain.empty()) return false;  // inline / unattributable
  if (actor_domain == creator_domain) return true;
  if (config_.site_owner_full_access && actor_domain == site) return true;
  if (config_.entity_grouping &&
      entities_->same_entity(actor_domain, creator_domain)) {
    return true;
  }
  const auto it = config_.per_site_allowlist.find(site);
  if (it != config_.per_site_allowlist.end() &&
      it->second.count(actor_domain) != 0) {
    return true;
  }
  return false;
}

std::string CookieGuard::filter_document_cookie_read(
    browser::Page& page, const script::ExecContext& ctx,
    const webplat::StackTrace& stack, std::string value) {
  (void)ctx;
  const std::string actor = resolve_actor(stack, page);
  if (actor.empty()) {
    if (!config_.deny_inline_scripts) return value;
    ++stats_.inline_denied;
    note_decision(page, "cookieguard.inline_denied");
    return std::string{};
  }
  const std::string& site = page.site();
  if (config_.site_owner_full_access && actor == site) return value;

  const auto dataset = store_.snapshot();  // background round trip
  std::string filtered;
  std::int64_t hidden = 0;
  for (const auto& cookie : script::parse_cookie_string(value)) {
    const auto creator_it = dataset.find(cookie.name);
    // Untracked cookies default to first-party ownership.
    const std::string creator =
        creator_it == dataset.end() ? site : creator_it->second;
    if (may_access(actor, creator, site)) {
      if (!filtered.empty()) filtered += "; ";
      filtered += cookie.name + "=" + cookie.value;
    } else {
      ++hidden;
      ++stats_.cookies_hidden;
    }
  }
  if (hidden > 0) {
    ++stats_.reads_filtered;
    note_decision(page, "cookieguard.reads_filtered");
    obs::metric_add("cookieguard.cookies_hidden", hidden);
  }
  return filtered;
}

void CookieGuard::filter_store_read(browser::Page& page,
                                    const script::ExecContext& ctx,
                                    const webplat::StackTrace& stack,
                                    std::vector<script::StoreCookie>& cookies) {
  (void)ctx;
  const std::string actor = resolve_actor(stack, page);
  const std::string& site = page.site();
  if (actor.empty()) {
    if (!config_.deny_inline_scripts) return;
    ++stats_.inline_denied;
    stats_.cookies_hidden += cookies.size();
    note_decision(page, "cookieguard.inline_denied");
    obs::metric_add("cookieguard.cookies_hidden",
                    static_cast<std::int64_t>(cookies.size()));
    cookies.clear();
    return;
  }
  if (config_.site_owner_full_access && actor == site) return;

  const auto dataset = store_.snapshot();
  const std::size_t before = cookies.size();
  std::erase_if(cookies, [&](const script::StoreCookie& cookie) {
    const auto creator_it = dataset.find(cookie.name);
    const std::string creator =
        creator_it == dataset.end() ? site : creator_it->second;
    return !may_access(actor, creator, site);
  });
  if (cookies.size() != before) {
    ++stats_.reads_filtered;
    stats_.cookies_hidden += before - cookies.size();
    note_decision(page, "cookieguard.reads_filtered");
    obs::metric_add("cookieguard.cookies_hidden",
                    static_cast<std::int64_t>(before - cookies.size()));
  }
}

bool CookieGuard::allow_document_cookie_write(browser::Page& page,
                                              const script::ExecContext& ctx,
                                              const webplat::StackTrace& stack,
                                              std::string_view cookie_line) {
  (void)ctx;
  const std::string actor = resolve_actor(stack, page);
  if (actor.empty()) {
    if (!config_.deny_inline_scripts) return true;
    ++stats_.inline_denied;
    note_decision(page, "cookieguard.inline_denied");
    return false;
  }
  const std::string name = cookie_name_of(cookie_line);
  const std::string creator = bus_.request("lookup", name);
  if (creator.empty()) return true;  // new cookie: creation is always allowed
  const std::string& site = page.site();
  if (may_access(actor, creator, site)) return true;
  ++stats_.writes_blocked;
  note_decision(page, "cookieguard.writes_blocked");
  return false;
}

bool CookieGuard::allow_store_write(browser::Page& page,
                                    const script::ExecContext& ctx,
                                    const webplat::StackTrace& stack,
                                    std::string_view cookie_name,
                                    std::string_view value, bool is_delete) {
  (void)ctx;
  (void)value;
  (void)is_delete;
  const std::string actor = resolve_actor(stack, page);
  if (actor.empty()) {
    if (!config_.deny_inline_scripts) return true;
    ++stats_.inline_denied;
    note_decision(page, "cookieguard.inline_denied");
    return false;
  }
  const std::string creator = bus_.request("lookup", std::string(cookie_name));
  if (creator.empty()) return true;
  if (may_access(actor, creator, page.site())) return true;
  ++stats_.writes_blocked;
  note_decision(page, "cookieguard.writes_blocked");
  return false;
}

void CookieGuard::on_script_cookie_change(browser::Page& page,
                                          const script::ExecContext& ctx,
                                          const webplat::StackTrace& stack,
                                          const cookies::CookieChange& change,
                                          cookies::CookieSource api) {
  (void)ctx;
  (void)api;
  const std::string actor = resolve_actor(stack, page);
  const cookies::Cookie* state =
      change.current ? &*change.current
                     : (change.previous ? &*change.previous : nullptr);
  if (state == nullptr) return;
  switch (change.type) {
    case Type::kCreated:
      // Attribute to the acting script; unattributable creations are owned
      // by the first party (they can only have been allowed with
      // deny_inline_scripts off).
      bus_.request("record", state->name + '\x1f' +
                                 (actor.empty() ? page.site() : actor));
      note_decision(page, "cookieguard.partition_records");
      break;
    case Type::kDeleted:
      bus_.request("erase", state->name);
      note_decision(page, "cookieguard.partition_erases");
      break;
    case Type::kOverwritten:
    case Type::kExpiredNoop:
    case Type::kRejected:
      break;  // ownership unchanged
  }
}

void CookieGuard::on_headers_received(
    browser::Page& page, const net::HttpRequest& request,
    const net::HttpResponse& response,
    const std::vector<cookies::CookieChange>& changes) {
  (void)response;
  for (const auto& change : changes) {
    const cookies::Cookie* state =
        change.current ? &*change.current
                       : (change.previous ? &*change.previous : nullptr);
    if (state == nullptr || state->http_only) continue;
    switch (change.type) {
      case Type::kCreated:
      case Type::kOverwritten:
        // Header (re-)sets attribute the cookie to the responding site —
        // including re-sets of script-created cookies (the reload
        // re-attribution behaviour discussed in §7.2).
        bus_.request("record", state->name + '\x1f' +
                                   page.browser().site_of(request.url.host()));
        note_decision(page, "cookieguard.partition_records");
        break;
      case Type::kDeleted:
        bus_.request("erase", state->name);
        note_decision(page, "cookieguard.partition_erases");
        break;
      default:
        break;
    }
  }
}

}  // namespace cg::cookieguard
