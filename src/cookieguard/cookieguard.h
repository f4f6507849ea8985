// CookieGuard: per-script-origin isolation of the first-party cookie jar
// (paper §6).
//
// Enforcement rules:
//   * Every cookie is owned by the eTLD+1 that created it (script writes are
//     attributed via the stack trace; HTTP Set-Cookie via the response URL).
//   * document.cookie / cookieStore reads return only cookies the calling
//     script's domain created.
//   * Writes (overwrite/delete) to cookies created by a different domain are
//     blocked.
//   * The site owner's own scripts get full access (anti-breakage policy,
//     §6.1) — this is why Figure 5's reductions are ~83-86%, not 100%.
//   * Inline scripts (unattributable) are denied all cookie access.
//   * Optional entity grouping (DuckDuckGo-entities whitelist) treats
//     same-entity domains as one owner (facebook.com ↔ fbcdn.net), the
//     refinement that cuts breakage from 11% to 3% (§7.2).
//   * Optional per-site domain policies grant named third-party domains full
//     access on specific sites (e.g. the SSO providers on zoom.us).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "browser/extension.h"
#include "cookieguard/metadata_store.h"
#include "cookieguard/signatures.h"
#include "entities/entity_map.h"
#include "ext/attribution.h"
#include "ext/message_bus.h"

namespace cg::cookieguard {

struct CookieGuardConfig {
  /// §6.1: scripts from the visited site's own domain see the whole jar.
  bool site_owner_full_access = true;
  /// §6.1: inline scripts are untrusted and get no cookie access.
  bool deny_inline_scripts = true;
  /// §7.2 refinement: same-entity domains share ownership.
  bool entity_grouping = false;
  /// Per-site domain policies: site eTLD+1 → third-party domains granted
  /// full jar access on that site.
  std::map<std::string, std::set<std::string>> per_site_allowlist;
  /// Attribution mode (ablation knob; the paper uses last-external).
  ext::AttributionMode attribution = ext::AttributionMode::kLastExternal;
  /// §8 counter-evasion: resolve CNAME chains so a tracker cloaked behind a
  /// first-party subdomain is attributed to its canonical domain.
  bool resolve_cname_cloaking = false;
  /// §8 refinement: behaviour-signature database; inline scripts whose
  /// signature matches a known vendor script are treated as that vendor
  /// instead of being denied. Non-owning; may be null.
  const SignatureDb* signature_db = nullptr;
  /// Simulated per-intercepted-call cost (wrapper + messaging round trip).
  TimeMillis api_overhead_ms = 5;
};

class CookieGuard final : public browser::Extension {
 public:
  explicit CookieGuard(
      CookieGuardConfig config = {},
      const entities::EntityMap* entities = &entities::EntityMap::builtin());

  std::string name() const override { return "cookieguard"; }

  struct Stats {
    std::uint64_t reads_filtered = 0;    // reads where ≥1 cookie was hidden
    std::uint64_t cookies_hidden = 0;    // total cookies removed from reads
    std::uint64_t writes_blocked = 0;    // vetoed cross-domain writes
    std::uint64_t inline_denied = 0;     // inline/unattributable accesses

    /// Sums another instance's counters — aggregates the per-worker guards
    /// of a sharded crawl into one crawl-wide tally.
    void merge(const Stats& other) {
      reads_filtered += other.reads_filtered;
      cookies_hidden += other.cookies_hidden;
      writes_blocked += other.writes_blocked;
      inline_denied += other.inline_denied;
    }
  };
  const Stats& stats() const { return stats_; }
  const MetadataStore& store() const { return store_; }
  const CookieGuardConfig& config() const { return config_; }

  // ---- browser::Extension -----------------------------------------------
  void on_visit_start(browser::Browser& browser) override;
  void filter_cookie_read(browser::Page& page, const script::ExecContext& ctx,
                          const webplat::StackTrace& stack,
                          cookies::CookieSource api,
                          std::vector<script::CookiePair>& cookies) override;
  bool allow_document_cookie_write(browser::Page& page,
                                   const script::ExecContext& ctx,
                                   const webplat::StackTrace& stack,
                                   std::string_view cookie_line) override;
  bool allow_store_write(browser::Page& page, const script::ExecContext& ctx,
                         const webplat::StackTrace& stack,
                         std::string_view cookie_name, std::string_view value,
                         bool is_delete) override;
  void on_script_cookie_change(browser::Page& page,
                               const script::ExecContext& ctx,
                               const webplat::StackTrace& stack,
                               const cookies::CookieChange& change,
                               cookies::CookieSource api) override;
  void on_headers_received(
      browser::Page& page, const net::HttpRequest& request,
      const net::HttpResponse& response,
      const std::vector<cookies::CookieChange>& changes) override;
  TimeMillis api_call_overhead_ms() const override {
    return config_.api_overhead_ms;
  }

 private:
  /// May `actor_domain` access a cookie created by `creator_domain` on
  /// `site`? Implements the full policy lattice above.
  bool may_access(const std::string& actor_domain,
                  const std::string& creator_domain,
                  const std::string& site) const;

  /// Resolves the acting domain from the stack (with optional CNAME
  /// uncloaking and inline-signature matching); empty = inline/unknown.
  std::string resolve_actor(const webplat::StackTrace& stack,
                            browser::Page& page) const;

  CookieGuardConfig config_;
  const entities::EntityMap* entities_;
  MetadataStore store_;
  ext::MessageBus bus_;
  Stats stats_;
};

}  // namespace cg::cookieguard
