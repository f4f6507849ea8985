// Pluggable cookie-partitioning policy engines.
//
// The paper evaluates one defense — CookieGuard's per-script-origin
// filtering of the first-party jar — but the interesting question is
// comparative: what would Firefox's First-Party Isolation or Chrome's CHIPS
// have done on the same corpus? This module separates *storage*
// (cookies::PartitionedJarStore, a key → RFC 6265 jar map) from *policy*
// (which partition an access lands in, and which cookies an actor may see):
//
//   * SingleJarPolicy    — the status-quo single jar, the engine of both
//                          `none` and `cookieguard`: the CookieGuard
//                          *extension* interposes above the jar (paper §6
//                          changes the API boundary, not storage), so
//                          src/cookieguard/ sits on top unchanged. A
//                          cross-site subframe script gets a partition
//                          keyed by the top-level site and its own origin
//                          (the Same-Origin Policy of paper §3); every
//                          other cross-site access is refused.
//   * FirstPartyIsolation— Firefox `privacy.firstparty.isolate`: every jar
//                          is keyed by the top-level site (firstPartyDomain
//                          origin attribute); an access that cannot name its
//                          first party is an error, with Firefox's exact
//                          message.
//   * Chips              — RFC6265bis `Partitioned` cookies: cross-site
//                          contexts may only store/see cookies carrying the
//                          Partitioned attribute, keyed by the top-level
//                          site; unpartitioned third-party traffic is
//                          blocked.
//
// Engines are stateless and shared: one const instance per engine serves
// every browser on every crawl worker (determinism contract D4 — no mutable
// statics; all state lives in the per-browser jar store).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cookies/cookie.h"
#include "cookies/cookie_jar.h"
#include "cookies/partitioned_store.h"
#include "net/url.h"
#include "webplat/stack_trace.h"

namespace cg::policy {

enum class PolicyKind { kNone, kCookieGuard, kFirstPartyIsolation, kChips };

std::string_view to_string(PolicyKind kind);
/// Parses "none" / "cookieguard" / "fpi" / "chips" (the --policy grammar).
std::optional<PolicyKind> parse_policy(std::string_view name);

/// Firefox's error when FPI is on but an access cannot name its first party
/// (toolkit/components/extensions cookies API, verbatim).
inline constexpr std::string_view kFpiMissingAttributeError =
    "First-Party Isolation is enabled, but the required 'firstPartyDomain' "
    "attribute was not set.";

/// Everything a policy engine may key on for one cookie access. Built by
/// the browser at each API boundary crossing (document.cookie, cookieStore,
/// HTTP attach / Set-Cookie).
struct CookieAccessContext {
  /// eTLD+1 of the top-level document — Firefox's firstPartyDomain, CHIPS's
  /// partition key. Empty models an access with no first-party context
  /// (FPI's error path).
  std::string top_level_site;
  /// URL the access is scoped to: the frame document for script APIs, the
  /// request URL for HTTP.
  net::Url subject_url;
  /// True when subject_url is cross-site to the top-level document.
  bool cross_site = false;
  /// eTLD+1 of the acting script (stack-trace attribution); empty for
  /// HTTP, inline scripts, or browser-internal access.
  std::string script_origin;
  cookies::JarApi api = cookies::JarApi::kScript;
  /// The parsed `Partitioned` attribute (stores only).
  bool partitioned_attribute = false;
};

/// Derives the acting script origin for a context from the capture-time
/// stack, the same attribution the paper's extensions use (§6.2): the
/// origin the last external frame cached when it was pushed.
std::string script_origin_from_stack(const webplat::StackTrace& stack);

/// Outcome of a store-key decision.
struct StoreDecision {
  bool allowed = false;
  cookies::PartitionKey key;
  /// Why the store was refused (kFpiMissingAttributeError, "unpartitioned
  /// third-party cookie blocked", ...). Empty when allowed.
  std::string error;
  /// True when the refusal is caused by the defense under test (tallied as
  /// a blocked manipulation); false for refusals every engine shares — the
  /// post-third-party-cookie baseline blocks cross-site HTTP cookies under
  /// `none` too, and counting those would credit the baseline to the
  /// defense.
  bool defense_block = false;

  static StoreDecision ok(cookies::PartitionKey key_in) {
    StoreDecision d;
    d.allowed = true;
    d.key = std::move(key_in);
    return d;
  }
  static StoreDecision blocked(std::string error_in,
                               bool defense_block_in = false) {
    StoreDecision d;
    d.error = std::move(error_in);
    d.defense_block = defense_block_in;
    return d;
  }
};

/// Outcome of a read-key decision: the partitions a retrieval consults, in
/// order. Empty keys + allowed=false means the context may read nothing
/// (e.g. cross-site under FPI in a post-third-party-cookie browser).
struct ReadDecision {
  bool allowed = false;
  std::vector<cookies::PartitionKey> keys;
  std::string error;
  /// See StoreDecision::defense_block.
  bool defense_block = false;

  static ReadDecision ok(std::vector<cookies::PartitionKey> keys_in) {
    ReadDecision d;
    d.allowed = true;
    d.keys = std::move(keys_in);
    return d;
  }
  static ReadDecision blocked(std::string error_in,
                              bool defense_block_in = false) {
    ReadDecision d;
    d.error = std::move(error_in);
    d.defense_block = defense_block_in;
    return d;
  }
};

class PartitionPolicy {
 public:
  virtual ~PartitionPolicy() = default;

  /// Which partition a Set-Cookie/write in `ctx` lands in, or why not.
  virtual StoreDecision key_for_store(const CookieAccessContext& ctx)
      const = 0;

  /// Which partitions a retrieval in `ctx` consults, in order.
  virtual ReadDecision key_for_read(const CookieAccessContext& ctx) const = 0;

  /// Per-cookie visibility filter applied after partition selection —
  /// CHIPS hides unpartitioned cookies from cross-site contexts even when
  /// a partition is readable.
  virtual bool visible(const cookies::Cookie& cookie,
                       const CookieAccessContext& ctx) const = 0;
};

/// The shared stateless engine for `kind`. Never null; valid for the
/// program's lifetime. kNone and kCookieGuard share one engine.
const PartitionPolicy& engine_for(PolicyKind kind);

}  // namespace cg::policy
