// The simulated browser: clock, cookie jar, network, catalog, extensions.
//
// One Browser instance models one fresh-profile visit (the crawler creates a
// new Browser per site, as the paper's Selenium harness launched a fresh
// Chrome per visit). Navigations within the visit share the jar, the clock,
// and the extension set.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "browser/catalog.h"
#include "browser/document_spec.h"
#include "browser/extension.h"
#include "browser/network.h"
#include "cookies/cookie_jar.h"
#include "cookies/partitioned_store.h"
#include "fault/fault.h"
#include "net/clock.h"
#include "net/dns.h"
#include "net/psl.h"
#include "net/url.h"
#include "policy/partition_policy.h"
#include "script/rng.h"

namespace cg::browser {

class Page;

/// Outcome of a navigation. Navigation can genuinely fail — DNS resolution,
/// connect timeouts — so callers get a page *or* a failure class, never an
/// unconditional page. Pointer-like accessors keep the happy path reading
/// as before: `auto page = browser.navigate(url); page->simulate_scroll();`.
struct [[nodiscard]] NavigationResult {
  std::unique_ptr<Page> page;
  fault::FailureClass failure = fault::FailureClass::kNone;

  // Out-of-line so Page can stay incomplete for header-only consumers.
  NavigationResult();
  NavigationResult(std::unique_ptr<Page> page, fault::FailureClass failure);
  NavigationResult(NavigationResult&&) noexcept;
  NavigationResult& operator=(NavigationResult&&) noexcept;
  ~NavigationResult();

  bool ok() const { return page != nullptr; }
  explicit operator bool() const { return ok(); }
  Page* operator->() const { return page.get(); }
  Page& operator*() const { return *page; }
  Page* get() const { return page.get(); }
  /// Successful results convert to the owned page (legacy callers that
  /// store a std::unique_ptr<Page>).
  operator std::unique_ptr<Page>() &&;
};

/// Timing-model and engine parameters. Millisecond costs were calibrated so
/// the unmodified browser's page-load distribution lands near the paper's
/// Table 4 "Normal" column (see perf/README in DESIGN.md).
struct BrowserConfig {
  /// Reconstruct async stack traces across setTimeout/promise boundaries
  /// (paper §8 discusses attribution with and without this).
  bool async_stack_traces = true;

  /// Wall-clock at visit start. The crawler staggers this per site — a crawl
  /// spans days, and identifier timestamps must differ across visits.
  TimeMillis clock_start = SimClock::kDefaultStart;

  /// Network fetch latencies are right-skewed (base + jitter * u1*u2*u3
  /// with u_i uniform): calibrated so the plain browser's page-load
  /// mean/median distribution lands on Table 4's "Normal" column.
  TimeMillis doc_fetch_base_ms = 50;
  TimeMillis doc_fetch_jitter_ms = 11000;
  TimeMillis script_fetch_base_ms = 2;
  TimeMillis script_fetch_jitter_ms = 10;
  /// Base compute cost of one scripted cookie/network API call.
  TimeMillis api_base_cost_ms = 1;
  /// DOM parse speed.
  int dom_nodes_per_ms = 8;
  /// Images/CSS after DCL, before the load event (skewed like doc fetch).
  TimeMillis subresource_base_ms = 200;
  TimeMillis subresource_jitter_ms = 7200;
};

/// Per-visit accounting of partitioning-policy effects, aggregated into the
/// defense bake-off matrix (obs `policy.*` counters carry the same tallies
/// through sharded crawls).
struct PolicyStats {
  std::uint64_t writes_blocked = 0;    // stores the policy refused
  std::uint64_t reads_blocked = 0;     // retrievals the policy refused
  std::uint64_t partitioned_stores = 0;  // stores into a non-default partition
};

class Browser {
 public:
  using DocumentProvider = std::function<DocumentSpec(const net::Url&)>;

  Browser(BrowserConfig config, std::uint64_t seed);
  ~Browser();

  Browser(const Browser&) = delete;
  Browser& operator=(const Browser&) = delete;

  const BrowserConfig& config() const { return config_; }
  SimClock& clock() { return clock_; }
  /// The default partition — the classic single first-party jar. Everything
  /// written against the one-jar model (tests, examples, CookieGuard's
  /// metadata bootstrap) keeps reading the same jar it always did.
  cookies::CookieJar& jar() { return jar_store_.default_jar(); }
  cookies::PartitionedJarStore& jar_store() { return jar_store_; }
  const cookies::PartitionedJarStore& jar_store() const { return jar_store_; }
  NetworkLayer& network() { return network_; }
  script::Rng& rng() { return rng_; }
  net::DnsResolver& dns() { return dns_; }
  const net::DnsResolver& dns() const { return dns_; }

  /// net::etld_plus_one(host), memoized for this visit: every cookie
  /// access, request and script inclusion asks for a site, but a visit
  /// only meets a few dozen hosts.
  const std::string& site_of(std::string_view host) {
    return sites_.site_of(host);
  }

  /// Active partitioning policy (never null; `none`'s single jar by
  /// default — byte-identical to the pre-policy simulator). Engines are
  /// stateless and shared; null resets to `none`.
  void set_policy(const policy::PartitionPolicy* policy) {
    policy_ = policy != nullptr
                  ? policy
                  : &policy::engine_for(policy::PolicyKind::kNone);
  }
  const policy::PartitionPolicy& policy() const { return *policy_; }

  PolicyStats& policy_stats() { return policy_stats_; }
  const PolicyStats& policy_stats() const { return policy_stats_; }

  /// Catalog and document provider are owned by the corpus (outlives the
  /// browser).
  void set_catalog(const ScriptCatalog* catalog) { catalog_ = catalog; }
  const ScriptCatalog* catalog() const { return catalog_; }

  void set_document_provider(DocumentProvider provider) {
    document_provider_ = std::move(provider);
  }
  DocumentSpec document_for(const net::Url& url) const {
    return document_provider_ ? document_provider_(url) : DocumentSpec{};
  }

  /// Extensions are installed in order; non-owning (caller keeps alive).
  void add_extension(Extension* extension);
  const std::vector<Extension*>& extensions() const { return extensions_; }

  /// Total simulated per-API-call interception overhead of all extensions.
  TimeMillis extension_api_overhead_ms() const;

  /// Navigates to `url`: resolves DNS, creates and fully loads a Page. The
  /// first navigation fires Extension::on_visit_start. Fails (null page +
  /// failure class) when resolution fails or the document fetch dies in
  /// transport; with no fault injection armed it always succeeds.
  NavigationResult navigate(const net::Url& url);

 private:
  BrowserConfig config_;
  SimClock clock_;
  script::Rng rng_;
  cookies::PartitionedJarStore jar_store_;
  NetworkLayer network_;
  net::DnsResolver dns_;
  net::SiteCache sites_;
  const ScriptCatalog* catalog_ = nullptr;
  DocumentProvider document_provider_;
  std::vector<Extension*> extensions_;
  const policy::PartitionPolicy* policy_ =
      &policy::engine_for(policy::PolicyKind::kNone);
  PolicyStats policy_stats_;
  bool visit_started_ = false;
};

}  // namespace cg::browser
