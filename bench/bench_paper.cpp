// Reproduces the paper's §5 measurement, Figure 5, the §2.1 baseline
// comparison, the §7 evaluation (Table 3 breakage, Table 4 page-load cost),
// the §6 defense bake-off, the DESIGN.md §4 ablations and the §8 evasion
// study from thirteen whole-corpus crawls of one corpus:
//
//   1. the measurement crawl (faults on; `--policy`, `--trace` and
//      CG_ARCHIVE apply to it): §5.1/§5.6 prevalence, §5.2 API usage,
//      Table 1, Table 2, Figure 2, §5.5 + Table 5 + Figure 6, §8 DOM pilot,
//      and the bake-off's Table 5 columns for its policy;
//   2. a fault-free plain crawl and
//   3. a fault-free crawl with one CookieGuard per worker: Figure 5, the
//      §2.1 "no defense" and "CookieGuard" rows, Table 4, the bake-off's
//      load overhead for none and cookieguard, and the paper rows of
//      ablations D1/D5 (crawl 2, whose sink also feeds D5's raw-only
//      matcher) and D2/D3 (crawl 3);
//   4. a fault-free crawl with one FilterListBlocker per worker: the §2.1
//      filter-list row;
//   5-7. crawl 1's configuration under each other bake-off policy: their
//      Table 5 columns (the none row may replay CG_ARCHIVE);
//   8-9. fault-free crawls under fpi and chips: their load overhead;
//   10-11. crawl 2 with async stack traces off and with top-frame-only
//      attribution: ablation D1;
//   12-13. crawl 3 with strict isolation and with inline scripts treated
//      as first party: ablations D2 and D3.
//
// Crawls 2-4 run without a partitioning policy: Figure 5, §2.1 and Table 4
// compare extensions on the status-quo jar. Table 3 and the bake-off's
// breakage columns probe a 100-site sample (src/breakage/), not the corpus.
// The §8 evasion study visits only the cloaked and inline-snippet sites,
// one at a time.
//
// tests/golden/paper_300.txt pins everything below the 4-line header at
// CG_SITES=300 (tests/paper_pin.cmake).
#include "baselines/baselines.h"
#include "breakage/breakage.h"
#include "cookieguard/cookieguard.h"
#include "perf/perf.h"

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace cg;
using cookies::CookieSource;
using policy::PolicyKind;

std::string top3(const std::map<std::string, int>& counts) {
  std::string out;
  for (const auto& [entity, n] : analysis::top_counts(counts, 3)) {
    if (!out.empty()) out += ", ";
    out += entity;
  }
  return out;
}

void section(const char* title) {
  const std::string rule(64, '=');
  std::printf("\n%s\n%s\n%s\n", rule.c_str(), title, rule.c_str());
}

/// What one whole-corpus crawl leaves behind. One sink folds every visit
/// into the analyzer, whose totals keep the landing timings too; the
/// metrics registry and the summed counters of the per-worker CookieGuards
/// (zero without a guard) feed the bake-off's blocked/hidden/partitioned
/// columns.
struct Crawl {
  analysis::Analyzer analyzer;
  obs::MetricsRegistry metrics;
  cookieguard::CookieGuard::Stats guard_stats;
};

/// The one crawl helper: the whole corpus under `options` (policy, fault
/// plan, per-worker extensions, trace, threads), metrics on. A non-null
/// `also` folds every visit too.
Crawl crawl(const corpus::Corpus& corpus, crawler::CrawlOptions options,
            analysis::Analyzer* also = nullptr) {
  Crawl out{analysis::Analyzer(corpus.entities()), {}, {}};
  options.metrics = &out.metrics;
  crawler::Crawler(corpus).crawl(
      corpus.size(), options, [&out, also](instrument::VisitLog&& log) {
        out.analyzer.ingest(log);
        if (also != nullptr) also->ingest(log);
      });
  return out;
}

/// Table 4's landing-timing summary of a crawl, from the timings its
/// analyzer kept for every visit.
perf::Metrics landing_timings(const Crawl& crawl) {
  const analysis::Totals& t = crawl.analyzer.totals();
  return {perf::summarize(t.dom_content_loaded),
          perf::summarize(t.dom_interactive), perf::summarize(t.load_event)};
}

/// The landing timings of a whole-corpus crawl under `options`, and
/// nothing else: the bake-off reads only the load overhead of the fpi and
/// chips timing crawls, so their visits are neither folded nor counted.
perf::Metrics timing_crawl(const corpus::Corpus& corpus,
                           const crawler::CrawlOptions& options) {
  perf::TimingCollector timings;
  crawler::Crawler(corpus).crawl(
      corpus.size(), options,
      [&timings](instrument::VisitLog&& log) { timings.add(log); });
  return timings.metrics();
}

/// crawl() with one CookieGuard per worker under `config` (the paper's
/// policy by default).
Crawl guarded_crawl(const corpus::Corpus& corpus,
                    crawler::CrawlOptions options,
                    const cookieguard::CookieGuardConfig& config = {}) {
  crawler::PerWorker<cookieguard::CookieGuard> guards(options.threads,
                                                      config);
  options.extension_factory = guards.factory();
  Crawl out = crawl(corpus, options);
  for (const auto& guard : guards.instances()) {
    out.guard_stats.merge(guard->stats());
  }
  return out;
}

crawler::CrawlOptions crawl_options(int threads, PolicyKind policy,
                                    bool faults) {
  crawler::CrawlOptions options;
  options.threads = threads;
  options.policy = policy;
  if (!faults) options.fault_plan.reset();
  return options;
}

/// The measurement crawl (faults on) under `policy`'s bake-off deployment:
/// the engine, plus one strict CookieGuard per worker under kCookieGuard
/// (the paper's deployment, the same browsers as `cgsim crawl --policy
/// cookieguard`). A non-null `trace` receives its virtual-time trace. With
/// CG_ARCHIVE set and neither a trace nor a policy, the archive replays
/// instead: it records only this crawl's analysis, and under none no engine
/// or extension blocks, hides or partitions, so its empty metrics read the
/// same zeros a live crawl counts.
Crawl measurement_crawl(const corpus::Corpus& corpus, int threads,
                        PolicyKind policy,
                        obs::TraceRecorder* trace = nullptr) {
  if (trace == nullptr && policy == PolicyKind::kNone) {
    Crawl replay{analysis::Analyzer(corpus.entities()), {}, {}};
    if (bench::analyzer_from_archive_env(corpus, replay.analyzer)) {
      return replay;
    }
  }
  auto options = crawl_options(threads, policy, /*faults=*/true);
  options.trace = trace;
  return policy == PolicyKind::kCookieGuard ? guarded_crawl(corpus, options)
                                            : crawl(corpus, options);
}

void print_prevalence(const analysis::Analyzer& analyzer) {
  section("§5.1 / §5.6 — prevalence of third-party scripts in the main frame");
  const auto& t = analyzer.totals();
  const double crawled = t.sites_crawled;

  std::printf("\nsites crawled: %d, with complete logs: %d (paper: "
              "20,000 / 14,917)\n\n",
              t.sites_crawled, t.sites_complete);

  bench::print_row("sites with >=1 third-party script",
                   93.3, 100.0 * t.sites_with_third_party / crawled);
  bench::print_row("distinct third-party scripts per site (avg)", 19.0,
                   double(t.third_party_script_count) / crawled, "");
  bench::print_row("third-party scripts that are ad/tracking", 70.0,
                   100.0 * double(t.third_party_ad_tracking_count) /
                       double(t.third_party_script_count));
  bench::print_row("third-party cookies set per site (avg)", 15.0,
                   double(t.tp_cookies_set) / t.sites_complete, "");
  bench::print_row("first-party cookies set per site (avg)", 4.0,
                   double(t.fp_cookies_set) / t.sites_complete, "");

  std::printf("\n-- §5.6 inclusion paths (third-party scripts) --\n");
  bench::print_row("indirect / direct inclusion ratio", 2.5,
                   double(t.indirect_inclusions) /
                       double(t.direct_inclusions), "x");
  bench::print_row("indirect inclusions that are ad/tracking", 33.0,
                   100.0 * double(t.indirect_ad_tracking) /
                       double(t.indirect_inclusions));
  std::printf("\n");
}

void print_api_usage(const analysis::Analyzer& analyzer) {
  section("§5.2 — usage of script cookie APIs in the wild");
  const auto& t = analyzer.totals();
  const double n = t.sites_complete;

  bench::print_row("sites invoking document.cookie", 96.3,
                   100.0 * t.sites_using_document_cookie / n);
  bench::print_row("sites invoking cookieStore", 2.8,
                   100.0 * t.sites_using_cookie_store / n);

  std::printf("\n  unique cookie pairs (name, setter domain):\n");
  std::printf("    document.cookie/header: %d   (paper: 81,918 at 20k sites)\n",
              analyzer.pair_count(CookieSource::kDocumentCookie));
  std::printf("    cookieStore:            %d   (paper: 411)\n",
              analyzer.pair_count(CookieSource::kCookieStore));
  std::printf("  unique setter script URLs: %lld (paper: 92,235)\n",
              t.unique_setter_scripts);

  std::printf("\n  cookieStore cookie names (paper: 13 names, ~90%% being "
              "keep_alive and _awl):\n");
  for (const auto& name : t.store_cookie_names) {
    std::printf("    %s\n", name.c_str());
  }
  std::printf("  cookieStore setter script domains: %zu (paper: 361)\n\n",
              t.store_script_domains.size());
}

void print_table1(const analysis::Analyzer& analyzer) {
  section("Table 1 — prevalence of cross-domain cookie actions");
  const auto& t = analyzer.totals();
  const double n = t.sites_complete;
  const double doc_pairs = analyzer.pair_count(CookieSource::kDocumentCookie);
  const double store_pairs = analyzer.pair_count(CookieSource::kCookieStore);

  std::printf("\nsites analyzed: %d; unique pairs: %.0f (doc) %.0f (store)\n",
              t.sites_complete, doc_pairs, store_pairs);

  struct Row {
    const char* action;
    double paper_sites, paper_cookies;
    int sites;
    int cookie_count;
    double pairs;
  };
  const Row rows[] = {
      {"doc.cookie exfiltration", 55.7, 5.9, t.sites_doc_exfil,
       analyzer.exfiltrated_pair_count(CookieSource::kDocumentCookie),
       doc_pairs},
      {"doc.cookie overwriting", 31.5, 2.7, t.sites_doc_overwrite,
       analyzer.overwritten_pair_count(CookieSource::kDocumentCookie),
       doc_pairs},
      {"doc.cookie deleting", 6.3, 1.8, t.sites_doc_delete,
       analyzer.deleted_pair_count(CookieSource::kDocumentCookie), doc_pairs},
      {"cookieStore exfiltration", 0.7, 16.3, t.sites_store_exfil,
       analyzer.exfiltrated_pair_count(CookieSource::kCookieStore),
       store_pairs},
      {"cookieStore overwriting", 0.0, 0.0, t.sites_store_overwrite,
       analyzer.overwritten_pair_count(CookieSource::kCookieStore),
       store_pairs},
      {"cookieStore deleting", 0.0, 0.0, t.sites_store_delete,
       analyzer.deleted_pair_count(CookieSource::kCookieStore), store_pairs},
  };

  std::printf("\n  %-26s | %% of websites (paper/meas) | %% of cookies "
              "(paper/meas) | #cookies\n",
              "action");
  std::printf("  %s\n", std::string(94, '-').c_str());
  for (const auto& row : rows) {
    const double cookies =
        row.pairs > 0 ? 100.0 * row.cookie_count / row.pairs : 0.0;
    std::printf("  %-26s |        %5.1f / %5.1f       |       %5.1f / %5.1f"
                "       | %d\n",
                row.action, row.paper_sites, 100.0 * row.sites / n,
                row.paper_cookies, cookies, row.cookie_count);
  }
  std::printf("\n");
}

void print_table2(const analysis::Analyzer& analyzer) {
  section("Table 2 — top 20 cookies exfiltrated by cross-domain scripts");
  std::printf("\n  %-22s %-22s %6s %6s  %-34s %s\n", "cookie", "owner domain",
              "#exfil", "#dest", "top exfiltrator entities",
              "top destination entities");
  std::printf("  %s\n", std::string(130, '-').c_str());
  for (const auto& row : analyzer.top_exfiltrated(20)) {
    std::printf("  %-22s %-22s %6zu %6zu  %-34s %s\n",
                row.pair.name.c_str(), row.pair.owner_domain.c_str(),
                row.stats->exfiltrator_entities.size(),
                row.stats->destination_entities.size(),
                top3(row.stats->exfiltrator_entities).c_str(),
                top3(row.stats->destination_entities).c_str());
  }
  std::printf("\n  paper row 1: _ga | googletagmanager.com | 1191 | 664 | "
              "Microsoft, Yandex, Pinterest | HubSpot, Microsoft, Amazon\n"
              "  (absolute entity counts scale with the catalog's vendor\n"
              "   population; ordering and entity mix are the comparison "
              "targets)\n\n");
}

void print_fig2(const analysis::Analyzer& analyzer) {
  section("Figure 2 — top 20 cross-domain exfiltrator script domains");
  const double total_pairs = analyzer.pair_count(CookieSource::kDocumentCookie) +
                             analyzer.pair_count(CookieSource::kCookieStore);

  std::printf("\n  %-30s %10s %10s\n", "script domain", "#cookies",
              "% of all");
  std::printf("  %s\n", std::string(54, '-').c_str());
  const auto domains = analyzer.top_exfiltrator_domains(20);
  for (const auto& [domain, count] : domains) {
    const auto bar = static_cast<std::size_t>(50.0 * count /
                                              domains.front().second);
    std::printf("  %-30s %10d %9.2f%%  %s\n", domain.c_str(), count,
                100.0 * count / total_pairs, std::string(bar, '#').c_str());
  }
  std::printf("\n  paper: google-analytics.com #1 at 3.3%% of all cookies, "
              "followed by RTB\n  exchanges (doubleclick.net, "
              "amazon-adsystem.com, pubmatic.com).\n\n");
}

void print_table5_fig6(const analysis::Analyzer& analyzer) {
  section("Table 5 / Figure 6 — cross-domain overwriting and deletion");
  const auto& t = analyzer.totals();

  std::printf("\n-- §5.5 attributes changed by cross-domain overwrites --\n");
  const double overwrites = std::max(1LL, t.cross_overwrites);
  bench::print_row("value changed", 85.3,
                   100.0 * t.overwrite_value_changed / overwrites);
  bench::print_row("expires changed", 69.4,
                   100.0 * t.overwrite_expires_changed / overwrites);
  bench::print_row("domain changed", 6.0,
                   100.0 * t.overwrite_domain_changed / overwrites);
  bench::print_row("path changed", 1.2,
                   100.0 * t.overwrite_path_changed / overwrites);
  std::printf("  lifespan: %lld overwrites pushed the expiry later "
              "(avg +%.0f days), %lld pulled it\n  earlier -- 'extending "
              "tracking durations beyond the original intent' (s5.5)\n",
              t.overwrite_expiry_extended,
              t.overwrite_expiry_extended > 0
                  ? t.expiry_days_added / t.overwrite_expiry_extended
                  : 0.0,
              t.overwrite_expiry_shortened);

  std::printf("\n-- Table 5a: most frequently overwritten cookie pairs --\n");
  std::printf("  %-22s %-24s %8s  %s\n", "cookie", "creator domain",
              "#manip", "top manipulator entities");
  for (const auto& row : analyzer.top_overwritten(10)) {
    std::printf("  %-22s %-24s %8zu  %s\n", row.pair.name.c_str(),
                row.pair.owner_domain.c_str(),
                row.stats->overwriter_entities.size(),
                top3(row.stats->overwriter_entities).c_str());
  }
  std::printf("  paper: _fbp (facebook.net) leads with 132 manipulator "
              "entities\n");

  std::printf("\n-- Table 5b: most frequently deleted cookie pairs --\n");
  std::printf("  %-22s %-24s %8s  %s\n", "cookie", "creator domain",
              "#manip", "top manipulator entities");
  for (const auto& row : analyzer.top_deleted(10)) {
    std::printf("  %-22s %-24s %8zu  %s\n", row.pair.name.c_str(),
                row.pair.owner_domain.c_str(),
                row.stats->deleter_entities.size(),
                top3(row.stats->deleter_entities).c_str());
  }
  std::printf("  paper: _uetvid/_uetsid (bing.com) lead; consent managers "
              "(Tealium, cookie-script,\n  cdn-cookieyes) dominate the "
              "deleter side\n");

  std::printf("\n-- Figure 6a: top overwriter script domains --\n");
  for (const auto& [domain, count] : analyzer.top_overwriter_domains(20)) {
    std::printf("  %-30s %6d unique cookies\n", domain.c_str(), count);
  }
  std::printf("  paper: googletagmanager.com #1 (386 of 82k cookies)\n");

  std::printf("\n-- Figure 6b: top deleter script domains --\n");
  for (const auto& [domain, count] : analyzer.top_deleter_domains(20)) {
    std::printf("  %-30s %6d unique cookies\n", domain.c_str(), count);
  }
  std::printf("  paper: prettylittlething.com (a first-party cleanup script) "
              "#1 (252 cookies);\n  consent managers follow\n\n");
}

void print_dom_pilot(const analysis::Analyzer& analyzer) {
  section("§8 pilot — cross-domain DOM modification");
  const auto& t = analyzer.totals();
  bench::print_row("sites with cross-domain DOM modification", 9.4,
                   100.0 * t.sites_with_cross_dom_modification /
                       t.sites_complete);
  std::printf("\n");
}

// Figure 5: the residual under CookieGuard comes from the site-owner
// full-access policy (§6.1) — site scripts proxying identifiers
// (server-side GTM, §5.7) and first-party cleanup/rewrite scripts.
void print_fig5(const analysis::Analyzer& plain,
                const analysis::Analyzer& guarded,
                const cookieguard::CookieGuard::Stats& guard_stats) {
  section("Figure 5 — cross-domain actions, regular browser vs CookieGuard");
  const auto& b = plain.totals();
  const auto& g = guarded.totals();
  const double nb = b.sites_complete;
  const double ng = g.sites_complete;

  struct Row {
    const char* action;
    double paper_reduction;
    double without, with;
  };
  const Row rows[] = {
      {"exfiltration", 83.2, 100.0 * b.sites_doc_exfil / nb,
       100.0 * g.sites_doc_exfil / ng},
      {"overwriting", 82.2, 100.0 * b.sites_doc_overwrite / nb,
       100.0 * g.sites_doc_overwrite / ng},
      {"deleting", 86.2, 100.0 * b.sites_doc_delete / nb,
       100.0 * g.sites_doc_delete / ng},
  };

  std::printf("\n  %-14s | %% sites w/o ext | %% sites w/ ext | reduction "
              "(paper)\n", "action");
  std::printf("  %s\n", std::string(66, '-').c_str());
  for (const auto& row : rows) {
    const double reduction =
        row.without > 0 ? 100.0 * (1.0 - row.with / row.without) : 0.0;
    std::printf("  %-14s |     %6.1f      |     %6.1f     |  %5.1f%% "
                "(%.1f%%)\n",
                row.action, row.without, row.with, reduction,
                row.paper_reduction);
  }

  std::printf("\n  enforcement stats: %llu cookies hidden from reads, "
              "%llu cross-domain writes blocked,\n  %llu inline accesses "
              "denied\n\n",
              static_cast<unsigned long long>(guard_stats.cookies_hidden),
              static_cast<unsigned long long>(guard_stats.writes_blocked),
              static_cast<unsigned long long>(guard_stats.inline_denied));
}

// §2.1: third-party cookie blocking and storage partitioning isolate
// *sites*, not *scripts*, so they equal the "no defense" row (the
// `none`/`fpi`/`chips` rows of the §6 bake-off measure that). The
// filter list removes listed vendors (and their functionality) but misses
// the long tail, CNAME-cloaked scripts and first-party proxies; CookieGuard
// cuts all three action classes by >80% while keeping vendors running.
void print_baselines(const analysis::Analyzer& plain,
                     const analysis::Analyzer& filtered,
                     const analysis::Analyzer& guarded,
                     const baselines::FilterListBlocker::Stats& filter_stats) {
  section("§2.1 baselines — existing defenses vs CookieGuard");
  struct Row {
    const char* label;
    const analysis::Analyzer& analyzer;
  };
  const Row rows[] = {
      {"no defense", plain},
      {"filter-list blocker", filtered},
      {"CookieGuard", guarded},
  };

  std::printf("\n  %-28s | exfil%% | overwrite%% | delete%% | TP scripts/site\n",
              "defense");
  std::printf("  %s\n", std::string(76, '-').c_str());
  for (const auto& row : rows) {
    const auto& t = row.analyzer.totals();
    const double n = t.sites_complete;
    std::printf("  %-28s | %6.1f | %10.1f | %7.1f | %8.1f\n", row.label,
                100.0 * t.sites_doc_exfil / n,
                100.0 * t.sites_doc_overwrite / n,
                100.0 * t.sites_doc_delete / n,
                double(t.third_party_script_count) / t.sites_crawled);
  }

  std::printf("\n  filter list blocked %llu script inclusions and %llu "
              "requests (functionality cost).\n\n",
              static_cast<unsigned long long>(filter_stats.scripts_blocked),
              static_cast<unsigned long long>(filter_stats.requests_blocked));
}

constexpr breakage::GuardMode kModes[] = {
    breakage::GuardMode::kOff, breakage::GuardMode::kStrict,
    breakage::GuardMode::kEntityGrouping,
    breakage::GuardMode::kGroupingPlusPolicies};

// Table 3: the paper's manual evaluation of 100 sites from the top 10k,
// here executable functionality probes on the status-quo jar. Returns the
// summaries in kModes order.
//
// Paper (strict CookieGuard):
//           navigation  SSO  appearance  functionality
//   minor       0%       1%      0%           3%
//   major       0%      11%      0%           3%
// Entity grouping + per-site domain policies reduce breakage to ~3%.
std::array<breakage::Summary, 4> print_table3(
    const breakage::BreakageEvaluator& evaluator,
    const std::vector<int>& sample, int top_k) {
  section("Table 3 — website breakage under CookieGuard");
  std::printf("\nsample: %zu sites from the top %d\n", sample.size(), top_k);

  static const char* kAspects[] = {"navigation", "sso", "appearance",
                                   "functionality"};
  std::array<breakage::Summary, 4> summaries;
  for (std::size_t m = 0; m < summaries.size(); ++m) {
    const auto& summary = summaries[m] =
        evaluator.summarize(sample, kModes[m]);
    std::printf("\n-- %s --\n", breakage::to_string(kModes[m]));
    std::printf("  %-14s %8s %8s\n", "aspect", "minor", "major");
    for (int aspect = 0; aspect < 4; ++aspect) {
      std::printf("  %-14s %7.1f%% %7.1f%%\n", kAspects[aspect],
                  100.0 * summary.minor[aspect] / summary.sites,
                  100.0 * summary.major[aspect] / summary.sites);
    }
    std::printf("  sites with any major breakage: %.1f%%\n",
                100.0 * summary.sites_major / summary.sites);
  }

  std::printf("\n  paper: strict mode shows 1%% minor / 11%% major SSO and "
              "3%%/3%% functionality\n  breakage; the entity whitelist + "
              "domain policies reduce breakage to 3%%.\n\n");
  return summaries;
}

void print_timing_row(const char* name, double paper_mean_n,
                      double paper_med_n, double paper_mean_g,
                      double paper_med_g, const perf::TimingSummary& normal,
                      const perf::TimingSummary& guarded) {
  std::printf("  %-20s | %7.0f / %-7.0f (paper %4.0f/%-4.0f) | %7.0f / %-7.0f"
              " (paper %4.0f/%-4.0f)\n",
              name, normal.mean_ms, double(normal.median_ms), paper_mean_n,
              paper_med_n, guarded.mean_ms, double(guarded.median_ms),
              paper_mean_g, paper_med_g);
}

// Table 4: page-load cost of CookieGuard, from the Figure 5 pair's landing
// timings.
void print_table4(const perf::Comparison& comparison) {
  section("Table 4 — page-load performance (mean / median ms)");
  std::printf("\n  %-20s | %-38s | %s\n", "metric", "Normal",
              "CookieGuard");
  std::printf("  %s\n", std::string(100, '-').c_str());
  print_timing_row("DOM Content Loaded", 1659, 946, 1896, 1020,
                   comparison.normal.dom_content_loaded,
                   comparison.guarded.dom_content_loaded);
  print_timing_row("DOM Interactive", 1464, 842, 1702, 911,
                   comparison.normal.dom_interactive,
                   comparison.guarded.dom_interactive);
  print_timing_row("Load Event", 3197, 2008, 3635, 2136,
                   comparison.normal.load_event,
                   comparison.guarded.load_event);
  std::printf("\n  mean overhead on load event: %.0f ms (paper: ~300 ms "
              "average overhead)\n\n",
              comparison.mean_overhead_ms);
}

// §6 bake-off: the paper's evaluation axes under each partitioning policy.
// FPI and CHIPS partition *between* top-level sites, so they neither break
// nor protect the first-party jar: in-jar cross-domain overwriting and
// deletion sail through both. Only CookieGuard, which partitions *within*
// the jar by script origin, blocks the manipulation the paper measures, at
// the cost of the Table 3 breakage it quantifies.
struct MatrixRow {
  PolicyKind kind = PolicyKind::kNone;
  double breakage_minor_pct = 0;  // sites with any minor regression
  double breakage_major_pct = 0;  // sites with any major regression
  double overhead_ms = 0;         // mean load-event delta vs plain browser
  // Manipulation axis (Table 5): what the defense stopped...
  long long writes_blocked = 0;   // engine refusals + extension vetoes
  long long cookies_hidden = 0;   // cookies filtered out of reads
  long long partitioned_stores = 0;  // cookies diverted into partitions
  // ...and what still reached analysis.
  double doc_overwrite_pct = 0;  // sites with cross-domain overwriting
  double doc_delete_pct = 0;     // sites with cross-domain deletion
  double doc_exfil_pct = 0;      // sites with cross-domain exfiltration
};

/// One row from its three axes: breakage on the sample (Table 3), the
/// paired fault-free load timings (Table 4), and the faults-on crawl under
/// the deployment (Table 5).
MatrixRow matrix_row(PolicyKind kind, const breakage::Summary& breakage,
                     const perf::Comparison& timing, const Crawl& crawl) {
  MatrixRow row;
  row.kind = kind;
  row.breakage_minor_pct = 100.0 * breakage.sites_minor / breakage.sites;
  row.breakage_major_pct = 100.0 * breakage.sites_major / breakage.sites;
  row.overhead_ms = timing.mean_overhead_ms;
  row.writes_blocked =
      crawl.metrics.counter("policy.writes_blocked") +
      static_cast<long long>(crawl.guard_stats.writes_blocked);
  row.cookies_hidden = crawl.metrics.counter("cookieguard.cookies_hidden");
  row.partitioned_stores = crawl.metrics.counter("policy.partitioned_stores");
  const auto& t = crawl.analyzer.totals();
  const double n = std::max(1, t.sites_complete);
  row.doc_overwrite_pct = 100.0 * t.sites_doc_overwrite / n;
  row.doc_delete_pct = 100.0 * t.sites_doc_delete / n;
  row.doc_exfil_pct = 100.0 * t.sites_doc_exfil / n;
  return row;
}

void print_matrix(const std::vector<MatrixRow>& rows) {
  section("§6 defense bake-off — CookieGuard vs FPI vs CHIPS vs none "
          "(Tables 3/4/5 per policy)");
  std::printf("\n-- defense bake-off matrix --\n");
  std::printf("  %-12s %7s %7s %9s %9s %9s %11s %8s %8s %8s\n", "policy",
              "minor%", "major%", "ovhd ms", "blocked", "hidden", "partition'd",
              "overwr%", "delete%", "exfil%");
  for (const auto& row : rows) {
    std::printf(
        "  %-12s %7.1f %7.1f %9.1f %9lld %9lld %11lld %8.1f %8.1f %8.1f\n",
        std::string(policy::to_string(row.kind)).c_str(),
        row.breakage_minor_pct, row.breakage_major_pct, row.overhead_ms,
        row.writes_blocked, row.cookies_hidden, row.partitioned_stores,
        row.doc_overwrite_pct, row.doc_delete_pct, row.doc_exfil_pct);
  }

  // Markdown copy, ready to paste into EXPERIMENTS.md.
  std::printf("\n-- markdown (EXPERIMENTS.md) --\n");
  std::printf(
      "| policy | breakage minor | breakage major | load overhead (ms) | "
      "manipulations blocked | cookies hidden | partitioned stores | "
      "overwrite sites | delete sites | exfil sites |\n");
  std::printf("|---|---|---|---|---|---|---|---|---|---|\n");
  for (const auto& row : rows) {
    std::printf(
        "| %s | %.1f%% | %.1f%% | %.1f | %lld | %lld | %lld | %.1f%% | "
        "%.1f%% | %.1f%% |\n",
        std::string(policy::to_string(row.kind)).c_str(),
        row.breakage_minor_pct, row.breakage_major_pct, row.overhead_ms,
        row.writes_blocked, row.cookies_hidden, row.partitioned_stores,
        row.doc_overwrite_pct, row.doc_delete_pct, row.doc_exfil_pct);
  }

  std::printf(
      "\n  reading: FPI/CHIPS partition BETWEEN top-level sites, so they "
      "neither break the\n  first-party jar nor protect it — in-jar "
      "cross-domain overwriting/deletion match the\n  none row. Only "
      "CookieGuard partitions WITHIN the jar (per script origin): it "
      "blocks\n  the Table 5 manipulation at the price of the Table 3 "
      "breakage.\n\n");
}

// The DESIGN.md §4 ablations, each knob against the paper's choice. Rates
// are percentages of sites with complete logs (cross-domain actions) or of
// attributed script cookie writes.
struct AblationRow {
  double exfil_sites = 0, over_sites = 0, del_sites = 0;
  double attribution_accuracy = 0, attribution_unknown = 0;
  int exfil_pairs = 0;
};

AblationRow ablation_row(const analysis::Analyzer& analyzer) {
  const auto& t = analyzer.totals();
  const double n = t.sites_complete;
  AblationRow row;
  row.exfil_sites = 100.0 * t.sites_doc_exfil / n;
  row.over_sites = 100.0 * t.sites_doc_overwrite / n;
  row.del_sites = 100.0 * t.sites_doc_delete / n;
  if (t.attributed_sets > 0) {
    row.attribution_accuracy =
        100.0 * t.attribution_correct / t.attributed_sets;
    row.attribution_unknown =
        100.0 * t.attribution_unknown / t.attributed_sets;
  }
  row.exfil_pairs =
      analyzer.exfiltrated_pair_count(CookieSource::kDocumentCookie);
  return row;
}

/// The ablation rows that reuse fault-free crawls run for earlier tables:
/// D1's and D5's paper rows are the plain crawl, whose sink also fed D5's
/// raw-only matcher, and D2/D3's paper row is Figure 5's guarded crawl.
struct AblationPaperRows {
  AblationRow plain;
  AblationRow raw_only;
  AblationRow guarded;
};

void print_ablations(const corpus::Corpus& corpus,
                     const crawler::CrawlOptions& fault_free,
                     const AblationPaperRows& paper) {
  section("Ablations — DESIGN.md D1/D2/D3/D5 design knobs");

  std::printf("\n-- D1: stack-trace attribution of cookie writes --\n");
  auto no_async_options = fault_free;
  no_async_options.browser_config.async_stack_traces = false;
  auto top_only_options = fault_free;
  top_only_options.attribution = ext::AttributionMode::kTopFrameOnly;
  const AblationRow d1[] = {
      paper.plain, ablation_row(crawl(corpus, no_async_options).analyzer),
      ablation_row(crawl(corpus, top_only_options).analyzer)};
  const char* d1_labels[] = {"last-external + async stack traces (paper)",
                             "last-external, async stacks disabled",
                             "top-frame-only (naive)"};
  for (int i = 0; i < 3; ++i) {
    std::printf("  %-44s accuracy %5.1f%%  unknown %5.1f%%\n", d1_labels[i],
                d1[i].attribution_accuracy, d1[i].attribution_unknown);
  }

  std::printf("\n-- D2/D3: CookieGuard policy (residual cross-domain sites, "
              "%%) --\n");
  cookieguard::CookieGuardConfig strict_cfg;
  strict_cfg.site_owner_full_access = false;
  cookieguard::CookieGuardConfig inline_cfg;
  inline_cfg.deny_inline_scripts = false;
  const AblationRow d2[] = {
      paper.guarded,
      ablation_row(guarded_crawl(corpus, fault_free, strict_cfg).analyzer),
      ablation_row(guarded_crawl(corpus, fault_free, inline_cfg).analyzer)};
  const char* d2_labels[] = {"paper policy (owner access, inline deny)",
                             "strict isolation (no owner access)",
                             "inline scripts treated as first party"};
  for (int i = 0; i < 3; ++i) {
    std::printf("  %-40s exfil %5.1f  overwrite %5.1f  delete %5.1f\n",
                d2_labels[i], d2[i].exfil_sites, d2[i].over_sites,
                d2[i].del_sites);
  }

  std::printf("\n-- D5: exfiltration detector encodings --\n");
  std::printf("  %-44s pairs %5d  sites %5.1f%%\n",
              "raw + Base64 + MD5 + SHA1 (paper)", paper.plain.exfil_pairs,
              paper.plain.exfil_sites);
  std::printf("  %-44s pairs %5d  sites %5.1f%%\n", "raw matching only",
              paper.raw_only.exfil_pairs, paper.raw_only.exfil_sites);
  std::printf("  encoded-only flows missed by the raw detector: %d pairs "
              "(LinkedIn-style Base64,\n  hashed sync pixels)\n",
              paper.plain.exfil_pairs - paper.raw_only.exfil_pairs);
  std::printf("\n");
}

// §8 evasion: how scripts escape CookieGuard's attribution, and the
// counter-measures the paper sketches.
//
//   * CNAME cloaking: a tracker served from metrics.<site> (CNAME to
//     collect.cloaktrack.net) is attributed to the first party and inherits
//     the site-owner full-access policy — it sees the whole jar. Resolving
//     canonical names (resolve_cname_cloaking) demotes it to a third party.
//   * Inline embedding: a verbatim inline copy of the gtag snippet is
//     denied all cookie access by the safe-by-default policy (over-
//     blocking); behaviour-signature matching restores it as
//     googletagmanager.com without opening the jar to unknown inline code.
struct SubsetStats {
  double exfil_sites = 0;   // cross-domain exfiltration among subset sites
  double ga_set_sites = 0;  // sites where an inline script created a cookie
};

/// Visits `subset` one site at a time (visit() never applies the fault
/// plan), with `guard` installed when non-null.
SubsetStats crawl_subset(const corpus::Corpus& corpus,
                         const std::vector<int>& subset,
                         cookieguard::CookieGuard* guard) {
  crawler::Crawler crawler(corpus);
  analysis::Analyzer analyzer(corpus.entities());
  crawler::CrawlOptions options;
  if (guard != nullptr) options.extra_extensions.push_back(guard);

  int ga_sites = 0;
  for (const int index : subset) {
    const auto log = crawler.visit(index, options);
    // Ground truth: an inline script (no script URL) created a cookie.
    const bool ga = std::any_of(
        log.script_sets.begin(), log.script_sets.end(), [](const auto& s) {
          return s.true_domain.empty() &&
                 s.change_type == cookies::CookieChange::Type::kCreated;
        });
    ga_sites += ga ? 1 : 0;
    analyzer.ingest(log);
  }
  SubsetStats out;
  const auto& t = analyzer.totals();
  out.exfil_sites =
      t.sites_complete > 0 ? 100.0 * t.sites_doc_exfil / t.sites_complete : 0;
  out.ga_set_sites = subset.empty() ? 0 : 100.0 * ga_sites / subset.size();
  return out;
}

void print_evasion(const corpus::Corpus& corpus) {
  section("§8 — evasion via CNAME cloaking and inline embedding, and "
          "counter-measures");
  std::vector<int> cloaked_sites;
  std::vector<int> inline_sites;
  for (int i = 0; i < corpus.size(); ++i) {
    if (corpus.site(i).has_cloaked_tracker) cloaked_sites.push_back(i);
    if (corpus.site(i).has_inline_tracker) inline_sites.push_back(i);
  }
  std::printf("\nsites with a CNAME-cloaked tracker: %zu; with an inline "
              "vendor snippet: %zu\n",
              cloaked_sites.size(), inline_sites.size());

  std::printf("\n-- CNAME cloaking (cross-domain exfiltration on cloaked "
              "sites) --\n");
  {
    const auto none = crawl_subset(corpus, cloaked_sites, nullptr);
    cookieguard::CookieGuard plain_guard;
    const auto guarded = crawl_subset(corpus, cloaked_sites, &plain_guard);
    cookieguard::CookieGuardConfig uncloak_cfg;
    uncloak_cfg.resolve_cname_cloaking = true;
    cookieguard::CookieGuard uncloak_guard(uncloak_cfg);
    const auto uncloaked = crawl_subset(corpus, cloaked_sites, &uncloak_guard);

    std::printf("  %-44s %5.1f%% of cloaked sites\n", "no extension",
                none.exfil_sites);
    std::printf("  %-44s %5.1f%%  <- the cloaked script passes as the site "
                "owner\n",
                "CookieGuard (no uncloaking)", guarded.exfil_sites);
    std::printf("  %-44s %5.1f%%  <- canonical-name attribution closes the "
                "hole\n",
                "CookieGuard + resolve_cname_cloaking", uncloaked.exfil_sites);
  }

  std::printf("\n-- Inline vendor snippet (gtag pasted inline) --\n");
  {
    const auto none = crawl_subset(corpus, inline_sites, nullptr);
    cookieguard::CookieGuard plain_guard;
    const auto guarded = crawl_subset(corpus, inline_sites, &plain_guard);

    cookieguard::SignatureDb signatures;
    signatures.build_from_catalog(corpus.catalog());
    cookieguard::CookieGuardConfig sig_cfg;
    sig_cfg.signature_db = &signatures;
    cookieguard::CookieGuard sig_guard(sig_cfg);
    const auto matched = crawl_subset(corpus, inline_sites, &sig_guard);

    std::printf("  signature database: %zu known vendor signatures\n",
                signatures.size());
    std::printf("  %-44s inline sets on %5.1f%% of sites\n", "no extension",
                none.ga_set_sites);
    std::printf("  %-44s inline sets on %5.1f%%  <- safe-by-default denies "
                "the legit snippet\n",
                "CookieGuard (inline denied)", guarded.ga_set_sites);
    std::printf("  %-44s inline sets on %5.1f%%  <- recognised as "
                "googletagmanager.com\n",
                "CookieGuard + signature matching", matched.ga_set_sites);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(
      "bench_paper", argc, argv, 1,
      {{{"threads"}, {"policy"}, {"trace"}, {"trace-detail"}}});
  corpus::Corpus corpus(bench::default_params(args));
  const int threads = bench::threads_from_args(args);
  const PolicyKind measured_policy = bench::policy_from_args(args);
  bench::print_header(
      "CookieGuard paper reproduction — §5 tables, Figure 5, §2.1 "
      "baselines, Tables 3-4, §6 bake-off, ablations, §8 evasion",
      corpus, threads);

  const Crawl measured = [&] {
    const auto trace = bench::trace_recorder_from_args(args);
    return measurement_crawl(corpus, threads, measured_policy, trace.get());
  }();
  print_prevalence(measured.analyzer);
  print_api_usage(measured.analyzer);
  print_table1(measured.analyzer);
  print_table2(measured.analyzer);
  print_fig2(measured.analyzer);
  print_table5_fig6(measured.analyzer);
  print_dom_pilot(measured.analyzer);

  const auto fault_free = crawl_options(threads, PolicyKind::kNone,
                                        /*faults=*/false);
  perf::Comparison table4;
  AblationPaperRows ablation_paper;
  {
    analysis::Analyzer raw_only(corpus.entities(),
                                {.match_encoded_identifiers = false});
    const Crawl plain = crawl(corpus, fault_free, &raw_only);
    const Crawl guarded = guarded_crawl(corpus, fault_free);
    print_fig5(plain.analyzer, guarded.analyzer, guarded.guard_stats);

    crawler::PerWorker<baselines::FilterListBlocker> blockers(threads);
    auto filter_options = fault_free;
    filter_options.extension_factory = blockers.factory();
    const Crawl filtered = crawl(corpus, filter_options);
    baselines::FilterListBlocker::Stats filter_stats;
    for (const auto& blocker : blockers.instances()) {
      filter_stats.scripts_blocked += blocker->stats().scripts_blocked;
      filter_stats.requests_blocked += blocker->stats().requests_blocked;
    }
    print_baselines(plain.analyzer, filtered.analyzer, guarded.analyzer,
                    filter_stats);
    table4 = perf::compare(landing_timings(plain), landing_timings(guarded));
    ablation_paper = {ablation_row(plain.analyzer), ablation_row(raw_only),
                      ablation_row(guarded.analyzer)};
  }

  const breakage::BreakageEvaluator evaluator(corpus);
  const int top_k = std::min(10000, corpus.size());
  const auto sample = evaluator.sample_sites(100, top_k);
  const auto table3 = print_table3(evaluator, sample, top_k);
  print_table4(table4);

  // Each bake-off row reuses what an identical configuration already
  // computed. none: Table 3's plain row, a zero-overhead self-pairing and
  // the measurement crawl's configuration. cookieguard's engine is
  // jar-identical to none, so its breakage is Table 3's strict row and its
  // load timings are Figure 5's guarded crawl (perf_test pins both timing
  // facts). The policy the measurement crawl ran under reuses that crawl.
  std::vector<MatrixRow> rows;
  for (const auto kind : {PolicyKind::kNone, PolicyKind::kCookieGuard,
                          PolicyKind::kFirstPartyIsolation,
                          PolicyKind::kChips}) {
    breakage::Summary breakage_summary;
    perf::Comparison timing;
    if (kind == PolicyKind::kNone) {
      breakage_summary = table3[0];
      timing = perf::compare(table4.normal, table4.normal);
    } else if (kind == PolicyKind::kCookieGuard) {
      breakage_summary = table3[1];
      timing = table4;
    } else {
      breakage_summary =
          evaluator.summarize(sample, breakage::GuardMode::kOff, kind);
      timing = perf::compare(
          table4.normal,
          timing_crawl(corpus,
                       crawl_options(threads, kind, /*faults=*/false)));
    }
    rows.push_back(
        kind == measured_policy
            ? matrix_row(kind, breakage_summary, timing, measured)
            : matrix_row(kind, breakage_summary, timing,
                         measurement_crawl(corpus, threads, kind)));
  }
  print_matrix(rows);

  print_ablations(corpus, fault_free, ablation_paper);
  print_evasion(corpus);
  return 0;
}
