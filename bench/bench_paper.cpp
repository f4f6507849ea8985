// Reproduces the paper's §5 measurement, Figure 5, the §2.1 baseline
// comparison, the §7 evaluation (Table 3 breakage, Table 4 page-load cost)
// and the §6 defense bake-off from nine crawls of one corpus:
//
//   1. the measurement crawl (faults on; `--policy`, `--trace` and
//      CG_ARCHIVE apply to it): §5.1/§5.6 prevalence, §5.2 API usage,
//      Table 1, Table 2, Figure 2, §5.5 + Table 5 + Figure 6, §8 DOM pilot,
//      and the bake-off's Table 5 columns for its policy;
//   2. a fault-free plain crawl and
//   3. a fault-free crawl with one CookieGuard per worker: Figure 5, the
//      §2.1 "no defense" and "CookieGuard" rows, Table 4, and the
//      bake-off's load overhead for none and cookieguard;
//   4. a fault-free crawl with one FilterListBlocker per worker: the §2.1
//      filter-list row;
//   5-7. crawl 1's configuration under each other bake-off policy: their
//      Table 5 columns (the none row may replay CG_ARCHIVE);
//   8-9. fault-free crawls under fpi and chips: their load overhead.
//
// Crawls 2-4 run without a partitioning policy: Figure 5, §2.1 and Table 4
// compare extensions on the status-quo jar. Table 3 and the bake-off's
// breakage columns probe a 100-site sample (src/breakage/), not the corpus.
#include "baselines/baselines.h"
#include "breakage/breakage.h"
#include "cookieguard/cookieguard.h"
#include "perf/perf.h"

#include <algorithm>
#include <array>
#include <functional>
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
/// into the analyzer and the landing timings; the metrics registry and the
/// summed counters of the per-worker CookieGuards (zero without a guard)
/// feed the bake-off's blocked/hidden/partitioned columns.
struct Crawl {
  analysis::Analyzer analyzer;
  perf::TimingCollector timings;
  obs::MetricsRegistry metrics;
  cookieguard::CookieGuard::Stats guard_stats;
};

/// Extensions are stateful, so each shard worker gets its own instance;
/// enforcement is deterministic per visit, so the per-worker counters sum
/// to one crawl-wide tally at any thread count.
template <typename Extension>
std::function<std::vector<browser::Extension*>(int)> per_worker(
    std::vector<Extension>& instances) {
  return [&instances](int worker) {
    return std::vector<browser::Extension*>{
        &instances[static_cast<std::size_t>(worker)]};
  };
}

/// The one crawl helper: the whole corpus under `options` (policy, fault
/// plan, per-worker extensions, trace, threads), metrics on.
Crawl crawl(const corpus::Corpus& corpus, crawler::CrawlOptions options) {
  Crawl out{analysis::Analyzer(corpus.entities()), {}, {}, {}};
  options.metrics = &out.metrics;
  crawler::Crawler(corpus).crawl(
      corpus.size(), options, [&out](instrument::VisitLog&& log) {
        out.analyzer.ingest(log);
        out.timings.add(log);
      });
  return out;
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

/// crawl() with one strict CookieGuard per worker.
Crawl guarded_crawl(const corpus::Corpus& corpus,
                    crawler::CrawlOptions options) {
  std::vector<cookieguard::CookieGuard> guards(
      static_cast<std::size_t>(options.threads));
  options.extension_factory = per_worker(guards);
  Crawl out = crawl(corpus, options);
  for (const auto& guard : guards) out.guard_stats.merge(guard.stats());
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
    Crawl replay{analysis::Analyzer(corpus.entities()), {}, {}, {}};
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

}  // namespace

int main(int argc, char** argv) {
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::threads_from_args(argc, argv);
  const PolicyKind measured_policy = bench::policy_from_args(argc, argv);
  bench::print_header(
      "CookieGuard paper reproduction — §5 tables, Figure 5, §2.1 "
      "baselines, Tables 3-4, §6 bake-off",
      corpus, threads);

  const Crawl measured = [&] {
    const auto trace = bench::trace_recorder_from_args(argc, argv);
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
  {
    const Crawl plain = crawl(corpus, fault_free);
    const Crawl guarded = guarded_crawl(corpus, fault_free);
    print_fig5(plain.analyzer, guarded.analyzer, guarded.guard_stats);

    std::vector<baselines::FilterListBlocker> blockers(
        static_cast<std::size_t>(threads));
    auto filter_options = fault_free;
    filter_options.extension_factory = per_worker(blockers);
    const Crawl filtered = crawl(corpus, filter_options);
    baselines::FilterListBlocker::Stats filter_stats;
    for (const auto& blocker : blockers) {
      filter_stats.scripts_blocked += blocker.stats().scripts_blocked;
      filter_stats.requests_blocked += blocker.stats().requests_blocked;
    }
    print_baselines(plain.analyzer, filtered.analyzer, guarded.analyzer,
                    filter_stats);
    table4 = perf::compare(plain.timings.metrics(), guarded.timings.metrics());
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
  return 0;
}
