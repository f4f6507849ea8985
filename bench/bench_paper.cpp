// Reproduces the paper's §5 measurement, Figure 5 and the §2.1 baseline
// comparison from four crawls of one corpus:
//
//   1. the measurement crawl (faults on; `--policy`, `--trace` and
//      CG_ARCHIVE apply to it): §5.1/§5.6 prevalence, §5.2 API usage,
//      Table 1, Table 2, Figure 2, §5.5 + Table 5 + Figure 6, §8 DOM pilot;
//   2. a fault-free plain crawl and
//   3. a fault-free crawl with one CookieGuard per worker: Figure 5, and the
//      §2.1 "no defense" and "CookieGuard" rows;
//   4. a fault-free crawl with one FilterListBlocker per worker: the §2.1
//      filter-list row.
//
// Crawls 2-4 always run live and without a partitioning policy: the
// archive records only crawl 1, and Figure 5 / §2.1 compare extensions on
// the status-quo jar.
#include "baselines/baselines.h"
#include "cookieguard/cookieguard.h"

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace cg;
using cookies::CookieSource;

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

/// A fault-free, policy-free live crawl of the whole corpus. A non-null
/// `extension_for(worker)` is installed on that shard worker's browsers.
analysis::Analyzer fault_free_crawl(
    const corpus::Corpus& corpus, int threads,
    const std::function<browser::Extension*(int worker)>& extension_for =
        nullptr) {
  analysis::Analyzer analyzer(corpus.entities());
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;
  options.fault_plan.reset();
  options.threads = threads;
  if (extension_for) {
    options.extension_factory = [&extension_for](int worker) {
      return std::vector<browser::Extension*>{extension_for(worker)};
    };
  }
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    analyzer.ingest(log);
  });
  return analyzer;
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
// `none`/`fpi`/`chips` rows of bench_policy_matrix measure that). The
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

}  // namespace

int main(int argc, char** argv) {
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::threads_from_args(argc, argv);
  bench::print_header(
      "CookieGuard paper reproduction — §5 tables, Figure 5, §2.1 baselines",
      corpus, threads);

  analysis::Analyzer measured(corpus.entities());
  {
    const auto trace = bench::trace_recorder_from_args(argc, argv);
    bench::run_measurement_crawl(corpus, measured, threads, trace.get(),
                                 bench::policy_from_args(argc, argv));
  }
  print_prevalence(measured);
  print_api_usage(measured);
  print_table1(measured);
  print_table2(measured);
  print_fig2(measured);
  print_table5_fig6(measured);
  print_dom_pilot(measured);

  // Extensions are stateful, so each shard worker gets its own instance;
  // enforcement is deterministic per visit, and the counters are summed
  // into one crawl-wide tally afterwards.
  const auto plain = fault_free_crawl(corpus, threads);
  std::vector<cookieguard::CookieGuard> guards(
      static_cast<std::size_t>(threads));
  const auto guarded = fault_free_crawl(
      corpus, threads, [&guards](int worker) {
        return &guards[static_cast<std::size_t>(worker)];
      });
  cookieguard::CookieGuard::Stats guard_stats;
  for (const auto& guard : guards) guard_stats.merge(guard.stats());
  print_fig5(plain, guarded, guard_stats);

  std::vector<baselines::FilterListBlocker> blockers(
      static_cast<std::size_t>(threads));
  const auto filtered = fault_free_crawl(
      corpus, threads, [&blockers](int worker) {
        return &blockers[static_cast<std::size_t>(worker)];
      });
  baselines::FilterListBlocker::Stats filter_stats;
  for (const auto& blocker : blockers) {
    filter_stats.scripts_blocked += blocker.stats().scripts_blocked;
    filter_stats.requests_blocked += blocker.stats().requests_blocked;
  }
  print_baselines(plain, filtered, guarded, filter_stats);
  return 0;
}
