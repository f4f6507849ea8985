// §8 evasion study: how scripts escape CookieGuard's attribution, and the
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
#include "cookieguard/cookieguard.h"

#include "bench_util.h"

namespace {

using namespace cg;

struct SubsetStats {
  double exfil_sites = 0;  // cross-domain exfiltration among subset sites
  double ga_set_sites = 0;  // sites where an inline script created a cookie
  int sites = 0;
};

SubsetStats crawl_subset(const corpus::Corpus& corpus,
                         const std::vector<int>& subset,
                         cookieguard::CookieGuard* guard) {
  crawler::Crawler crawler(corpus);
  analysis::Analyzer analyzer(corpus.entities());
  crawler::CrawlOptions options;  // visit() never applies the fault plan
  if (guard != nullptr) options.extra_extensions.push_back(guard);

  int ga_sites = 0;
  for (const int index : subset) {
    const auto log = crawler.visit(index, options);
    bool ga = false;
    for (const auto& s : log.script_sets) {
      // Ground truth: the record came from an inline script (no script URL)
      // and it successfully created a cookie.
      if (s.true_domain.empty() &&
          s.change_type == cookies::CookieChange::Type::kCreated) {
        ga = true;
      }
    }
    ga_sites += ga ? 1 : 0;
    analyzer.ingest(log);
  }
  SubsetStats out;
  out.sites = static_cast<int>(subset.size());
  const auto& t = analyzer.totals();
  out.exfil_sites =
      t.sites_complete > 0 ? 100.0 * t.sites_doc_exfil / t.sites_complete : 0;
  out.ga_set_sites = out.sites > 0 ? 100.0 * ga_sites / out.sites : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const cg::cli::Args args =
      cg::cli::parse_or_exit("bench_evasion", argc, argv, 1, {});
  corpus::Corpus corpus(cg::bench::default_params(args));
  cg::bench::print_header("§8 — evasion via CNAME cloaking and inline "
                          "embedding, and counter-measures",
                          corpus);

  std::vector<int> cloaked_sites;
  std::vector<int> inline_sites;
  for (int i = 0; i < corpus.size(); ++i) {
    if (corpus.site(i).has_cloaked_tracker) cloaked_sites.push_back(i);
    if (corpus.site(i).has_inline_tracker) inline_sites.push_back(i);
  }
  std::printf("\nsites with a CNAME-cloaked tracker: %zu; with an inline "
              "vendor snippet: %zu\n",
              cloaked_sites.size(), inline_sites.size());

  // ---- CNAME cloaking -----------------------------------------------------
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

  // ---- inline embedding ---------------------------------------------------
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
    std::printf("  %-44s inline sets on %5.1f%%  <- safe-by-default denies the "
                "legit snippet\n",
                "CookieGuard (inline denied)", guarded.ga_set_sites);
    std::printf("  %-44s inline sets on %5.1f%%  <- recognised as "
                "googletagmanager.com\n",
                "CookieGuard + signature matching", matched.ga_set_sites);
  }
  std::printf("\n");
  return 0;
}
