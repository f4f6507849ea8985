// Ablation benches for the design choices called out in DESIGN.md:
//   D1 — attribution mode (last-external + async stacks vs top-frame-only,
//        and async stack traces off): attribution accuracy of script sets.
//   D2 — site-owner full access vs strict isolation: residual cross-domain
//        actions under CookieGuard.
//   D3 — inline scripts denied vs treated as first party.
//   D5 — identifier matching with encodings vs raw-only: how many
//        exfiltration flows the detector would miss.
#include "cookieguard/cookieguard.h"

#include <optional>
#include <vector>

#include "bench_util.h"

namespace {

using namespace cg;

struct CrawlStats {
  double exfil_sites = 0, over_sites = 0, del_sites = 0;
  double attribution_accuracy = 0, attribution_unknown = 0;
  int exfil_pairs = 0;
};

CrawlStats run(const corpus::Corpus& corpus,
               const cookieguard::CookieGuardConfig* guard_config,
               ext::AttributionMode attribution,
               bool async_stacks,
               int threads) {
  crawler::Crawler crawler(corpus);
  analysis::Analyzer analyzer(corpus.entities());
  crawler::CrawlOptions options;
  options.fault_plan.reset();
  options.attribution = attribution;
  options.browser_config.async_stack_traces = async_stacks;
  options.threads = threads;
  // Per-worker guard instances so the enforcement crawls shard too.
  std::optional<crawler::PerWorker<cookieguard::CookieGuard>> guards;
  if (guard_config != nullptr) {
    guards.emplace(threads, *guard_config);
    options.extension_factory = guards->factory();
  }
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    analyzer.ingest(log);
  });
  const auto& t = analyzer.totals();
  const double n = t.sites_complete;
  CrawlStats out;
  out.exfil_sites = 100.0 * t.sites_doc_exfil / n;
  out.over_sites = 100.0 * t.sites_doc_overwrite / n;
  out.del_sites = 100.0 * t.sites_doc_delete / n;
  out.attribution_accuracy =
      t.attributed_sets > 0
          ? 100.0 * t.attribution_correct / t.attributed_sets
          : 0;
  out.attribution_unknown =
      t.attributed_sets > 0
          ? 100.0 * t.attribution_unknown / t.attributed_sets
          : 0;
  out.exfil_pairs =
      analyzer.exfiltrated_pair_count(cookies::CookieSource::kDocumentCookie);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const cg::cli::Args args =
      cg::cli::parse_or_exit("bench_ablation", argc, argv, 1, {{{"threads"}}});
  corpus::Corpus corpus(cg::bench::default_params(args));
  const int threads = cg::bench::threads_from_args(args);
  cg::bench::print_header("Ablations — DESIGN.md D1/D2/D3/D5 design knobs",
                          corpus, threads);

  // ---- D1: attribution ---------------------------------------------------
  std::printf("\n-- D1: stack-trace attribution of cookie writes --\n");
  {
    const auto last_ext = run(corpus, nullptr,
                              ext::AttributionMode::kLastExternal, true,
                              threads);
    const auto no_async = run(corpus, nullptr,
                              ext::AttributionMode::kLastExternal, false,
                              threads);
    const auto top_only = run(corpus, nullptr,
                              ext::AttributionMode::kTopFrameOnly, true,
                              threads);
    std::printf("  %-44s accuracy %5.1f%%  unknown %5.1f%%\n",
                "last-external + async stack traces (paper)",
                last_ext.attribution_accuracy, last_ext.attribution_unknown);
    std::printf("  %-44s accuracy %5.1f%%  unknown %5.1f%%\n",
                "last-external, async stacks disabled",
                no_async.attribution_accuracy, no_async.attribution_unknown);
    std::printf("  %-44s accuracy %5.1f%%  unknown %5.1f%%\n",
                "top-frame-only (naive)", top_only.attribution_accuracy,
                top_only.attribution_unknown);
  }

  // ---- D2 / D3: CookieGuard policy knobs --------------------------------
  std::printf("\n-- D2/D3: CookieGuard policy (residual cross-domain sites, "
              "%%) --\n");
  {
    const cookieguard::CookieGuardConfig paper_cfg{};  // owner access + inline deny
    const auto with_owner = run(corpus, &paper_cfg,
                                ext::AttributionMode::kLastExternal, true,
                                threads);

    cookieguard::CookieGuardConfig strict_cfg;
    strict_cfg.site_owner_full_access = false;
    const auto strict = run(corpus, &strict_cfg,
                            ext::AttributionMode::kLastExternal, true,
                            threads);

    cookieguard::CookieGuardConfig inline_cfg;
    inline_cfg.deny_inline_scripts = false;
    const auto inline_fp = run(corpus, &inline_cfg,
                               ext::AttributionMode::kLastExternal, true,
                               threads);

    std::printf("  %-40s exfil %5.1f  overwrite %5.1f  delete %5.1f\n",
                "paper policy (owner access, inline deny)",
                with_owner.exfil_sites, with_owner.over_sites,
                with_owner.del_sites);
    std::printf("  %-40s exfil %5.1f  overwrite %5.1f  delete %5.1f\n",
                "strict isolation (no owner access)", strict.exfil_sites,
                strict.over_sites, strict.del_sites);
    std::printf("  %-40s exfil %5.1f  overwrite %5.1f  delete %5.1f\n",
                "inline scripts treated as first party",
                inline_fp.exfil_sites, inline_fp.over_sites,
                inline_fp.del_sites);
  }

  // ---- D5: encoded identifier matching -----------------------------------
  std::printf("\n-- D5: exfiltration detector encodings --\n");
  {
    analysis::Analyzer full(corpus.entities());
    analysis::Analyzer raw_only(corpus.entities(),
                                {.match_encoded_identifiers = false});
    crawler::Crawler crawler(corpus);
    crawler::CrawlOptions options;
    options.fault_plan.reset();
    options.threads = threads;
    crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
      full.ingest(log);
      raw_only.ingest(log);
    });
    const int full_pairs = full.exfiltrated_pair_count(
        cookies::CookieSource::kDocumentCookie);
    const int raw_pairs = raw_only.exfiltrated_pair_count(
        cookies::CookieSource::kDocumentCookie);
    const auto& ft = full.totals();
    const auto& rt = raw_only.totals();
    std::printf("  %-44s pairs %5d  sites %5.1f%%\n",
                "raw + Base64 + MD5 + SHA1 (paper)", full_pairs,
                100.0 * ft.sites_doc_exfil / ft.sites_complete);
    std::printf("  %-44s pairs %5d  sites %5.1f%%\n", "raw matching only",
                raw_pairs, 100.0 * rt.sites_doc_exfil / rt.sites_complete);
    std::printf("  encoded-only flows missed by the raw detector: %d pairs "
                "(LinkedIn-style Base64,\n  hashed sync pixels)\n",
                full_pairs - raw_pairs);
  }
  std::printf("\n");
  return 0;
}
