// tracking_audit: a single-site privacy audit built on the library's public
// API — the kind of tool a site owner would run to learn which third-party
// scripts touch cookies they do not own.
//
// Usage: tracking_audit [site-index]   (0-199, default 41; ignores CG_SITES)
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "analysis/analyzer.h"
#include "corpus/corpus.h"
#include "crawler/crawler.h"

int main(int argc, char** argv) {
  using namespace cg;

  corpus::CorpusParams params;
  params.site_count = 200;
  corpus::Corpus corpus(params);

  int index = 41;
  if (argc > 1) {
    errno = 0;
    char* end = nullptr;
    const long value = std::strtol(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || errno == ERANGE || value < 0 ||
        value >= corpus.size()) {
      std::fprintf(stderr,
                   "tracking_audit: site-index must be an integer in "
                   "[0, %d], got \"%s\"\n",
                   corpus.size() - 1, argv[1]);
      return 2;
    }
    index = static_cast<int>(value);
  }
  const auto& bp = corpus.site(index);

  std::printf("Auditing https://%s/ (rank %d)\n", bp.host.c_str(), bp.rank);
  std::printf("%s\n\n", std::string(64, '=').c_str());

  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;  // visit() never applies the fault plan
  const auto log = crawler.visit(index, options);

  // --- scripts in the main frame -----------------------------------------
  std::printf("Scripts in the main frame (%zu inclusions):\n",
              log.includes.size());
  for (const auto& inc : log.includes) {
    if (inc.is_inline) {
      std::printf("  [inline]   <anonymous snippet>\n");
      continue;
    }
    std::printf("  [%-8s] %-60s %s\n",
                inc.inclusion == script::Inclusion::kDirect ? "direct"
                                                            : "indirect",
                inc.url.c_str(), script::to_string(inc.category));
  }

  // --- cookie ownership ----------------------------------------------------
  std::printf("\nCookies set during the visit:\n");
  std::map<std::string, std::string> owner;
  for (const auto& h : log.http_sets) {
    if (h.http_only) continue;
    owner.try_emplace(h.cookie_name, h.setter_domain + " (HTTP)");
  }
  for (const auto& s : log.script_sets) {
    if (s.change_type != cookies::CookieChange::Type::kCreated) continue;
    owner.try_emplace(s.cookie_name,
                      (s.setter_domain.empty() ? "inline" : s.setter_domain) +
                          " via " +
                          std::string(cookies::to_string(s.api)));
  }
  for (const auto& [name, who] : owner) {
    std::printf("  %-26s set by %s\n", name.c_str(), who.c_str());
  }

  // --- cross-domain flows --------------------------------------------------
  analysis::Analyzer analyzer(corpus.entities());
  analyzer.ingest(log);

  std::printf("\nCross-domain cookie flows detected:\n");
  bool any = false;
  for (const auto& [pair, stats] : analyzer.pairs()) {
    for (const auto& [entity, n] : stats.exfiltrator_entities) {
      std::printf("  EXFILTRATED  %-22s (owner %s) by %s -> {",
                  pair.name.c_str(), pair.owner_domain.c_str(),
                  entity.c_str());
      bool first = true;
      for (const auto& [dest, m] : stats.destination_entities) {
        std::printf("%s%s", first ? "" : ", ", dest.c_str());
        first = false;
      }
      std::printf("}\n");
      any = true;
    }
    for (const auto& [entity, n] : stats.overwriter_entities) {
      std::printf("  OVERWRITTEN  %-22s (owner %s) by %s\n",
                  pair.name.c_str(), pair.owner_domain.c_str(),
                  entity.c_str());
      any = true;
    }
    for (const auto& [entity, n] : stats.deleter_entities) {
      std::printf("  DELETED      %-22s (owner %s) by %s\n",
                  pair.name.c_str(), pair.owner_domain.c_str(),
                  entity.c_str());
      any = true;
    }
  }
  if (!any) std::printf("  (none on this site)\n");

  std::printf("\nOutbound requests by third parties: %zu\n",
              log.requests.size());
  std::printf("Recommendation: enable CookieGuard (see the quickstart "
              "example) to isolate the jar per script origin.\n");
  return 0;
}
