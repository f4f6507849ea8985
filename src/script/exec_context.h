// Identity and provenance of an executing script.
#pragma once

#include <string>
#include <vector>

#include "net/url.h"

namespace cg::script {

/// Script taxonomy used by the corpus and the analysis (paper §5.1 reports
/// 70% of third-party scripts are advertising/tracking-affiliated).
enum class Category {
  kFirstParty,
  kAnalytics,
  kAdvertising,
  kRtbExchange,
  kTagManager,
  kConsent,
  kSocial,
  kSso,
  kCdnUtility,
  kSupport,
  kPerformance,
};

const char* to_string(Category category);

/// True for categories the paper groups as "advertising or tracking".
bool is_ad_or_tracking(Category category);

/// How a script arrived in the main frame (paper §5.6: direct <script> tags
/// vs dynamic insertion by another script).
enum class Inclusion { kDirect, kIndirect };

/// Built once per script inclusion (browser::Page::make_context), which
/// parses script_url once: the script fetch reuses `url`, and every stack
/// frame the script runs in carries script_domain as its origin, so
/// attribution never re-parses the URL.
struct ExecContext {
  std::string script_id;      // catalog id ("" for ad-hoc/test scripts)
  std::string script_url;     // resolved URL; empty for inline scripts
  /// script_url parsed; default-constructed for inline and ad-hoc contexts.
  net::Url url;
  /// eTLD+1 of script_url; empty for inline. Must agree with script_url:
  /// frames pushed for this context take it as their origin.
  std::string script_domain;
  bool inline_script = false;
  Category category = Category::kFirstParty;
  Inclusion inclusion = Inclusion::kDirect;
  /// Catalog ids of the scripts that (transitively) included this one,
  /// outermost first. Empty for directly included scripts.
  std::vector<std::string> inclusion_chain;
};

}  // namespace cg::script
