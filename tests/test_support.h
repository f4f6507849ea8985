// Shared helpers for browser-level tests: a minimal site with a first-party
// script and a tracker, plus convenience context builders.
#pragma once

#include <string>

#include "browser/browser.h"
#include "browser/catalog.h"
#include "browser/page.h"
#include "net/psl.h"
#include "script/ops.h"
#include "script/script_spec.h"

namespace cg::testsupport {

inline script::ScriptSpec spec_of(std::string id, std::string url,
                                  script::Category category,
                                  std::vector<script::ScriptOp> ops) {
  script::ScriptSpec spec;
  spec.id = std::move(id);
  spec.url_template = std::move(url);
  spec.category = category;
  spec.ops = std::move(ops);
  return spec;
}

inline script::ExecContext context_for_url(std::string url) {
  script::ExecContext ctx;
  ctx.script_url = std::move(url);
  ctx.url = net::Url::must_parse(ctx.script_url);
  ctx.script_domain = ctx.url.site();
  return ctx;
}

inline script::ExecContext inline_context() {
  script::ExecContext ctx;
  ctx.inline_script = true;
  return ctx;
}

/// A browser wired to a one-page site at https://www.shop.example/ whose
/// DocumentSpec includes the given catalog script ids.
class TestSite {
 public:
  explicit TestSite(std::vector<std::string> script_ids = {},
                    browser::BrowserConfig config = {})
      : browser_(config, /*seed=*/0xFEED) {
    browser_.set_catalog(&catalog_);
    browser::DocumentSpec doc;
    doc.script_ids = std::move(script_ids);
    doc.link_paths = {"/a", "/b"};
    doc.static_dom_nodes = 40;
    browser_.set_document_provider(
        [doc](const net::Url&) { return doc; });
  }

  browser::ScriptCatalog& catalog() { return catalog_; }
  browser::Browser& browser() { return browser_; }

  std::unique_ptr<browser::Page> open() {
    return browser_.navigate(net::Url::must_parse(kSiteUrl));
  }

  static constexpr const char* kSiteUrl = "https://www.shop.example/";
  static constexpr const char* kSite = "shop.example";

 private:
  browser::ScriptCatalog catalog_;
  browser::Browser browser_;
};

}  // namespace cg::testsupport
