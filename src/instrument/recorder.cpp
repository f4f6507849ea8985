#include "instrument/recorder.h"

#include "browser/page.h"
#include "obs/trace.h"

namespace cg::instrument {

void Recorder::on_page_start(browser::Page& page) {
  if (log_ == nullptr) return;
  if (log_->site_host.empty()) {
    log_->site_host = page.url().host();
    log_->site = page.site();
  }
  ++log_->pages_visited;
  // Hook DOM mutations for the §8 pilot: record cross-domain modifications.
  page.main_document().add_mutation_observer(
      [this](const webplat::DomMutation& mutation) {
        if (log_ == nullptr) return;
        if (mutation.modifier_domain.empty()) return;  // parser/first-party
        if (mutation.modifier_domain == mutation.target_creator_domain) return;
        log_->dom_mods.push_back(
            {mutation.modifier_domain, mutation.target_creator_domain});
      });
}

void Recorder::on_page_finished(browser::Page& page) {
  if (log_ == nullptr) return;
  if (log_->pages_visited == 1) {
    log_->landing_timings = page.timings();
  }
  // Observer census of the first-party jar at page-finish. peek() is
  // mandatory here: retrieve() refreshes last_access, and a measurement
  // read that perturbed the LRU eviction order it observes would break
  // N-thread byte-identity of eviction-heavy sites. It counts pointers;
  // no cookie is copied.
  std::vector<const cookies::Cookie*> matched;
  page.browser().jar().peek(page.url(), page.now(), cookies::JarApi::kScript,
                            matched);
  obs::metric_add("instrument.jar_cookies_at_finish",
                  static_cast<std::int64_t>(matched.size()));
  // Both collection channels functioned for this visit. (Whether any events
  // were captured is a property of the site, not of the pipeline; the
  // paper's completeness filter models channel failures, which the crawler
  // simulates separately.)
  log_->has_cookie_logs = true;
  log_->has_request_logs = true;
}

void Recorder::on_cookie_read(browser::Page& page,
                              const script::ExecContext& ctx,
                              const webplat::StackTrace& stack,
                              cookies::CookieSource api,
                              std::size_t returned) {
  (void)ctx;
  if (log_ == nullptr) return;
  const auto who = ext::attribute_stack(stack, mode_);
  log_->reads.push_back({who.script_url, who.domain, api,
                         static_cast<int>(returned), page.now()});
  log_->has_cookie_logs = true;
}

void Recorder::on_script_cookie_change(browser::Page& page,
                                       const script::ExecContext& ctx,
                                       const webplat::StackTrace& stack,
                                       const cookies::CookieChange& change,
                                       cookies::CookieSource api) {
  if (log_ == nullptr) return;
  using Type = cookies::CookieChange::Type;
  if (change.type == Type::kRejected || change.type == Type::kExpiredNoop) {
    return;  // nothing landed in the jar
  }
  const auto who = ext::attribute_stack(stack, mode_);

  ScriptCookieSetRecord record;
  const cookies::Cookie* state = change.current ? &*change.current
                                                : &*change.previous;
  record.cookie_name = state->name;
  record.value = change.current ? change.current->value : "";
  record.setter_url = who.script_url;
  record.setter_domain = who.domain;
  record.true_domain = ctx.script_domain;
  record.api = api;
  record.change_type = change.type;
  record.category = ctx.category;
  record.inclusion = ctx.inclusion;
  record.time = page.now();

  if (change.type == Type::kOverwritten && change.previous && change.current) {
    const auto& before = *change.previous;
    const auto& after = *change.current;
    record.value_changed = before.value != after.value;
    record.expires_changed = before.expires != after.expires;
    record.domain_changed =
        before.domain != after.domain || before.host_only != after.host_only;
    record.path_changed = before.path != after.path;
    record.prev_expires = before.expires.value_or(0);
    record.new_expires = after.expires.value_or(0);
  }
  log_->script_sets.push_back(std::move(record));
  log_->has_cookie_logs = true;
}

void Recorder::on_headers_received(
    browser::Page& page, const net::HttpRequest& request,
    const net::HttpResponse& response,
    const std::vector<cookies::CookieChange>& changes) {
  (void)response;
  if (log_ == nullptr) return;
  using Type = cookies::CookieChange::Type;
  for (const auto& change : changes) {
    if (change.type == Type::kRejected || change.type == Type::kExpiredNoop) {
      continue;
    }
    const cookies::Cookie* state =
        change.current ? &*change.current : &*change.previous;
    // The paper's extension logs only non-HttpOnly header cookies (they are
    // the ones scripts can later touch), but we keep HttpOnly ones flagged —
    // the analysis needs to know they exist to exclude them.
    HttpCookieSetRecord record;
    record.cookie_name = state->name;
    record.value = change.current ? change.current->value : "";
    record.response_host = request.url.host();
    record.setter_domain = page.browser().site_of(request.url.host());
    record.http_only = state->http_only;
    // net::same_site(request.url, page.url()) through the visit's memo.
    record.first_party = !record.setter_domain.empty() &&
                         record.setter_domain == page.site();
    record.change_type = change.type;
    record.time = page.now();
    log_->http_sets.push_back(std::move(record));
    log_->has_cookie_logs = true;
  }
}

void Recorder::on_request_will_be_sent(browser::Page& page,
                                       const net::HttpRequest& request,
                                       const script::ExecContext* initiator,
                                       const webplat::StackTrace& stack) {
  if (log_ == nullptr) return;
  // Only script-initiated requests are attributed (the debugger-protocol
  // channel of §4.1); navigations and static subresources are skipped.
  if (initiator == nullptr) return;
  const auto who = ext::attribute_stack(stack, mode_);
  log_->requests.push_back({request.url.spec(), request.url.host(),
                            page.browser().site_of(request.url.host()),
                            who.script_url, who.domain,
                            request.destination, page.now()});
  log_->has_request_logs = true;
}

void Recorder::on_script_included(browser::Page& page,
                                  const script::ExecContext& ctx) {
  (void)page;
  if (log_ == nullptr) return;
  log_->includes.push_back({ctx.script_id, ctx.script_url, ctx.script_domain,
                            ctx.category, ctx.inclusion, ctx.inline_script});
}

}  // namespace cg::instrument
