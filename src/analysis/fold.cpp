#include "analysis/fold.h"

#include <algorithm>
#include <bitset>
#include <functional>
#include <list>
#include <string_view>

#include "crypto/base64.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "net/percent.h"
#include "net/query.h"
#include "net/url.h"
#include "script/interpreter.h"

namespace cg::analysis {
namespace {

using cookies::CookieSource;
using Type = cookies::CookieChange::Type;

// A set/overwrite/delete event on the per-visit ownership timeline.
struct TimelineEvent {
  TimeMillis time;
  bool from_http;
  const instrument::ScriptCookieSetRecord* script = nullptr;
  const instrument::HttpCookieSetRecord* http = nullptr;
};

// A CookiePair as views into the visit's log; ordered and compared by value,
// exactly like CookiePair.
struct PairView {
  std::string_view name;
  std::string_view owner;
  auto operator<=>(const PairView&) const = default;
  CookiePair materialize() const {
    return {std::string(name), std::string(owner)};
  }
};

// Cookie name -> owning domain for the current visit: a sorted vector, as a
// visit sets a few dozen names at most.
class OwnerTable {
  using Entry = std::pair<std::string_view, std::string_view>;
  std::vector<Entry> entries_;

  template <typename Entries>
  static auto lower_bound(Entries& entries, std::string_view name) {
    return std::lower_bound(
        entries.begin(), entries.end(), name,
        [](const Entry& e, std::string_view key) { return e.first < key; });
  }

 public:
  const std::string_view* find(std::string_view name) const {
    const auto it = lower_bound(entries_, name);
    return it != entries_.end() && it->first == name ? &it->second : nullptr;
  }
  void set(std::string_view name, std::string_view owner) {
    const auto it = lower_bound(entries_, name);
    if (it != entries_.end() && it->first == name) {
      it->second = owner;
    } else {
      entries_.insert(it, {name, owner});
    }
  }
  void erase(std::string_view name) {
    const auto it = lower_bound(entries_, name);
    if (it != entries_.end() && it->first == name) entries_.erase(it);
  }
};

// An identifier segment of a value that `pair` held during the visit.
struct Candidate {
  std::string_view segment;
  PairView pair;
  auto operator<=>(const Candidate&) const = default;
};

// Text ordered by its hash first, so sorting and searching compare integers
// and touch the bytes only on a hash tie. The order is arbitrary but
// nothing depends on it: only equality and lookups do.
struct HashedText {
  std::size_t hash;
  std::string_view text;
  explicit HashedText(std::string_view t)
      : hash(std::hash<std::string_view>{}(t)), text(t) {}
  auto operator<=>(const HashedText&) const = default;
};

// One form (raw, Base64, MD5 or SHA-1 hex) of a candidate segment.
struct Form {
  HashedText text;
  PairView pair;
  auto operator<=>(const Form&) const = default;
};

// An identifier segment of a request's query.
struct Sent {
  HashedText segment;
  const instrument::RequestRecord* request;
};

// An exfiltration match: `pair`'s identifier sent by `initiator` to `dest`.
struct Hit {
  PairView pair;
  std::string_view initiator;
  std::string_view dest;
  auto operator<=>(const Hit&) const = default;
};

std::size_t count_distinct(std::vector<HashedText>& values) {
  std::sort(values.begin(), values.end());
  return static_cast<std::size_t>(
      std::unique(values.begin(), values.end()) - values.begin());
}

// One past the last element of the run of `same` elements that starts at
// `first`, looking no further than `last`.
template <typename T, typename Same>
std::size_t run_end(const std::vector<T>& items, std::size_t first,
                    std::size_t last, Same same) {
  std::size_t end = first + 1;
  while (end < last && same(items[first], items[end])) ++end;
  return end;
}

// The lengths of the identifier segments a visit's requests carry.
class SentLengths {
 public:
  void add(std::size_t length) {
    if (length < kTracked) {
      short_.set(length);
    } else {
      long_ = true;
    }
  }
  // Conservative: true for any length past the tracked range once any
  // segment that long was sent.
  bool has(std::size_t length) const {
    return length < kTracked ? short_.test(length) : long_;
  }

 private:
  static constexpr std::size_t kTracked = 64;
  std::bitset<kTracked> short_;
  bool long_ = false;
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// The lookup table for exfiltration matching: every form of every candidate,
// sorted by HashedText, keeping only forms that exactly one pair reaches. A form
// two distinct pairs reach — a shared timestamp, or one pair's raw value
// equal to another's MD5 hex — identifies neither and never matches. The
// forms' text views point into the log or into `encoded`, which must
// outlive the table.
std::vector<Form> build_forms(std::vector<Candidate>& candidates,
                              const AnalyzerOptions& options,
                              const SentLengths& sent, std::string& encoded) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Encode each distinct segment once, however many pairs reach it, into
  // `encoded`; remember where each form starts. A form of a length no
  // request segment has can never be looked up, so it is not computed: its
  // presence could only make other texts of its own length ambiguous.
  const bool encode = options.match_encoded_identifiers;
  const bool md5 = encode && sent.has(32);
  const bool sha1 = encode && sent.has(40);
  struct Encoded {
    std::size_t base64 = kNone, md5 = kNone, sha1 = kNone;
  };
  std::vector<Encoded> encoded_at;
  for (std::size_t i = 0; encode && i < candidates.size(); ++i) {
    const std::string_view segment = candidates[i].segment;
    if (i > 0 && segment == candidates[i - 1].segment) continue;
    Encoded& at = encoded_at.emplace_back();
    if (sent.has((segment.size() + 2) / 3 * 4)) {
      at.base64 = encoded.size();
      encoded += crypto::base64_encode(segment);
    }
    if (md5) {
      at.md5 = encoded.size();
      encoded += crypto::Md5::hex(segment);
    }
    if (sha1) {
      at.sha1 = encoded.size();
      encoded += crypto::Sha1::hex(segment);
    }
  }

  std::vector<Form> forms;
  forms.reserve(candidates.size() * (encode ? 4 : 1));
  const std::string_view all_encoded = encoded;
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& [segment, pair] = candidates[i];
    if (i > 0 && segment != candidates[i - 1].segment) ++distinct;
    forms.push_back({HashedText(segment), pair});
    if (!encode) continue;
    const Encoded& at = encoded_at[distinct];
    const auto add = [&](std::size_t offset, std::size_t size) {
      if (offset == kNone) return;
      forms.push_back({HashedText(all_encoded.substr(offset, size)), pair});
    };
    add(at.base64, (segment.size() + 2) / 3 * 4);
    add(at.md5, 32);
    add(at.sha1, 40);
  }

  std::sort(forms.begin(), forms.end());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < forms.size();) {
    const std::size_t end =
        run_end(forms, i, forms.size(),
                [](const Form& a, const Form& b) { return a.text == b.text; });
    // Sorted by (text, pair): one pair reaches the text iff both ends agree.
    if (forms[i].pair == forms[end - 1].pair) forms[kept++] = forms[i];
    i = end;
  }
  forms.erase(forms.begin() + static_cast<std::ptrdiff_t>(kept), forms.end());
  return forms;
}

const Form* find_form(const std::vector<Form>& forms, const HashedText& text) {
  const auto it = std::lower_bound(
      forms.begin(), forms.end(), text,
      [](const Form& f, const HashedText& key) { return f.text < key; });
  return it != forms.end() && it->text == text ? &*it : nullptr;
}

}  // namespace

std::vector<std::pair<std::string, int>> top_counts(
    const std::map<std::string, int>& counts, std::size_t n) {
  std::vector<std::pair<std::string, int>> out(counts.begin(), counts.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

void Totals::merge(Totals&& other) {
  sites_crawled += other.sites_crawled;
  sites_complete += other.sites_complete;

  sites_with_third_party += other.sites_with_third_party;
  third_party_script_count += other.third_party_script_count;
  third_party_ad_tracking_count += other.third_party_ad_tracking_count;
  tp_cookies_set += other.tp_cookies_set;
  fp_cookies_set += other.fp_cookies_set;
  direct_inclusions += other.direct_inclusions;
  indirect_inclusions += other.indirect_inclusions;
  indirect_ad_tracking += other.indirect_ad_tracking;

  sites_using_document_cookie += other.sites_using_document_cookie;
  sites_using_cookie_store += other.sites_using_cookie_store;
  store_cookie_names.merge(other.store_cookie_names);
  store_setting_scripts += other.store_setting_scripts;
  store_script_domains.merge(other.store_script_domains);

  sites_doc_exfil += other.sites_doc_exfil;
  sites_doc_overwrite += other.sites_doc_overwrite;
  sites_doc_delete += other.sites_doc_delete;
  sites_store_exfil += other.sites_store_exfil;
  sites_store_overwrite += other.sites_store_overwrite;
  sites_store_delete += other.sites_store_delete;

  cross_overwrites += other.cross_overwrites;
  overwrite_value_changed += other.overwrite_value_changed;
  overwrite_expires_changed += other.overwrite_expires_changed;
  overwrite_domain_changed += other.overwrite_domain_changed;
  overwrite_path_changed += other.overwrite_path_changed;

  overwrite_expiry_extended += other.overwrite_expiry_extended;
  overwrite_expiry_shortened += other.overwrite_expiry_shortened;
  expiry_days_added += other.expiry_days_added;

  sites_with_cross_dom_modification += other.sites_with_cross_dom_modification;

  attributed_sets += other.attributed_sets;
  attribution_correct += other.attribution_correct;
  attribution_unknown += other.attribution_unknown;

  dom_content_loaded.insert(dom_content_loaded.end(),
                            other.dom_content_loaded.begin(),
                            other.dom_content_loaded.end());
  dom_interactive.insert(dom_interactive.end(), other.dom_interactive.begin(),
                         other.dom_interactive.end());
  load_event.insert(load_event.end(), other.load_event.begin(),
                    other.load_event.end());

  script_set_events += other.script_set_events;
  unique_setter_scripts += other.unique_setter_scripts;  // upper bound; see .h
}

void SiteSummary::merge(SiteSummary&& other) {
  totals.merge(std::move(other.totals));

  for (auto& [pair, stats] : other.pairs) {
    auto [it, inserted] = pairs.try_emplace(pair, std::move(stats));
    if (inserted) continue;
    PairStats& mine = it->second;
    // created_via stays ours: the earlier range recorded the pair first,
    // exactly as a sequential fold would have.
    mine.sites_set += stats.sites_set;
    for (const auto& [entity, n] : stats.exfiltrator_entities) {
      mine.exfiltrator_entities[entity] += n;
    }
    for (const auto& [entity, n] : stats.destination_entities) {
      mine.destination_entities[entity] += n;
    }
    for (const auto& [entity, n] : stats.overwriter_entities) {
      mine.overwriter_entities[entity] += n;
    }
    for (const auto& [entity, n] : stats.deleter_entities) {
      mine.deleter_entities[entity] += n;
    }
  }

  for (auto& [domain, stats] : other.domains) {
    auto [it, inserted] = domains.try_emplace(domain, std::move(stats));
    if (inserted) continue;
    it->second.exfiltrated_pairs.merge(stats.exfiltrated_pairs);
    it->second.overwritten_pairs.merge(stats.overwritten_pairs);
    it->second.deleted_pairs.merge(stats.deleted_pairs);
  }

  setter_script_urls.merge(other.setter_script_urls);
  totals.unique_setter_scripts =
      static_cast<long long>(setter_script_urls.size());
}

SiteSummary fold_visit(const entities::EntityMap& entities,
                       const AnalyzerOptions& options,
                       const instrument::VisitLog& log) {
  SiteSummary out;
  Totals& totals = out.totals;
  ++totals.sites_crawled;

  // Timings are collected for every crawled site (Table 4 uses all visits).
  totals.dom_content_loaded.push_back(log.landing_timings.dom_content_loaded);
  totals.dom_interactive.push_back(log.landing_timings.dom_interactive);
  totals.load_event.push_back(log.landing_timings.load_event);

  // Per-visit state below holds views into `log`, which outlives the fold;
  // only what lands in `out` is copied.

  // ---- §5.1 third-party prevalence ------------------------------------
  // The paper reports these over all 20,000 sites, not just the 14,917 with
  // complete logs.
  std::vector<HashedText> tp_script_urls;
  std::vector<HashedText> tp_ad_tracking_urls;
  for (const auto& inc : log.includes) {
    if (inc.is_inline || inc.domain.empty() || inc.domain == log.site) {
      continue;
    }
    const HashedText url(inc.url);
    tp_script_urls.push_back(url);
    if (script::is_ad_or_tracking(inc.category)) {
      tp_ad_tracking_urls.push_back(url);
    }
    if (inc.inclusion == script::Inclusion::kDirect) {
      ++totals.direct_inclusions;
    } else {
      ++totals.indirect_inclusions;
      if (script::is_ad_or_tracking(inc.category)) {
        ++totals.indirect_ad_tracking;
      }
    }
  }
  if (!tp_script_urls.empty()) ++totals.sites_with_third_party;
  totals.third_party_script_count +=
      static_cast<long long>(count_distinct(tp_script_urls));
  totals.third_party_ad_tracking_count +=
      static_cast<long long>(count_distinct(tp_ad_tracking_urls));

  if (!log.complete()) return out;
  ++totals.sites_complete;

  // ---- §5.2 API usage -----------------------------------------------------
  bool uses_document_cookie = false;
  bool uses_cookie_store = false;
  for (const auto& read : log.reads) {
    if (read.api == CookieSource::kDocumentCookie) uses_document_cookie = true;
    if (read.api == CookieSource::kCookieStore) uses_cookie_store = true;
  }
  for (const auto& set : log.script_sets) {
    if (set.api == CookieSource::kDocumentCookie) uses_document_cookie = true;
    if (set.api == CookieSource::kCookieStore) uses_cookie_store = true;
  }
  if (uses_document_cookie) ++totals.sites_using_document_cookie;
  if (uses_cookie_store) ++totals.sites_using_cookie_store;

  // ---- ownership timeline (§4.3 steps 1-2) ------------------------------
  // Merge script and HTTP set events by time. The FIRST setter of a name
  // owns the pair; later actions by other script domains are cross-domain.
  std::vector<TimelineEvent> events;
  events.reserve(log.script_sets.size() + log.http_sets.size());
  for (const auto& s : log.script_sets) {
    events.push_back({s.time, false, &s, nullptr});
  }
  for (const auto& h : log.http_sets) {
    if (!h.first_party) continue;  // third-party response cookies: out of scope
    events.push_back({h.time, true, nullptr, &h});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) {
                     return a.time < b.time;
                   });

  // name -> owner domain. Inline/unknown setters are folded into the first
  // party, as the paper does for inline scripts.
  OwnerTable owner;
  // Every (identifier segment, pair) a value offered; matching starts only
  // after the timeline, so they are deduplicated and encoded there.
  std::vector<Candidate> candidates;
  auto add_candidates = [&](const PairView& pair, std::string_view value) {
    script::for_each_identifier_segment(value, [&](std::string_view segment) {
      candidates.push_back({segment, pair});
    });
  };

  // `out` starts empty, so a pair is new to `out.pairs` exactly when it is
  // first recorded on this visit: that is when it counts one site.
  auto record_pair = [&](const PairView& pair, CookieSource via) {
    auto [it, inserted] = out.pairs.try_emplace(pair.materialize());
    if (inserted) {
      it->second.created_via = via;
      ++it->second.sites_set;
    }
  };

  bool doc_overwrite = false;  // cross-domain actions per API, per site
  bool store_overwrite = false;
  bool doc_delete = false;
  bool store_delete = false;

  for (const auto& event : events) {
    if (event.from_http) {
      const auto& h = *event.http;
      if (h.http_only) continue;  // invisible to scripts, out of scope
      const std::string_view* owning = owner.find(h.cookie_name);
      if (owning == nullptr) {
        if (h.change_type == Type::kCreated ||
            h.change_type == Type::kOverwritten) {
          owner.set(h.cookie_name, h.setter_domain);
          const PairView pair{h.cookie_name, h.setter_domain};
          record_pair(pair, CookieSource::kHttpHeader);
          add_candidates(pair, h.value);
        }
      } else if (h.change_type == Type::kOverwritten ||
                 h.change_type == Type::kCreated) {
        // Header re-sets re-attribute ownership to the response site but are
        // NOT counted as cross-domain manipulations (§9: header actions are
        // out of scope).
        add_candidates({h.cookie_name, *owning}, h.value);
      }
      continue;
    }

    const auto& s = *event.script;
    ++totals.script_set_events;
    if (!s.setter_url.empty()) out.setter_script_urls.insert(s.setter_url);

    // Attribution accuracy bookkeeping (ground truth vs stack-derived).
    ++totals.attributed_sets;
    if (s.setter_domain.empty()) {
      ++totals.attribution_unknown;
    } else if (s.setter_domain == s.true_domain) {
      ++totals.attribution_correct;
    }

    // Fold inline/unknown setters into the first party.
    const std::string_view actor =
        s.setter_domain.empty() ? log.site : s.setter_domain;
    const bool actor_is_tp = actor != log.site;

    const std::string_view* owning = owner.find(s.cookie_name);
    if (owning == nullptr) {
      if (s.change_type == Type::kCreated ||
          s.change_type == Type::kOverwritten) {
        owner.set(s.cookie_name, actor);
        const PairView pair{s.cookie_name, actor};
        record_pair(pair, s.api);
        add_candidates(pair, s.value);
        if (actor_is_tp) {
          ++totals.tp_cookies_set;
        } else {
          ++totals.fp_cookies_set;
        }
      }
      continue;
    }

    const PairView pair{s.cookie_name, *owning};
    const bool via_store = s.api == CookieSource::kCookieStore;

    if (actor == pair.owner) {
      // Same-domain refresh: extend candidates with the new value.
      if (s.change_type != Type::kDeleted) add_candidates(pair, s.value);
      if (s.change_type == Type::kDeleted) owner.erase(s.cookie_name);
      continue;
    }

    // Cross-domain action (§4.3 step 3).
    if (s.change_type == Type::kOverwritten) {
      CookiePair key = pair.materialize();
      auto& stats = out.pairs[key];
      ++stats.overwriter_entities[entities.entity_for(actor)];
      out.domains[std::string(actor)].overwritten_pairs.insert(std::move(key));
      (via_store ? store_overwrite : doc_overwrite) = true;
      ++totals.cross_overwrites;
      totals.overwrite_value_changed += s.value_changed ? 1 : 0;
      totals.overwrite_expires_changed += s.expires_changed ? 1 : 0;
      totals.overwrite_domain_changed += s.domain_changed ? 1 : 0;
      totals.overwrite_path_changed += s.path_changed ? 1 : 0;
      if (s.expires_changed && s.prev_expires > 0 && s.new_expires > 0) {
        if (s.new_expires > s.prev_expires) {
          ++totals.overwrite_expiry_extended;
          totals.expiry_days_added +=
              static_cast<double>(s.new_expires - s.prev_expires) / 86400000.0;
        } else {
          ++totals.overwrite_expiry_shortened;
        }
      }
      // Ownership stays with the original creator; new value becomes a
      // candidate for the overwriter's later requests too.
      add_candidates(pair, s.value);
    } else if (s.change_type == Type::kDeleted) {
      CookiePair key = pair.materialize();
      auto& stats = out.pairs[key];
      ++stats.deleter_entities[entities.entity_for(actor)];
      out.domains[std::string(actor)].deleted_pairs.insert(std::move(key));
      (via_store ? store_delete : doc_delete) = true;
      owner.erase(s.cookie_name);
    } else if (s.change_type == Type::kCreated) {
      // Re-creation after expiry/deletion: a fresh pair owned by the actor.
      owner.set(s.cookie_name, actor);
      const PairView fresh{s.cookie_name, actor};
      record_pair(fresh, s.api);
      add_candidates(fresh, s.value);
    }
  }

  if (doc_overwrite) ++totals.sites_doc_overwrite;
  if (store_overwrite) ++totals.sites_store_overwrite;
  if (doc_delete) ++totals.sites_doc_delete;
  if (store_delete) ++totals.sites_store_delete;

  // ---- cookieStore usage details ----------------------------------------
  for (const auto& s : log.script_sets) {
    if (s.api != CookieSource::kCookieStore) continue;
    totals.store_cookie_names.insert(s.cookie_name);
    ++totals.store_setting_scripts;
    if (!s.setter_domain.empty()) {
      totals.store_script_domains.insert(s.setter_domain);
    }
  }

  // ---- exfiltration detection (§4.3) -------------------------------------
  // Every identifier segment of every query value, collected before the
  // lookup table is built: their lengths decide which encoded forms are
  // worth computing.
  std::vector<Sent> sent;
  SentLengths sent_lengths;
  // %- or +-encoded values, form-decoded; a list, so `sent` views into
  // earlier values stay valid as more are added.
  std::list<std::string> decoded;
  for (const auto& request : log.requests) {
    if (candidates.empty()) break;  // nothing can match
    const auto query_pos = request.url.find('?');
    if (query_pos == std::string::npos) continue;
    net::for_each_query_param(
        std::string_view(request.url).substr(query_pos + 1),
        [&](std::string_view /*key*/, std::string_view value) {
          if (net::needs_form_decode(value)) {
            value = decoded.emplace_back(net::form_decode(value));
          }
          script::for_each_identifier_segment(
              value, [&](std::string_view segment) {
                sent.push_back({HashedText(segment), &request});
                sent_lengths.add(segment.size());
              });
        });
  }
  std::string encoded;  // the Base64/MD5/SHA-1 forms `forms` points into
  const std::vector<Form> forms =
      build_forms(candidates, options, sent_lengths, encoded);
  std::vector<Hit> hits;
  for (const Sent& s : sent) {
    const Form* form = find_form(forms, s.segment);
    if (form == nullptr) continue;
    const std::string_view initiator = s.request->initiator_domain.empty()
                                           ? log.site
                                           : s.request->initiator_domain;
    if (form->pair.owner == initiator) continue;  // authorized
    hits.push_back({form->pair, initiator, s.request->dest_domain});
  }

  // Apply each distinct (pair, initiator) and (pair, destination) once,
  // with its hit count: the same counts as one update per hit.
  bool site_doc_exfil = false;
  bool site_store_exfil = false;
  std::sort(hits.begin(), hits.end());
  for (std::size_t first = 0; first < hits.size();) {
    const auto pair_end =
        run_end(hits, first, hits.size(),
                [](const Hit& a, const Hit& b) { return a.pair == b.pair; });
    const CookiePair pair = hits[first].pair.materialize();
    auto& stats = out.pairs[pair];
    if (stats.created_via == CookieSource::kCookieStore) {
      site_store_exfil = true;
    } else {
      site_doc_exfil = true;
    }
    for (std::size_t i = first; i < pair_end;) {
      const auto end =
          run_end(hits, i, pair_end, [](const Hit& a, const Hit& b) {
            return a.initiator == b.initiator;
          });
      stats.exfiltrator_entities[entities.entity_for(hits[i].initiator)] +=
          static_cast<int>(end - i);
      out.domains[std::string(hits[i].initiator)].exfiltrated_pairs.insert(
          pair);
      i = end;
    }
    std::sort(hits.begin() + static_cast<std::ptrdiff_t>(first),
              hits.begin() + static_cast<std::ptrdiff_t>(pair_end),
              [](const Hit& a, const Hit& b) { return a.dest < b.dest; });
    for (std::size_t i = first; i < pair_end;) {
      const auto end =
          run_end(hits, i, pair_end,
                  [](const Hit& a, const Hit& b) { return a.dest == b.dest; });
      stats.destination_entities[entities.entity_for(hits[i].dest)] +=
          static_cast<int>(end - i);
      i = end;
    }
    first = pair_end;
  }
  if (site_doc_exfil) ++totals.sites_doc_exfil;
  if (site_store_exfil) ++totals.sites_store_exfil;

  // ---- §8 DOM pilot --------------------------------------------------------
  for (const auto& mod : log.dom_mods) {
    if (mod.modifier_domain != log.site) {
      ++totals.sites_with_cross_dom_modification;
      break;
    }
  }

  totals.unique_setter_scripts =
      static_cast<long long>(out.setter_script_urls.size());
  if (options.totals_only) {
    out.pairs.clear();
    out.domains.clear();
    out.setter_script_urls.clear();
    totals.unique_setter_scripts = 0;
  }
  return out;
}

int SiteSummary::pair_count(CookieSource via) const {
  int n = 0;
  for (const auto& [pair, stats] : pairs) {
    const bool is_store = stats.created_via == CookieSource::kCookieStore;
    if ((via == CookieSource::kCookieStore) == is_store) ++n;
  }
  return n;
}

int SiteSummary::exfiltrated_pair_count(CookieSource via) const {
  int n = 0;
  for (const auto& [pair, stats] : pairs) {
    const bool is_store = stats.created_via == CookieSource::kCookieStore;
    if ((via == CookieSource::kCookieStore) == is_store && stats.exfiltrated()) {
      ++n;
    }
  }
  return n;
}

int SiteSummary::overwritten_pair_count(CookieSource via) const {
  int n = 0;
  for (const auto& [pair, stats] : pairs) {
    const bool is_store = stats.created_via == CookieSource::kCookieStore;
    if ((via == CookieSource::kCookieStore) == is_store && stats.overwritten()) {
      ++n;
    }
  }
  return n;
}

int SiteSummary::deleted_pair_count(CookieSource via) const {
  int n = 0;
  for (const auto& [pair, stats] : pairs) {
    const bool is_store = stats.created_via == CookieSource::kCookieStore;
    if ((via == CookieSource::kCookieStore) == is_store && stats.deleted()) {
      ++n;
    }
  }
  return n;
}

namespace {

std::vector<SiteSummary::RankedPair> rank_pairs(
    const std::map<CookiePair, PairStats>& pairs, std::size_t n,
    const std::function<int(const PairStats&)>& key) {
  std::vector<SiteSummary::RankedPair> out;
  for (const auto& [pair, stats] : pairs) {
    if (key(stats) > 0) out.push_back({pair, &stats});
  }
  std::sort(out.begin(), out.end(),
            [&](const SiteSummary::RankedPair& a,
                const SiteSummary::RankedPair& b) {
              const int ka = key(*a.stats);
              const int kb = key(*b.stats);
              if (ka != kb) return ka > kb;
              return a.pair < b.pair;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

std::vector<std::pair<std::string, int>> rank_domains(
    const std::map<std::string, DomainStats>& domains, std::size_t n,
    const std::function<int(const DomainStats&)>& key) {
  std::vector<std::pair<std::string, int>> out;
  for (const auto& [domain, stats] : domains) {
    const int k = key(stats);
    if (k > 0) out.emplace_back(domain, k);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

}  // namespace

std::vector<SiteSummary::RankedPair> SiteSummary::top_exfiltrated(
    std::size_t n) const {
  return rank_pairs(pairs, n, [](const PairStats& s) {
    return static_cast<int>(s.destination_entities.size());
  });
}

std::vector<SiteSummary::RankedPair> SiteSummary::top_overwritten(
    std::size_t n) const {
  return rank_pairs(pairs, n, [](const PairStats& s) {
    return static_cast<int>(s.overwriter_entities.size());
  });
}

std::vector<SiteSummary::RankedPair> SiteSummary::top_deleted(
    std::size_t n) const {
  return rank_pairs(pairs, n, [](const PairStats& s) {
    return static_cast<int>(s.deleter_entities.size());
  });
}

std::vector<std::pair<std::string, int>> SiteSummary::top_exfiltrator_domains(
    std::size_t n) const {
  return rank_domains(domains, n, [](const DomainStats& s) {
    return static_cast<int>(s.exfiltrated_pairs.size());
  });
}

std::vector<std::pair<std::string, int>> SiteSummary::top_overwriter_domains(
    std::size_t n) const {
  return rank_domains(domains, n, [](const DomainStats& s) {
    return static_cast<int>(s.overwritten_pairs.size());
  });
}

std::vector<std::pair<std::string, int>> SiteSummary::top_deleter_domains(
    std::size_t n) const {
  return rank_domains(domains, n, [](const DomainStats& s) {
    return static_cast<int>(s.deleted_pairs.size());
  });
}

}  // namespace cg::analysis
