#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "analysis/archive.h"
#include "cookies/cookie.h"
#include "entities/entity_map.h"
#include "fault/fault.h"
#include "store/record_codec.h"

namespace cg::serve {
namespace {

using cookies::CookieSource;

/// Binary search of a footer index (ranks strictly increasing) for `rank`.
const store::IndexEntry* find_entry(const std::vector<store::IndexEntry>& index,
                                    int rank) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), rank,
      [](const store::IndexEntry& e, int r) { return e.rank < r; });
  if (it == index.end() || it->rank != rank) return nullptr;
  return &*it;
}

report::Json error_json(const Query& query, const std::string& detail) {
  report::Json out = report::Json::object();
  out["kind"] = query_kind_name(query.kind);
  out["error"] = detail;
  return out;
}

report::Json api_breakdown(const analysis::SiteSummary& s, CookieSource via,
                           int sites_exfil, int sites_over, int sites_del,
                           int sites_complete) {
  const double n = sites_complete > 0 ? sites_complete : 1;
  report::Json out = report::Json::object();
  out["pairs"] = s.pair_count(via);
  out["exfiltrated_pairs"] = s.exfiltrated_pair_count(via);
  out["overwritten_pairs"] = s.overwritten_pair_count(via);
  out["deleted_pairs"] = s.deleted_pair_count(via);
  out["sites_exfiltrating"] = sites_exfil;
  out["sites_overwriting"] = sites_over;
  out["sites_deleting"] = sites_del;
  out["pct_sites_exfiltrating"] = 100.0 * sites_exfil / n;
  out["pct_sites_overwriting"] = 100.0 * sites_over / n;
  out["pct_sites_deleting"] = 100.0 * sites_del / n;
  return out;
}

}  // namespace

Server::Server(std::vector<Archive> archives, const ServerConfig& config)
    : archives_(std::move(archives)), cache_(config.cache) {}

std::unique_ptr<Server> Server::open(const std::vector<std::string>& paths,
                                     const ServerConfig& config,
                                     store::Error* error) {
  std::vector<store::Reader> readers;
  readers.reserve(paths.size());
  for (const std::string& path : paths) {
    auto reader = store::Reader::open(path, error);
    if (!reader) return nullptr;
    readers.push_back(std::move(*reader));
  }
  auto server = from_readers(std::move(readers), config, error);
  if (server != nullptr) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      server->archives_[i].path = paths[i];
    }
  }
  return server;
}

std::unique_ptr<Server> Server::from_readers(
    std::vector<store::Reader> readers, const ServerConfig& config,
    store::Error* error) {
  std::vector<Archive> archives;
  archives.reserve(readers.size());
  for (auto& reader : readers) {
    archives.push_back(Archive{"<buffer>", std::move(reader)});
  }

  std::unique_ptr<Server> server(new Server(std::move(archives), config));

  // Precompute the aggregates: one full fold per archive at load time, so
  // no query ever walks an archive. Each fold runs on every hardware
  // thread and merges in rank order (analysis/archive.h); archives merge
  // in load order.
  const entities::EntityMap& entities = entities::EntityMap::builtin();
  const bool chain_mode = std::any_of(
      server->archives_.begin(), server->archives_.end(),
      [](const Archive& a) {
        return a.reader.kind() == store::ArchiveKind::kDelta;
      });
  if (chain_mode) {
    // Base+delta chain: validate the linkage, then fold each wave from its
    // materialized logs. The regular aggregate serves the newest wave.
    std::vector<const store::Reader*> readers_in_order;
    readers_in_order.reserve(server->archives_.size());
    for (const Archive& archive : server->archives_) {
      readers_in_order.push_back(&archive.reader);
    }
    server->chain_ = store::WaveChain::link(std::move(readers_in_order),
                                            error);
    if (!server->chain_) return nullptr;
    for (int w = 0; w < server->chain_->waves(); ++w) {
      auto summary = analysis::fold_wave(*server->chain_, w, entities, {},
                                         error);
      if (!summary) return nullptr;  // an unresolvable chain must not serve
      server->waves_.push_back(
          WaveInfo{server->chain_->archive(w).wave(), std::move(*summary)});
    }
    server->aggregate_ = server->waves_.back().summary;
    server->waves_answer_ = server->build_waves();
  } else {
    for (const Archive& archive : server->archives_) {
      auto summary =
          analysis::fold_archive(archive.reader, entities, {}, error);
      if (!summary) return nullptr;  // a corrupt corpus must not serve
      server->aggregate_.merge(std::move(*summary));
    }
  }

  // Per-entity index over the merged pair map.
  for (const auto& [pair, stats] : server->aggregate_.pairs) {
    for (const auto& [entity, n] : stats.exfiltrator_entities) {
      auto& agg = server->entity_index_[entity];
      ++agg.exfiltrated_pairs;
      agg.exfil_site_events += n;
    }
    for (const auto& [entity, n] : stats.destination_entities) {
      ++server->entity_index_[entity].destination_pairs;
    }
    for (const auto& [entity, n] : stats.overwriter_entities) {
      auto& agg = server->entity_index_[entity];
      ++agg.overwritten_pairs;
      agg.overwrite_site_events += n;
    }
    for (const auto& [entity, n] : stats.deleter_entities) {
      auto& agg = server->entity_index_[entity];
      ++agg.deleted_pairs;
      agg.delete_site_events += n;
    }
  }

  // Render the aggregate answers once. table1/totals scan the full pair map
  // (four passes each); at 20k sites that is ~12 ms per query if done at
  // query time. The rankers are full deterministic sorts, so top-N queries
  // are prefix slices of the complete rankings precomputed here.
  server->table1_answer_ = server->build_table1();
  server->totals_answer_ = server->build_totals();
  server->ranked_exfiltrated_ =
      server->aggregate_.top_exfiltrated(server->aggregate_.pairs.size());
  server->ranked_domains_ = server->aggregate_.top_exfiltrator_domains(
      server->aggregate_.domains.size());
  return server;
}

int Server::site_count() const {
  if (chain_) return chain_->site_count(chain_->waves() - 1);
  int n = 0;
  for (const Archive& archive : archives_) n += archive.reader.site_count();
  return n;
}

std::shared_ptr<const instrument::VisitLog> Server::load_site(
    int rank, int* archive_index, store::Error* error) const {
  if (chain_) {
    // Chain mode: kSite answers the newest wave, materialized through the
    // chain. Cached under the newest wave's archive index, keyed by the
    // materialized payload size for admission.
    const int top = chain_->waves() - 1;
    *archive_index = top;
    const auto key = static_cast<std::uint32_t>(top);
    if (auto cached = cache_.get(key, rank)) return cached;
    const auto payload = chain_->payload_at(rank, top, error);
    if (!payload) return nullptr;
    auto log = store::decode_site_payload(*payload, error);
    if (!log) return nullptr;
    auto shared =
        std::make_shared<const instrument::VisitLog>(std::move(*log));
    cache_.put(key, rank, payload->size(), shared);
    return shared;
  }
  for (std::size_t i = 0; i < archives_.size(); ++i) {
    const Archive& archive = archives_[i];
    const store::IndexEntry* entry =
        find_entry(archive.reader.index(), rank);
    if (entry == nullptr) continue;
    *archive_index = static_cast<int>(i);
    if (auto cached = cache_.get(static_cast<std::uint32_t>(i), rank)) {
      return cached;
    }
    auto log = archive.reader.visit(rank, error);
    if (!log) return nullptr;  // corrupt block — error already filled
    auto shared =
        std::make_shared<const instrument::VisitLog>(std::move(*log));
    cache_.put(static_cast<std::uint32_t>(i), rank, entry->length, shared);
    return shared;
  }
  if (error != nullptr) {
    *error = {fault::ArchiveFault::kNone,
              "rank " + std::to_string(rank) + " is in no loaded archive"};
  }
  return nullptr;
}

report::Json Server::handle_site(const Query& query) const {
  int archive_index = -1;
  store::Error error;
  const auto log = load_site(query.rank, &archive_index, &error);
  if (log == nullptr) {
    return error_json(query, error.code == fault::ArchiveFault::kNone
                                 ? error.detail
                                 : error.to_string());
  }
  const analysis::SiteSummary folded =
      analysis::fold_visit(entities::EntityMap::builtin(), {}, *log);
  const analysis::Totals& t = folded.totals;

  report::Json out = report::Json::object();
  out["kind"] = "site";
  out["rank"] = query.rank;
  out["archive"] = archive_index;
  out["site"] = log->site;
  out["host"] = log->site_host;
  out["complete"] = log->complete();
  out["attempts"] = log->attempts;
  out["failure"] = std::string(fault::failure_class_name(log->failure));

  report::Json records = report::Json::object();
  records["script_sets"] = static_cast<std::int64_t>(log->script_sets.size());
  records["http_sets"] = static_cast<std::int64_t>(log->http_sets.size());
  records["reads"] = static_cast<std::int64_t>(log->reads.size());
  records["requests"] = static_cast<std::int64_t>(log->requests.size());
  records["dom_mods"] = static_cast<std::int64_t>(log->dom_mods.size());
  records["includes"] = static_cast<std::int64_t>(log->includes.size());
  out["records"] = std::move(records);

  report::Json a = report::Json::object();
  a["third_party_scripts"] = t.third_party_script_count;
  a["tp_cookies_set"] = t.tp_cookies_set;
  a["fp_cookies_set"] = t.fp_cookies_set;
  a["pairs_set"] = static_cast<std::int64_t>(folded.pairs.size());
  a["cross_overwrites"] = t.cross_overwrites;
  a["exfiltrated"] = t.sites_doc_exfil + t.sites_store_exfil > 0;
  a["overwritten"] = t.sites_doc_overwrite + t.sites_store_overwrite > 0;
  a["deleted"] = t.sites_doc_delete + t.sites_store_delete > 0;
  out["analysis"] = std::move(a);
  return out;
}

report::Json Server::build_table1() const {
  const analysis::Totals& t = aggregate_.totals;
  report::Json out = report::Json::object();
  out["kind"] = "table1";
  out["sites_complete"] = t.sites_complete;
  out["document_cookie"] =
      api_breakdown(aggregate_, CookieSource::kDocumentCookie,
                    t.sites_doc_exfil, t.sites_doc_overwrite,
                    t.sites_doc_delete, t.sites_complete);
  out["cookie_store"] =
      api_breakdown(aggregate_, CookieSource::kCookieStore,
                    t.sites_store_exfil, t.sites_store_overwrite,
                    t.sites_store_delete, t.sites_complete);
  return out;
}

report::Json Server::build_totals() const {
  const analysis::Totals& t = aggregate_.totals;
  report::Json out = report::Json::object();
  out["kind"] = "totals";
  out["sites_crawled"] = t.sites_crawled;
  out["sites_complete"] = t.sites_complete;
  out["sites_with_third_party"] = t.sites_with_third_party;
  out["third_party_scripts"] = t.third_party_script_count;
  out["third_party_ad_tracking"] = t.third_party_ad_tracking_count;
  out["tp_cookies_set"] = t.tp_cookies_set;
  out["fp_cookies_set"] = t.fp_cookies_set;
  out["direct_inclusions"] = t.direct_inclusions;
  out["indirect_inclusions"] = t.indirect_inclusions;
  out["sites_using_document_cookie"] = t.sites_using_document_cookie;
  out["sites_using_cookie_store"] = t.sites_using_cookie_store;
  out["unique_pairs"] = static_cast<std::int64_t>(aggregate_.pairs.size());
  out["unique_setter_scripts"] = t.unique_setter_scripts;
  out["script_set_events"] = t.script_set_events;
  out["cross_overwrites"] = t.cross_overwrites;
  return out;
}

report::Json Server::build_waves() const {
  report::Json rows = report::Json::array();
  for (const WaveInfo& info : waves_) {
    const analysis::Totals& t = info.summary.totals;
    report::Json row = report::Json::object();
    row["wave"] = static_cast<std::int64_t>(info.wave);
    row["sites_crawled"] = t.sites_crawled;
    row["sites_complete"] = t.sites_complete;
    row["sites_with_third_party"] = t.sites_with_third_party;
    row["third_party_scripts"] = t.third_party_script_count;
    row["tp_cookies_set"] = t.tp_cookies_set;
    row["fp_cookies_set"] = t.fp_cookies_set;
    row["unique_pairs"] = static_cast<std::int64_t>(info.summary.pairs.size());
    row["exfiltrated_pairs"] = static_cast<std::int64_t>(
        info.summary.exfiltrated_pair_count(CookieSource::kDocumentCookie) +
        info.summary.exfiltrated_pair_count(CookieSource::kCookieStore));
    row["cross_overwrites"] = t.cross_overwrites;
    row["sites_doc_exfil"] = t.sites_doc_exfil;
    row["sites_store_exfil"] = t.sites_store_exfil;
    rows.push_back(std::move(row));
  }
  report::Json out = report::Json::object();
  out["kind"] = "waves";
  out["waves"] = static_cast<std::int64_t>(waves_.size());
  out["rows"] = std::move(rows);
  return out;
}

report::Json Server::handle_waves(const Query& query) const {
  if (waves_.empty()) {
    return error_json(query,
                      "no wave chain loaded — waves needs a base+delta "
                      "archive chain");
  }
  if (query.domain.empty()) return waves_answer_;
  // Per-domain trend: one map lookup per wave against the precomputed
  // per-wave summaries.
  report::Json rows = report::Json::array();
  for (const WaveInfo& info : waves_) {
    report::Json row = report::Json::object();
    row["wave"] = static_cast<std::int64_t>(info.wave);
    const auto it = info.summary.domains.find(query.domain);
    const bool known = it != info.summary.domains.end();
    row["known"] = known;
    row["exfiltrated_pairs"] = static_cast<std::int64_t>(
        known ? it->second.exfiltrated_pairs.size() : 0);
    row["overwritten_pairs"] = static_cast<std::int64_t>(
        known ? it->second.overwritten_pairs.size() : 0);
    row["deleted_pairs"] = static_cast<std::int64_t>(
        known ? it->second.deleted_pairs.size() : 0);
    rows.push_back(std::move(row));
  }
  report::Json out = report::Json::object();
  out["kind"] = "waves";
  out["domain"] = query.domain;
  out["waves"] = static_cast<std::int64_t>(waves_.size());
  out["rows"] = std::move(rows);
  return out;
}

report::Json Server::handle_top_exfiltrated(int n) const {
  report::Json rows = report::Json::array();
  const std::size_t take =
      std::min(static_cast<std::size_t>(n > 0 ? n : 0),
               ranked_exfiltrated_.size());
  for (std::size_t i = 0; i < take; ++i) {
    const auto& ranked = ranked_exfiltrated_[i];
    report::Json row = report::Json::object();
    row["name"] = ranked.pair.name;
    row["owner"] = ranked.pair.owner_domain;
    row["destination_entities"] =
        static_cast<std::int64_t>(ranked.stats->destination_entities.size());
    row["sites_set"] = ranked.stats->sites_set;
    rows.push_back(std::move(row));
  }
  report::Json out = report::Json::object();
  out["kind"] = "top-exfiltrated";
  out["n"] = n;
  out["rows"] = std::move(rows);
  return out;
}

report::Json Server::handle_top_domains(int n) const {
  report::Json rows = report::Json::array();
  const std::size_t take = std::min(static_cast<std::size_t>(n > 0 ? n : 0),
                                    ranked_domains_.size());
  for (std::size_t i = 0; i < take; ++i) {
    const auto& [domain, count] = ranked_domains_[i];
    report::Json row = report::Json::object();
    row["domain"] = domain;
    row["exfiltrated_cookies"] = count;
    rows.push_back(std::move(row));
  }
  report::Json out = report::Json::object();
  out["kind"] = "top-domains";
  out["n"] = n;
  out["rows"] = std::move(rows);
  return out;
}

report::Json Server::handle_entity(const std::string& entity) const {
  report::Json out = report::Json::object();
  out["kind"] = "entity";
  out["entity"] = entity;
  const auto it = entity_index_.find(entity);
  out["known"] = it != entity_index_.end();
  const EntityAggregate agg =
      it != entity_index_.end() ? it->second : EntityAggregate{};
  out["exfiltrated_pairs"] = agg.exfiltrated_pairs;
  out["destination_pairs"] = agg.destination_pairs;
  out["overwritten_pairs"] = agg.overwritten_pairs;
  out["deleted_pairs"] = agg.deleted_pairs;
  out["exfil_site_events"] = agg.exfil_site_events;
  out["overwrite_site_events"] = agg.overwrite_site_events;
  out["delete_site_events"] = agg.delete_site_events;
  return out;
}

report::Json Server::handle(const Query& query) const {
  const int kind_index = static_cast<int>(query.kind);
  if (kind_index >= 0 && kind_index < kQueryKindCount) {
    queries_by_kind_[static_cast<std::size_t>(kind_index)].fetch_add(
        1, std::memory_order_relaxed);
  }
  switch (query.kind) {
    case QueryKind::kSite: {
      report::Json out = handle_site(query);
      if (out.find("error") != nullptr) {
        query_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      return out;
    }
    case QueryKind::kTable1:
      return table1_answer_;
    case QueryKind::kTotals:
      return totals_answer_;
    case QueryKind::kTopExfiltrated:
      return handle_top_exfiltrated(query.top_n);
    case QueryKind::kTopDomains:
      return handle_top_domains(query.top_n);
    case QueryKind::kEntity:
      return handle_entity(query.entity);
    case QueryKind::kStats:
      return stats_json();
    case QueryKind::kWaves: {
      report::Json out = handle_waves(query);
      if (out.find("error") != nullptr) {
        query_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      return out;
    }
  }
  query_errors_.fetch_add(1, std::memory_order_relaxed);
  return error_json(query, "unknown query kind");
}

std::string Server::handle_text(const Query& query) const {
  return handle(query).dump();
}

report::Json Server::stats_json() const {
  report::Json out = report::Json::object();
  out["kind"] = "stats";

  report::Json archives = report::Json::array();
  for (const Archive& archive : archives_) {
    report::Json a = report::Json::object();
    a["path"] = archive.path;
    a["sites"] = archive.reader.site_count();
    a["bytes"] = static_cast<std::int64_t>(archive.reader.file_size());
    a["corpus_seed"] =
        static_cast<std::int64_t>(archive.reader.corpus_seed());
    a["kind"] = std::string(store::archive_kind_name(archive.reader.kind()));
    a["policy"] =
        std::string(store::archive_policy_name(archive.reader.policy()));
    a["wave"] = static_cast<std::int64_t>(archive.reader.wave());
    if (archive.reader.kind() == store::ArchiveKind::kDelta) {
      a["inherited"] =
          static_cast<std::int64_t>(archive.reader.inherited_ranks().size());
    }
    archives.push_back(std::move(a));
  }
  out["archives"] = std::move(archives);
  out["sites"] = site_count();
  if (chain_) out["waves"] = static_cast<std::int64_t>(waves_.size());

  report::Json queries = report::Json::object();
  for (int k = 0; k < kQueryKindCount; ++k) {
    queries[std::string(query_kind_name(static_cast<QueryKind>(k)))] =
        queries_by_kind_[static_cast<std::size_t>(k)].load(
            std::memory_order_relaxed);
  }
  queries["errors"] = query_errors_.load(std::memory_order_relaxed);
  out["queries"] = std::move(queries);

  const BlockCache::Stats cache = cache_.stats();
  report::Json c = report::Json::object();
  c["hits"] = cache.hits;
  c["misses"] = cache.misses;
  c["insertions"] = cache.insertions;
  c["evictions"] = cache.evictions;
  c["rejected_admission"] = cache.rejected_admission;
  c["entries"] = cache.entries;
  out["cache"] = std::move(c);
  return out;
}

void Server::export_metrics(obs::MetricsRegistry& registry) const {
  for (int k = 0; k < kQueryKindCount; ++k) {
    // The prefix literal stays inline in the call so cglint M1 can match it
    // against the serve.queries.* wildcard in lint/metrics.txt.
    registry.add("serve.queries." +
                     std::string(query_kind_name(static_cast<QueryKind>(k))),
                 queries_by_kind_[static_cast<std::size_t>(k)].load(
                     std::memory_order_relaxed));
  }
  registry.add("serve.queries.errors",
               query_errors_.load(std::memory_order_relaxed));
  cache_.export_metrics(registry);
}

}  // namespace cg::serve
