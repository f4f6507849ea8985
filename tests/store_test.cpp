// CGAR store tests: codec round-trips, archive determinism across thread
// counts, analysis-from-archive equivalence (the parallel archive fold
// against a sequential reference, corrupt and delta archives included),
// footer/version rejection,
// delta archives (codec, wave chains, splice rejection), and checkpoint
// resume producing a byte-identical archive.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/archive.h"
#include "corpus/corpus.h"
#include "crawler/crawler.h"
#include "entities/entity_map.h"
#include "report/report.h"
#include "script/rng.h"
#include "store/cgar.h"
#include "store/chain.h"
#include "store/delta_codec.h"
#include "store/reader.h"
#include "store/record_codec.h"
#include "store/writer.h"

namespace cg::store {
namespace {

corpus::CorpusParams small_params(int sites) {
  corpus::CorpusParams params;
  params.site_count = sites;
  return params;
}

/// A VisitLog exercising every record type, every string-sharing pattern
/// (repeated domains), and the edge values the varint codec must handle.
instrument::VisitLog dense_log() {
  instrument::VisitLog log;
  log.site_host = "www.example.com";
  log.site = "example.com";
  log.rank = 42;
  log.pages_visited = 4;
  log.has_cookie_logs = true;
  log.has_request_logs = true;
  log.failure = fault::FailureClass::kSubresourceFailure;
  log.attempts = 3;
  log.landing_timings.dom_interactive = 812;
  log.landing_timings.dom_content_loaded = 1204;
  log.landing_timings.load_event = 2711;

  instrument::ScriptCookieSetRecord set;
  set.cookie_name = "_ga";
  set.value = "GA1.2.123.456";
  set.setter_url = "https://cdn.tracker.net/collect.js";
  set.setter_domain = "tracker.net";
  set.true_domain = "tracker.net";
  set.api = cookies::CookieSource::kCookieStore;
  set.change_type = cookies::CookieChange::Type::kOverwritten;
  set.category = script::Category::kAdvertising;
  set.inclusion = script::Inclusion::kIndirect;
  set.value_changed = true;
  set.expires_changed = true;
  set.prev_expires = 0;
  set.new_expires = 1234567890123LL;
  set.time = 1500;
  log.script_sets.push_back(set);
  set.cookie_name = "_gid";
  set.change_type = cookies::CookieChange::Type::kDeleted;
  set.new_expires = -1;  // negative exercises zigzag
  log.script_sets.push_back(set);

  instrument::HttpCookieSetRecord http;
  http.cookie_name = "session";
  http.value = "abc=/+&";
  http.response_host = "www.example.com";
  http.setter_domain = "example.com";
  http.http_only = true;
  http.first_party = true;
  http.time = 90;
  log.http_sets.push_back(http);

  instrument::CookieReadRecord read;
  read.reader_url = "https://cdn.tracker.net/collect.js";  // shared string
  read.reader_domain = "tracker.net";
  read.api = cookies::CookieSource::kDocumentCookie;
  read.cookies_returned = 17;
  read.time = 1600;
  log.reads.push_back(read);

  instrument::RequestRecord req;
  req.url = "https://px.tracker.net/p?uid=123";
  req.host = "px.tracker.net";
  req.dest_domain = "tracker.net";
  req.initiator_url = "https://cdn.tracker.net/collect.js";
  req.initiator_domain = "tracker.net";
  req.destination = net::RequestDestination::kImage;
  req.time = 1700;
  log.requests.push_back(req);

  instrument::DomModRecord dom;
  dom.modifier_domain = "tracker.net";
  dom.target_domain = "example.com";
  log.dom_mods.push_back(dom);

  instrument::ScriptIncludeRecord inc;
  inc.script_id = "tracker-collect";
  inc.url = "https://cdn.tracker.net/collect.js";
  inc.domain = "tracker.net";
  inc.category = script::Category::kAdvertising;
  inc.inclusion = script::Inclusion::kIndirect;
  log.includes.push_back(inc);
  inc.script_id = "";  // inline
  inc.url = "";
  inc.domain = "";
  inc.is_inline = true;
  log.includes.push_back(inc);
  return log;
}

/// Packs sites [0, count) of `corpus` into an in-memory archive at the given
/// thread count, mirroring what `cgsim pack` does.
std::string pack_to_string(const corpus::Corpus& corpus, int threads) {
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;
  options.threads = threads;
  WriterOptions writer_options;
  writer_options.corpus_seed = corpus.params().seed;
  const fault::FaultPlan plan = crawler.plan_for(options);
  writer_options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  std::ostringstream out;
  Writer writer(&out, writer_options);
  options.archive = &writer;
  crawler.crawl(corpus.size(), options, [](instrument::VisitLog&&) {});
  Error error;
  EXPECT_TRUE(writer.finish(&error)) << error.to_string();
  return out.str();
}

std::filesystem::path temp_path(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

// ---- primitives ----------------------------------------------------------

TEST(CgarPrimitivesTest, VarintRoundTripsEdgeValues) {
  const std::uint64_t values[] = {0,    1,    127,        128,
                                  300,  16383, 16384,     0xFFFFFFFFull,
                                  ~0ull};
  for (const auto value : values) {
    std::string bytes;
    put_varint(bytes, value);
    ByteReader reader(bytes);
    EXPECT_EQ(reader.varint(), value);
    EXPECT_FALSE(reader.failed);
    EXPECT_EQ(reader.remaining(), 0u);
  }
}

TEST(CgarPrimitivesTest, ZigzagRoundTripsSignedValues) {
  const std::int64_t values[] = {0, -1, 1, -2, 63, -64, 1234567890123LL,
                                 -1234567890123LL, INT64_MAX, INT64_MIN};
  for (const auto value : values) {
    std::string bytes;
    put_zigzag(bytes, value);
    ByteReader reader(bytes);
    EXPECT_EQ(reader.zigzag(), value);
    EXPECT_FALSE(reader.failed);
  }
}

TEST(CgarPrimitivesTest, TruncatedAndOverlongVarintsFailCleanly) {
  ByteReader empty(std::string_view{});
  empty.varint();
  EXPECT_TRUE(empty.failed);

  const std::string dangling = "\x80\x80";  // continuation with no terminator
  ByteReader cut(dangling);
  cut.varint();
  EXPECT_TRUE(cut.failed);

  const std::string overlong(11, '\x80');  // > 10 bytes of continuation
  ByteReader huge(overlong);
  huge.varint();
  EXPECT_TRUE(huge.failed);
}

TEST(CgarPrimitivesTest, FixedWidthReadsAreBoundsChecked) {
  std::string bytes;
  put_u32le(bytes, 0xDEADBEEFu);
  put_u64le(bytes, 0x0123456789ABCDEFull);
  ByteReader reader(bytes);
  EXPECT_EQ(reader.u32le(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64le(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.remaining(), 0u);
  reader.u32le();
  EXPECT_TRUE(reader.failed);
}

TEST(CgarPrimitivesTest, BlockFramingRoundTripsAndCatchesFlips) {
  const std::string block = encode_block(BlockType::kSite, "payload bytes");
  Error error;
  const auto frame = decode_block(block, 0, &error);
  ASSERT_TRUE(frame.has_value()) << error.to_string();
  EXPECT_EQ(frame->type, BlockType::kSite);
  EXPECT_EQ(frame->payload, "payload bytes");
  EXPECT_EQ(frame->total_size, block.size());

  for (std::size_t i = 0; i < block.size(); ++i) {
    std::string bad = block;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    Error flip_error;
    const auto bad_frame = decode_block(bad, 0, &flip_error);
    if (bad_frame.has_value()) {
      // The only survivable flips are in the frame header and must not
      // reframe to a valid block; a surviving decode would be a CRC miss.
      ADD_FAILURE() << "bit flip at byte " << i << " went undetected";
    } else {
      EXPECT_NE(flip_error.code, fault::ArchiveFault::kNone);
    }
  }
}

// ---- record codec --------------------------------------------------------

TEST(RecordCodecTest, DenseLogRoundTripsExactly) {
  const instrument::VisitLog log = dense_log();
  const std::string payload = encode_site_payload(log);
  Error error;
  const auto decoded = decode_site_payload(payload, &error);
  ASSERT_TRUE(decoded.has_value()) << error.to_string();

  EXPECT_EQ(decoded->site_host, log.site_host);
  EXPECT_EQ(decoded->site, log.site);
  EXPECT_EQ(decoded->rank, log.rank);
  EXPECT_EQ(decoded->pages_visited, log.pages_visited);
  EXPECT_EQ(decoded->has_cookie_logs, log.has_cookie_logs);
  EXPECT_EQ(decoded->has_request_logs, log.has_request_logs);
  EXPECT_EQ(decoded->failure, log.failure);
  EXPECT_EQ(decoded->attempts, log.attempts);
  EXPECT_EQ(decoded->landing_timings.dom_interactive,
            log.landing_timings.dom_interactive);
  EXPECT_EQ(decoded->landing_timings.load_event,
            log.landing_timings.load_event);
  ASSERT_EQ(decoded->script_sets.size(), log.script_sets.size());
  EXPECT_EQ(decoded->script_sets[1].new_expires, -1);
  EXPECT_EQ(decoded->script_sets[0].change_type,
            cookies::CookieChange::Type::kOverwritten);
  ASSERT_EQ(decoded->includes.size(), 2u);
  EXPECT_TRUE(decoded->includes[1].is_inline);

  // Re-encoding the decode reproduces the bytes — the codec is a bijection
  // on its image, so field-by-field spot checks above generalize.
  EXPECT_EQ(encode_site_payload(*decoded), payload);
  EXPECT_EQ(peek_site_rank(payload), 42);
}

TEST(RecordCodecTest, EmptyLogRoundTrips) {
  instrument::VisitLog log;
  log.site_host = "www.empty.example";
  log.site = "empty.example";
  log.rank = 0;
  const std::string payload = encode_site_payload(log);
  Error error;
  const auto decoded = decode_site_payload(payload, &error);
  ASSERT_TRUE(decoded.has_value()) << error.to_string();
  EXPECT_EQ(encode_site_payload(*decoded), payload);
  EXPECT_TRUE(decoded->script_sets.empty());
  EXPECT_FALSE(decoded->complete());
}

TEST(RecordCodecTest, OutOfRangeEnumIsCorruptNotUb) {
  const instrument::VisitLog log = dense_log();
  std::string payload = encode_site_payload(log);
  // Walk the payload flipping each byte to 0xFF; decodes must either fail
  // with a taxonomy code or produce in-range enums — never garbage values.
  int rejected = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    std::string bad = payload;
    bad[i] = '\xFF';
    Error error;
    const auto decoded = decode_site_payload(bad, &error);
    if (!decoded.has_value()) {
      ++rejected;
      EXPECT_EQ(error.code, fault::ArchiveFault::kCorruptBlock);
    } else {
      for (const auto& record : decoded->script_sets) {
        EXPECT_LT(static_cast<int>(record.category), 11);
        EXPECT_LT(static_cast<int>(record.api), 3);
      }
    }
  }
  EXPECT_GT(rejected, 0);
}

// ---- writer/reader round trip -------------------------------------------

TEST(StoreRoundTripTest, CrawlArchiveReplaysEveryLogExactly) {
  corpus::Corpus corpus(small_params(60));
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;

  std::vector<std::string> live_payloads;
  std::ostringstream out;
  WriterOptions writer_options;
  writer_options.corpus_seed = corpus.params().seed;
  writer_options.fault_seed = 7;
  Writer writer(&out, writer_options);
  options.archive = &writer;
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    live_payloads.push_back(encode_site_payload(log));
  });
  Error error;
  ASSERT_TRUE(writer.finish(&error)) << error.to_string();
  EXPECT_EQ(writer.sites_written(), corpus.size());

  const auto reader = Reader::from_buffer(out.str(), &error);
  ASSERT_TRUE(reader.has_value()) << error.to_string();
  EXPECT_EQ(reader->site_count(), corpus.size());
  EXPECT_EQ(reader->corpus_seed(), corpus.params().seed);
  EXPECT_EQ(reader->fault_seed(), 7u);
  EXPECT_EQ(reader->schema_version(), instrument::kVisitLogSchemaVersion);

  std::size_t i = 0;
  ASSERT_TRUE(reader->for_each(
      [&](instrument::VisitLog&& log) {
        ASSERT_LT(i, live_payloads.size());
        EXPECT_EQ(encode_site_payload(log), live_payloads[i]) << "site " << i;
        ++i;
      },
      &error))
      << error.to_string();
  EXPECT_EQ(i, live_payloads.size());
}

TEST(StoreRoundTripTest, RandomAccessByRank) {
  corpus::Corpus corpus(small_params(30));
  const std::string archive = pack_to_string(corpus, 1);
  Error error;
  const auto reader = Reader::from_buffer(archive, &error);
  ASSERT_TRUE(reader.has_value()) << error.to_string();

  // Site ranks are 1-based: corpus index i carries rank i + 1.
  const auto log = reader->visit(17, &error);
  ASSERT_TRUE(log.has_value()) << error.to_string();
  EXPECT_EQ(log->rank, 17);
  EXPECT_EQ(log->site_host, corpus.site(16).host);

  // Absent rank: empty optional, but *not* a corruption class.
  const auto missing = reader->visit(12345, &error);
  EXPECT_FALSE(missing.has_value());
  EXPECT_EQ(error.code, fault::ArchiveFault::kNone);

  const auto stats = reader->verify(&error);
  ASSERT_TRUE(stats.has_value()) << error.to_string();
  EXPECT_EQ(stats->sites, 30);
  EXPECT_EQ(stats->file_bytes, archive.size());
  EXPECT_GT(stats->record_count, 0u);
}

TEST(StoreDeterminismTest, ArchiveIsByteIdenticalAtAnyThreadCount) {
  corpus::Corpus corpus(small_params(80));
  const std::string one = pack_to_string(corpus, 1);
  const std::string two = pack_to_string(corpus, 2);
  const std::string four = pack_to_string(corpus, 4);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(StoreDeterminismTest, AnalysisFromArchiveMatchesLiveCrawl) {
  corpus::Corpus corpus(small_params(80));

  analysis::Analyzer live(corpus.entities());
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    live.ingest(log);
  });

  const std::string archive = pack_to_string(corpus, 2);
  Error error;
  const auto reader = Reader::from_buffer(archive, &error);
  ASSERT_TRUE(reader.has_value()) << error.to_string();
  analysis::Analyzer replayed(corpus.entities());
  ASSERT_TRUE(analysis::analyze_archive(*reader, replayed, &error))
      << error.to_string();

  // Table 1 inputs: every aggregate the report layer derives must agree.
  EXPECT_EQ(report::summary_to_json(live, 50).dump(),
            report::summary_to_json(replayed, 50).dump());
  EXPECT_EQ(live.totals().sites_complete, replayed.totals().sites_complete);
  EXPECT_EQ(live.totals().sites_doc_exfil, replayed.totals().sites_doc_exfil);
  EXPECT_EQ(live.totals().sites_doc_overwrite,
            replayed.totals().sites_doc_overwrite);
  EXPECT_EQ(live.totals().sites_doc_delete,
            replayed.totals().sites_doc_delete);
  EXPECT_EQ(live.pair_count(cookies::CookieSource::kDocumentCookie),
            replayed.pair_count(cookies::CookieSource::kDocumentCookie));
  EXPECT_EQ(
      live.exfiltrated_pair_count(cookies::CookieSource::kDocumentCookie),
      replayed.exfiltrated_pair_count(cookies::CookieSource::kDocumentCookie));
}

// ---- parallel archive fold -----------------------------------------------

/// The single-threaded reference every parallel fold must reproduce byte
/// for byte: for_each, fold_visit, merge, in rank order.
std::string sequential_fold_json(const Reader& reader,
                                 const entities::EntityMap& entities) {
  analysis::SiteSummary summary;
  Error error;
  EXPECT_TRUE(reader.for_each(
      [&](instrument::VisitLog&& log) {
        summary.merge(analysis::fold_visit(entities, {}, log));
      },
      &error))
      << error.to_string();
  analysis::Analyzer analyzer(entities);
  analyzer.apply(std::move(summary));
  return report::summary_to_json(analyzer, 50).dump();
}

std::string summary_json(analysis::SiteSummary summary,
                         const entities::EntityMap& entities) {
  analysis::Analyzer analyzer(entities);
  analyzer.apply(std::move(summary));
  return report::summary_to_json(analyzer, 50).dump();
}

TEST(StoreDeterminismTest, ParallelFoldMatchesSequentialReference) {
  corpus::Corpus corpus(small_params(80));
  const std::string archive = pack_to_string(corpus, 2);
  Error error;
  const auto reader = Reader::from_buffer(archive, &error);
  ASSERT_TRUE(reader.has_value()) << error.to_string();
  const std::string reference =
      sequential_fold_json(*reader, corpus.entities());

  analysis::Analyzer analyzer(corpus.entities());
  ASSERT_TRUE(analysis::analyze_archive(*reader, analyzer, &error))
      << error.to_string();
  EXPECT_EQ(report::summary_to_json(analyzer, 50).dump(), reference);

  const auto folded =
      analysis::fold_archive(*reader, corpus.entities(), {}, &error);
  ASSERT_TRUE(folded.has_value()) << error.to_string();
  EXPECT_EQ(summary_json(*folded, corpus.entities()), reference);
}

TEST(StoreDeterminismTest, ParallelFoldReportsTheEarliestCorruptBlock) {
  corpus::Corpus corpus(small_params(80));
  const std::string archive = pack_to_string(corpus, 2);
  Error error;
  const auto clean = Reader::from_buffer(archive, &error);
  ASSERT_TRUE(clean.has_value()) << error.to_string();
  const auto flip_block = [&](std::string& bytes, int rank) {
    for (const IndexEntry& entry : clean->index()) {
      if (entry.rank != rank) continue;
      bytes[entry.offset + entry.length / 2] ^= 0x10;
      return;
    }
    ADD_FAILURE() << "rank " << rank << " not in the archive";
  };

  // Both corrupt blocks in one shard block (7, 3), then in different ones
  // (41, 12): the error is always the lower rank's.
  for (const auto& [later, earlier] : {std::pair{7, 3}, std::pair{41, 12}}) {
    std::string bytes = archive;
    flip_block(bytes, later);
    flip_block(bytes, earlier);
    // Blocks are CRC-checked on access, so the envelope still opens.
    const auto reader = Reader::from_buffer(bytes, &error);
    ASSERT_TRUE(reader.has_value()) << error.to_string();

    Error sequential;
    EXPECT_FALSE(reader->for_each([](instrument::VisitLog&&) {}, &sequential));
    Error at_earlier;
    EXPECT_FALSE(reader->visit(earlier, &at_earlier).has_value());
    ASSERT_NE(sequential.code, fault::ArchiveFault::kNone);
    EXPECT_EQ(sequential.code, at_earlier.code);
    EXPECT_EQ(sequential.detail, at_earlier.detail);

    for (int run = 0; run < 10; ++run) {
      analysis::Analyzer analyzer(corpus.entities());
      Error parallel;
      EXPECT_FALSE(analysis::analyze_archive(*reader, analyzer, &parallel));
      EXPECT_EQ(parallel.code, sequential.code) << "run " << run;
      EXPECT_EQ(parallel.detail, sequential.detail) << "run " << run;

      Error folded;
      EXPECT_FALSE(
          analysis::fold_archive(*reader, corpus.entities(), {}, &folded)
              .has_value());
      EXPECT_EQ(folded.code, sequential.code) << "run " << run;
      EXPECT_EQ(folded.detail, sequential.detail) << "run " << run;
    }
  }
}

TEST(StoreDeterminismTest, EmptyFullArchiveFoldsToAnEmptySummary) {
  std::ostringstream out;
  Writer writer(&out, WriterOptions{});
  Error error;
  ASSERT_TRUE(writer.finish(&error)) << error.to_string();
  const auto reader = Reader::from_buffer(out.str(), &error);
  ASSERT_TRUE(reader.has_value()) << error.to_string();
  ASSERT_EQ(reader->site_count(), 0);

  const auto& entities = entities::EntityMap::builtin();
  const analysis::Analyzer empty(entities);
  const auto folded = analysis::fold_archive(*reader, entities, {}, &error);
  ASSERT_TRUE(folded.has_value()) << error.to_string();
  EXPECT_TRUE(error.ok());
  EXPECT_EQ(folded->totals.sites_crawled, 0);
  EXPECT_TRUE(folded->pairs.empty());
  EXPECT_EQ(summary_json(*folded, entities),
            report::summary_to_json(empty, 50).dump());

  analysis::Analyzer analyzer(entities);
  EXPECT_TRUE(analysis::analyze_archive(*reader, analyzer, &error));
  EXPECT_EQ(report::summary_to_json(analyzer, 50).dump(),
            report::summary_to_json(empty, 50).dump());
}

// ---- envelope rejection --------------------------------------------------

TEST(StoreRejectionTest, MixedAndFutureVersionsAreRejected) {
  corpus::Corpus corpus(small_params(10));
  const std::string archive = pack_to_string(corpus, 1);
  Error error;

  // Future header version: a v2 file must not decode as v1.
  std::string future = archive;
  future[8] = 2;
  EXPECT_FALSE(Reader::from_buffer(future, &error).has_value());
  EXPECT_EQ(error.code, fault::ArchiveFault::kVersionMismatch);

  // Flipping the footer's own version byte breaks its CRC first — the
  // checksum is the outer line of defense.
  ASSERT_TRUE(Reader::from_buffer(archive, &error).has_value());
  const std::uint64_t footer_offset = [&] {
    ByteReader trailer(std::string_view(archive).substr(
        archive.size() - kTrailerSize, 8));
    return trailer.u64le();
  }();
  {
    std::string flipped = archive;
    // Footer payload starts after type byte + len varint + crc32; its first
    // byte is the format version. Locate it via decode_block on the intact
    // file: payload aliases the buffer, so the offset is recoverable.
    Error frame_error;
    const auto frame =
        decode_block(archive, footer_offset, &frame_error);
    ASSERT_TRUE(frame.has_value()) << frame_error.to_string();
    const std::size_t version_pos =
        static_cast<std::size_t>(frame->payload.data() - archive.data());
    EXPECT_EQ(archive[version_pos], 1);
    flipped[version_pos] = 2;
    EXPECT_FALSE(Reader::from_buffer(flipped, &error).has_value());
    EXPECT_EQ(error.code, fault::ArchiveFault::kChecksumMismatch);
  }

  // A *consistently* re-framed v2 footer (valid CRC) against a v1 header is
  // the mixed-version splice the footer's version copy exists to catch.
  {
    Error frame_error;
    const auto frame =
        decode_block(archive, footer_offset, &frame_error);
    ASSERT_TRUE(frame.has_value()) << frame_error.to_string();
    std::string payload(frame->payload);
    payload[0] = 2;  // footer claims v2
    std::string spliced = archive.substr(0, footer_offset);
    spliced += encode_block(BlockType::kFooter, payload);
    spliced += encode_trailer(footer_offset);
    EXPECT_FALSE(Reader::from_buffer(spliced, &error).has_value());
    EXPECT_EQ(error.code, fault::ArchiveFault::kVersionMismatch);
  }

  // Future record schema: footer with schema_version + 1, honestly framed.
  {
    const auto intact = Reader::from_buffer(archive, &error);
    ASSERT_TRUE(intact.has_value());
    FooterInfo info;
    info.schema_version = instrument::kVisitLogSchemaVersion + 1;
    info.corpus_seed = intact->corpus_seed();
    info.fault_seed = intact->fault_seed();
    std::string spliced = archive.substr(0, footer_offset);
    spliced += encode_block(BlockType::kFooter,
                            encode_footer_payload(info, intact->index()));
    spliced += encode_trailer(footer_offset);
    EXPECT_FALSE(Reader::from_buffer(spliced, &error).has_value());
    EXPECT_EQ(error.code, fault::ArchiveFault::kSchemaMismatch);
  }
}

TEST(StoreRejectionTest, EveryTruncationIsRejectedWithoutCrashing) {
  corpus::Corpus corpus(small_params(6));
  const std::string archive = pack_to_string(corpus, 1);
  for (std::size_t len = 0; len < archive.size(); ++len) {
    Error error;
    EXPECT_FALSE(Reader::from_buffer(archive.substr(0, len), &error)
                     .has_value())
        << "prefix of " << len << " bytes accepted";
    EXPECT_NE(error.code, fault::ArchiveFault::kNone) << "len=" << len;
  }
}

TEST(StoreRejectionTest, DuplicatedBlockCannotAgreeWithAnyFooter) {
  corpus::Corpus corpus(small_params(5));
  const std::string archive = pack_to_string(corpus, 1);
  Error error;
  const auto reader = Reader::from_buffer(archive, &error);
  ASSERT_TRUE(reader.has_value());
  const auto& index = reader->index();
  ASSERT_GE(index.size(), 2u);

  // Duplicate site block 1 in place (file grows; footer untouched).
  const auto& entry = index[1];
  std::string dup = archive;
  dup.insert(static_cast<std::size_t>(entry.offset + entry.length),
             archive.substr(static_cast<std::size_t>(entry.offset),
                            static_cast<std::size_t>(entry.length)));
  EXPECT_FALSE(Reader::from_buffer(dup, &error).has_value());
  EXPECT_NE(error.code, fault::ArchiveFault::kNone);
}

// ---- delta archives ------------------------------------------------------

/// Three synthetic wave-0 logs (ranks 1..3); wave 1 keeps rank 1
/// byte-identical, drifts rank 2 slightly, and rewrites rank 3 heavily.
std::vector<instrument::VisitLog> wave0_logs() {
  std::vector<instrument::VisitLog> logs;
  for (int rank = 1; rank <= 3; ++rank) {
    instrument::VisitLog log = dense_log();
    log.rank = rank;
    log.site_host = "www.site" + std::to_string(rank) + ".com";
    log.site = "site" + std::to_string(rank) + ".com";
    logs.push_back(std::move(log));
  }
  return logs;
}

std::vector<instrument::VisitLog> wave1_logs() {
  auto logs = wave0_logs();
  logs[1].script_sets[0].value = "GA1.2.999.999";  // small drift
  logs[2].requests.clear();                        // heavy rewrite
  logs[2].reads.clear();
  logs[2].includes.clear();
  return logs;
}

std::string pack_full(const std::vector<instrument::VisitLog>& logs,
                      WriterOptions options = {}) {
  std::ostringstream out;
  Writer writer(&out, options);
  for (const auto& log : logs) writer.add(log);
  Error error;
  EXPECT_TRUE(writer.finish(&error)) << error.to_string();
  return out.str();
}

/// WriterOptions for the next delta wave, with BaseProvenance copied from
/// the chain tail — what `cgsim pack --base` records.
WriterOptions delta_options_for(const Reader& tail, std::uint32_t wave) {
  WriterOptions options;
  options.corpus_seed = tail.corpus_seed();
  options.fault_seed = tail.fault_seed();
  options.kind = ArchiveKind::kDelta;
  options.wave = wave;
  options.evolution_seed = tail.evolution_seed();
  options.base.corpus_seed = tail.corpus_seed();
  options.base.fault_seed = tail.fault_seed();
  options.base.evolution_seed = tail.evolution_seed();
  options.base.policy = tail.policy();
  options.base.wave = tail.wave();
  options.base.site_count =
      static_cast<std::uint32_t>(tail.total_site_count());
  options.base.footer_crc = tail.footer_crc();
  return options;
}

std::string pack_delta(const Reader& base,
                       const std::vector<instrument::VisitLog>& logs,
                       std::uint32_t wave) {
  std::ostringstream out;
  Writer writer(&out, delta_options_for(base, wave));
  for (const auto& log : logs) {
    Error error;
    auto block = encode_wave_block(base, log, &error);
    EXPECT_TRUE(block.has_value()) << error.to_string();
    if (!block) continue;
    if (block->kind == WaveBlock::Kind::kInherited) {
      writer.add_inherited(log.rank);
    } else {
      writer.append_delta_block(log.rank, std::move(block->block));
    }
  }
  Error error;
  EXPECT_TRUE(writer.finish(&error)) << error.to_string();
  return out.str();
}

TEST(DeltaCodecTest, DiffAppliesBackToTargetAndPinsItsBase) {
  const std::string base = encode_site_payload(wave0_logs()[1]);
  const std::string target = encode_site_payload(wave1_logs()[1]);
  const std::string delta = encode_delta_payload(2, base, target);
  EXPECT_LT(delta.size(), target.size());  // a drifted site compresses
  Error error;
  EXPECT_TRUE(validate_delta_payload(delta, &error)) << error.to_string();
  const auto applied = apply_delta_payload(delta, base, &error);
  ASSERT_TRUE(applied.has_value()) << error.to_string();
  EXPECT_EQ(*applied, target);

  // The recorded CRC pins the exact base bytes the ops were computed
  // against: any other base is a splice, kBaseMismatch.
  std::string other = base;
  other[other.size() / 2] = static_cast<char>(other[other.size() / 2] ^ 0x20);
  EXPECT_FALSE(apply_delta_payload(delta, other, &error).has_value());
  EXPECT_EQ(error.code, fault::ArchiveFault::kBaseMismatch);
}

TEST(DeltaCodecTest, RawModeIsSelfContained) {
  const std::string target = encode_site_payload(wave1_logs()[2]);
  const std::string raw = encode_raw_delta_payload(3, target);
  Error error;
  // Raw deltas apply against no base at all.
  const auto applied =
      apply_delta_payload(raw, std::string_view{}, &error);
  ASSERT_TRUE(applied.has_value()) << error.to_string();
  EXPECT_EQ(*applied, target);
}

TEST(DeltaCodecTest, MutatedDeltasNeverCrashTheDecoder) {
  const std::string base = encode_site_payload(wave0_logs()[1]);
  const std::string target = encode_site_payload(wave1_logs()[1]);
  const std::string delta = encode_delta_payload(2, base, target);
  script::Rng rng(0xDE17A);
  for (int i = 0; i < 4000; ++i) {
    std::string bad = delta;
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
      bad[rng.below(bad.size())] =
          static_cast<char>(rng.below(256));
    }
    Error error;
    const auto applied = apply_delta_payload(bad, base, &error);
    if (bad == delta) {
      EXPECT_TRUE(applied.has_value());
    } else if (!applied.has_value()) {
      EXPECT_NE(error.code, fault::ArchiveFault::kNone);
    }
    validate_delta_payload(bad);  // must not crash either
  }
}

TEST(WaveChainTest, ChainMaterializesEveryWaveExactly) {
  WriterOptions w0_options;
  w0_options.corpus_seed = 7;
  const std::string w0 = pack_full(wave0_logs(), w0_options);
  Error error;
  const auto base = Reader::from_buffer(w0, &error);
  ASSERT_TRUE(base.has_value()) << error.to_string();
  const std::string w1 = pack_delta(*base, wave1_logs(), 1);
  const auto delta = Reader::from_buffer(w1, &error);
  ASSERT_TRUE(delta.has_value()) << error.to_string();
  EXPECT_EQ(delta->kind(), ArchiveKind::kDelta);
  EXPECT_EQ(delta->wave(), 1u);
  EXPECT_EQ(delta->inherited_ranks(), (std::vector<int>{1}));
  EXPECT_EQ(delta->site_count(), 2);        // physical blocks
  EXPECT_EQ(delta->total_site_count(), 3);  // + inherited
  EXPECT_LT(w1.size(), w0.size());

  const auto chain = WaveChain::link({&*base, &*delta}, &error);
  ASSERT_TRUE(chain.has_value()) << error.to_string();
  ASSERT_EQ(chain->waves(), 2);
  const auto expect_wave =
      [&](int wave, const std::vector<instrument::VisitLog>& logs) {
        for (const auto& log : logs) {
          Error wave_error;
          const auto payload =
              chain->payload_at(log.rank, wave, &wave_error);
          ASSERT_TRUE(payload.has_value()) << wave_error.to_string();
          EXPECT_EQ(*payload, encode_site_payload(log))
              << "wave " << wave << " rank " << log.rank;
        }
      };
  expect_wave(0, wave0_logs());
  expect_wave(1, wave1_logs());

  // Streaming a wave visits every logical rank in order — blocks and
  // inherited alike.
  std::vector<int> ranks;
  EXPECT_TRUE(chain->for_each(
      1, [&](instrument::VisitLog&& log) { ranks.push_back(log.rank); },
      &error))
      << error.to_string();
  EXPECT_EQ(ranks, (std::vector<int>{1, 2, 3}));
}

TEST(WaveChainTest, DeltaVisitsRequireTheChain) {
  const std::string w0 = pack_full(wave0_logs());
  Error error;
  const auto base = Reader::from_buffer(w0, &error);
  ASSERT_TRUE(base.has_value());
  const std::string w1 = pack_delta(*base, wave1_logs(), 1);
  const auto delta = Reader::from_buffer(w1, &error);
  ASSERT_TRUE(delta.has_value());

  // Direct visits on a delta archive cannot materialize records.
  EXPECT_FALSE(delta->visit(2, &error).has_value());
  EXPECT_EQ(error.code, fault::ArchiveFault::kDeltaUnresolved);
  EXPECT_FALSE(delta->for_each([](instrument::VisitLog&&) {}, &error));
  EXPECT_EQ(error.code, fault::ArchiveFault::kDeltaUnresolved);

  // A chain that does not start with a full archive is unresolvable.
  EXPECT_FALSE(WaveChain::link({&*delta}, &error).has_value());
  EXPECT_EQ(error.code, fault::ArchiveFault::kDeltaUnresolved);

  // verify() still CRC-walks the delta structurally.
  const auto stats = delta->verify(&error);
  ASSERT_TRUE(stats.has_value()) << error.to_string();
  EXPECT_EQ(stats->sites, 3);  // blocks + inherited
}

TEST(WaveChainTest, ArchiveFoldsRejectDeltasEvenWithoutBlocks) {
  const std::string w0 = pack_full(wave0_logs());
  Error error;
  const auto base = Reader::from_buffer(w0, &error);
  ASSERT_TRUE(base.has_value());
  const auto delta = Reader::from_buffer(pack_delta(*base, wave1_logs(), 1));
  ASSERT_TRUE(delta.has_value());
  // An unchanged wave inherits every rank: a delta with zero blocks.
  const auto blockless =
      Reader::from_buffer(pack_delta(*base, wave0_logs(), 1));
  ASSERT_TRUE(blockless.has_value());
  ASSERT_EQ(blockless->site_count(), 0);
  ASSERT_EQ(blockless->total_site_count(), 3);

  const auto& entities = entities::EntityMap::builtin();
  for (const Reader* reader : {&*delta, &*blockless}) {
    analysis::Analyzer analyzer(entities);
    error = {};
    EXPECT_FALSE(analysis::analyze_archive(*reader, analyzer, &error));
    EXPECT_EQ(error.code, fault::ArchiveFault::kDeltaUnresolved);
    EXPECT_EQ(analyzer.totals().sites_crawled, 0);
    error = {};
    EXPECT_FALSE(
        analysis::fold_archive(*reader, entities, {}, &error).has_value());
    EXPECT_EQ(error.code, fault::ArchiveFault::kDeltaUnresolved);
  }
}

TEST(WaveChainTest, SplicedAndRepackedBasesAreRejected) {
  WriterOptions w0_options;
  w0_options.corpus_seed = 7;
  const std::string w0 = pack_full(wave0_logs(), w0_options);
  Error error;
  const auto base = Reader::from_buffer(w0, &error);
  ASSERT_TRUE(base.has_value());
  const std::string w1 = pack_delta(*base, wave1_logs(), 1);
  const auto delta = Reader::from_buffer(w1, &error);
  ASSERT_TRUE(delta.has_value());

  // Same logs, different corpus seed: provenance disagrees.
  WriterOptions other_options;
  other_options.corpus_seed = 8;
  const std::string other = pack_full(wave0_logs(), other_options);
  const auto other_base = Reader::from_buffer(other, &error);
  ASSERT_TRUE(other_base.has_value());
  EXPECT_FALSE(WaveChain::link({&*other_base, &*delta}, &error).has_value());
  EXPECT_EQ(error.code, fault::ArchiveFault::kBaseMismatch);

  // Same provenance fields but re-packed content: the base footer CRC
  // disagrees, so the splice is caught before any record decodes.
  const std::string repacked = pack_full(wave1_logs(), w0_options);
  const auto repacked_base = Reader::from_buffer(repacked, &error);
  ASSERT_TRUE(repacked_base.has_value());
  EXPECT_FALSE(
      WaveChain::link({&*repacked_base, &*delta}, &error).has_value());
  EXPECT_EQ(error.code, fault::ArchiveFault::kBaseMismatch);
}

TEST(StoreRejectionTest, LegacyFooterWithoutExtensionDecodesAsDefaults) {
  const std::string archive = pack_full(wave0_logs());
  Error error;
  const auto reader = Reader::from_buffer(archive, &error);
  ASSERT_TRUE(reader.has_value());
  const std::uint64_t footer_offset = [&] {
    ByteReader trailer(std::string_view(archive).substr(
        archive.size() - kTrailerSize, 8));
    return trailer.u64le();
  }();

  // Re-encode the footer the way a pre-extension writer did: version,
  // schema, seeds, index — and nothing after the index.
  std::string legacy;
  legacy.push_back(static_cast<char>(kFormatVersion));
  put_varint(legacy, reader->schema_version());
  put_varint(legacy, reader->corpus_seed());
  put_varint(legacy, reader->fault_seed());
  put_varint(legacy, reader->index().size());
  std::uint64_t prev_rank = 0;
  std::uint64_t prev_offset = 0;
  bool first = true;
  for (const IndexEntry& entry : reader->index()) {
    const auto rank = static_cast<std::uint64_t>(entry.rank);
    put_varint(legacy, first ? rank : rank - prev_rank);
    put_varint(legacy, first ? entry.offset : entry.offset - prev_offset);
    put_varint(legacy, entry.length);
    prev_rank = rank;
    prev_offset = entry.offset;
    first = false;
  }
  std::string spliced = archive.substr(0, footer_offset);
  spliced += encode_block(BlockType::kFooter, legacy);
  spliced += encode_trailer(footer_offset);

  const auto legacy_reader = Reader::from_buffer(spliced, &error);
  ASSERT_TRUE(legacy_reader.has_value()) << error.to_string();
  EXPECT_EQ(legacy_reader->policy(), ArchivePolicy::kNone);
  EXPECT_EQ(legacy_reader->kind(), ArchiveKind::kFull);
  EXPECT_EQ(legacy_reader->wave(), 0u);
  EXPECT_EQ(legacy_reader->evolution_seed(), 0u);
  EXPECT_TRUE(legacy_reader->visit(2, &error).has_value())
      << error.to_string();

  // An unknown extension version, by contrast, is a hard version error.
  std::string future = legacy;
  put_varint(future, kFooterExtensionVersion + 1);
  std::string future_spliced = archive.substr(0, footer_offset);
  future_spliced += encode_block(BlockType::kFooter, future);
  future_spliced += encode_trailer(footer_offset);
  EXPECT_FALSE(Reader::from_buffer(future_spliced, &error).has_value());
  EXPECT_EQ(error.code, fault::ArchiveFault::kVersionMismatch);
}

TEST(StoreRejectionTest, WriterRefusesOutOfOrderRanks) {
  std::ostringstream out;
  Writer writer(&out, {});
  instrument::VisitLog log = dense_log();
  log.rank = 5;
  writer.add(log);
  log.rank = 3;  // violates strictly-increasing rank order
  writer.add(log);
  Error error;
  EXPECT_FALSE(writer.finish(&error));
  EXPECT_EQ(error.code, fault::ArchiveFault::kDuplicateSite);
}

// ---- checkpoint resume ---------------------------------------------------

TEST(StoreResumeTest, ResumedArchiveIsByteIdenticalToUninterruptedRun) {
  corpus::Corpus corpus(small_params(60));
  crawler::Crawler crawler(corpus);
  WriterOptions writer_options;
  writer_options.corpus_seed = corpus.params().seed;
  {
    crawler::CrawlOptions probe;
    const fault::FaultPlan plan = crawler.plan_for(probe);
    writer_options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  }

  // Uninterrupted reference run, checkpointing along the way.
  const auto full_path = temp_path("cgar_full.cgar");
  std::vector<std::string> checkpoints;
  {
    Error error;
    auto writer = Writer::create(full_path.string(), writer_options, &error);
    ASSERT_NE(writer, nullptr) << error.to_string();
    crawler::CrawlOptions options;
    options.archive = writer.get();
    options.checkpoint_interval = 20;
    options.on_checkpoint = [&](const crawler::CrawlCheckpoint& checkpoint) {
      checkpoints.push_back(checkpoint.to_json_string());
    };
    crawler.crawl(corpus.size(), options, [](instrument::VisitLog&&) {});
    ASSERT_TRUE(writer->finish(&error)) << error.to_string();
  }
  std::ifstream full_in(full_path, std::ios::binary);
  const std::string full_bytes((std::istreambuf_iterator<char>(full_in)),
                               std::istreambuf_iterator<char>());
  ASSERT_GE(checkpoints.size(), 2u);

  // "Crash" after the first checkpoint: reconstruct the partial file as the
  // checkpointed prefix plus a torn half-written block, then resume.
  const auto checkpoint =
      crawler::CrawlCheckpoint::from_json_string(checkpoints[0]);
  ASSERT_TRUE(checkpoint.has_value());
  ASSERT_EQ(checkpoint->next_index, 20);
  ASSERT_EQ(checkpoint->archive_sites, 20);
  ASSERT_GT(checkpoint->archive_bytes, 0);

  const auto partial_path = temp_path("cgar_partial.cgar");
  {
    std::ofstream partial(partial_path, std::ios::binary | std::ios::trunc);
    partial.write(full_bytes.data(), checkpoint->archive_bytes);
    const char torn[] = "\x01\x40half-a-block";  // cut off mid-payload
    partial.write(torn, sizeof(torn) - 1);
  }

  {
    Error error;
    auto writer = Writer::resume(partial_path.string(), writer_options,
                                 checkpoint->archive_sites, &error);
    ASSERT_NE(writer, nullptr) << error.to_string();
    EXPECT_EQ(writer->sites_written(), 20);
    EXPECT_EQ(writer->bytes_written(),
              static_cast<std::uint64_t>(checkpoint->archive_bytes));
    crawler::CrawlOptions options;
    options.archive = writer.get();
    crawler.resume(*checkpoint, options, [](instrument::VisitLog&&) {});
    ASSERT_TRUE(writer->finish(&error)) << error.to_string();
  }
  std::ifstream partial_in(partial_path, std::ios::binary);
  const std::string resumed_bytes(
      (std::istreambuf_iterator<char>(partial_in)),
      std::istreambuf_iterator<char>());
  EXPECT_EQ(resumed_bytes, full_bytes);

  // Resume beyond what survived on disk must fail as truncation.
  {
    std::ofstream partial(partial_path, std::ios::binary | std::ios::trunc);
    partial.write(full_bytes.data(), checkpoint->archive_bytes / 2);
  }
  Error error;
  EXPECT_EQ(Writer::resume(partial_path.string(), writer_options,
                           checkpoint->archive_sites, &error),
            nullptr);
  EXPECT_EQ(error.code, fault::ArchiveFault::kTruncated);

  std::filesystem::remove(full_path);
  std::filesystem::remove(partial_path);
}

}  // namespace
}  // namespace cg::store
