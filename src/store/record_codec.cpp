#include "store/record_codec.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "crypto/crc32c.h"

namespace cg::store {
namespace {

using instrument::VisitLog;

/// Block-local string interner. Table order is first-use order — a pure
/// function of the record stream, which the determinism guarantee rests on.
/// Keys are views into the VisitLog being encoded, which outlives the
/// table. An open-addressing slot vector (linear probing, power-of-two
/// size, at most half full) maps each distinct string to its index in
/// strings_; the hash only finds a slot and never reaches the output.
class StringTable {
 public:
  StringTable() : slots_(kInitialSlots, kEmpty) {}

  std::uint64_t intern(std::string_view s) {
    const std::size_t hash = std::hash<std::string_view>{}(s);
    std::size_t i = hash & (slots_.size() - 1);
    for (; slots_[i] != kEmpty; i = (i + 1) & (slots_.size() - 1)) {
      const std::uint32_t id = slots_[i];
      if (hashes_[id] == hash && strings_[id] == s) return id;
    }
    const auto id = static_cast<std::uint32_t>(strings_.size());
    slots_[i] = id;
    strings_.push_back(s);
    hashes_.push_back(hash);
    encoded_bytes_ += varint_size(s.size()) + s.size();
    if (2 * strings_.size() > slots_.size()) grow();
    return id;
  }

  /// Bytes encode() appends.
  std::size_t encoded_size() const {
    return varint_size(strings_.size()) + encoded_bytes_;
  }

  void encode(std::string& out) const {
    put_varint(out, strings_.size());
    for (const std::string_view s : strings_) {
      put_varint(out, s.size());
      out += s;
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::size_t kInitialSlots = 512;

  static std::size_t varint_size(std::uint64_t v) {
    std::size_t n = 1;
    for (; v >= 0x80; v >>= 7) ++n;
    return n;
  }

  void grow() {
    slots_.assign(2 * slots_.size(), kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t id = 0; id < strings_.size(); ++id) {
      std::size_t i = hashes_[id] & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::vector<std::string_view> strings_;
  std::vector<std::size_t> hashes_;  // parallel to strings_
  std::size_t encoded_bytes_ = 0;
};

/// Packs up to 8 bools into one byte.
std::uint8_t pack_flags(std::initializer_list<bool> flags) {
  std::uint8_t out = 0;
  int bit = 0;
  for (const bool flag : flags) {
    if (flag) out |= static_cast<std::uint8_t>(1u << bit);
    ++bit;
  }
  return out;
}

// ---- body encoding -------------------------------------------------------
// One pass: the body goes into its own buffer while every string is
// interned, and the frozen table is then written ahead of it. A string's id
// is its first use, so the table order matches the body's references.

struct Encoder {
  StringTable& table;
  std::string& out;

  void str(std::string_view s) { put_varint(out, table.intern(s)); }
  void u64(std::uint64_t v) { put_varint(out, v); }
  void i64(std::int64_t v) { put_zigzag(out, v); }
  void byte(std::uint8_t v) { out.push_back(static_cast<char>(v)); }

  void body(const VisitLog& log) {
    str(log.site_host);
    str(log.site);
    byte(pack_flags({log.has_cookie_logs, log.has_request_logs}));
    u64(static_cast<std::uint64_t>(log.failure));
    u64(static_cast<std::uint64_t>(log.attempts));
    u64(static_cast<std::uint64_t>(log.pages_visited));
    i64(log.landing_timings.dom_interactive);
    i64(log.landing_timings.dom_content_loaded);
    i64(log.landing_timings.load_event);

    u64(log.script_sets.size());
    for (const auto& r : log.script_sets) {
      str(r.cookie_name);
      str(r.value);
      str(r.setter_url);
      str(r.setter_domain);
      str(r.true_domain);
      byte(static_cast<std::uint8_t>(r.api));
      byte(static_cast<std::uint8_t>(r.change_type));
      byte(static_cast<std::uint8_t>(r.category));
      byte(static_cast<std::uint8_t>(r.inclusion));
      byte(pack_flags({r.value_changed, r.expires_changed, r.domain_changed,
                       r.path_changed}));
      i64(r.prev_expires);
      i64(r.new_expires);
      i64(r.time);
    }

    u64(log.http_sets.size());
    for (const auto& r : log.http_sets) {
      str(r.cookie_name);
      str(r.value);
      str(r.response_host);
      str(r.setter_domain);
      byte(pack_flags({r.http_only, r.first_party}));
      byte(static_cast<std::uint8_t>(r.change_type));
      i64(r.time);
    }

    u64(log.reads.size());
    for (const auto& r : log.reads) {
      str(r.reader_url);
      str(r.reader_domain);
      byte(static_cast<std::uint8_t>(r.api));
      u64(static_cast<std::uint64_t>(r.cookies_returned));
      i64(r.time);
    }

    u64(log.requests.size());
    for (const auto& r : log.requests) {
      str(r.url);
      str(r.host);
      str(r.dest_domain);
      str(r.initiator_url);
      str(r.initiator_domain);
      byte(static_cast<std::uint8_t>(r.destination));
      i64(r.time);
    }

    u64(log.dom_mods.size());
    for (const auto& r : log.dom_mods) {
      str(r.modifier_domain);
      str(r.target_domain);
    }

    u64(log.includes.size());
    for (const auto& r : log.includes) {
      str(r.script_id);
      str(r.url);
      str(r.domain);
      byte(static_cast<std::uint8_t>(r.category));
      byte(static_cast<std::uint8_t>(r.inclusion));
      byte(pack_flags({r.is_inline}));
    }
  }
};

// ---- body decoding -------------------------------------------------------

struct Decoder {
  ByteReader reader;
  const std::vector<std::string_view>& table;
  bool corrupt = false;

  std::string str() {
    const std::uint64_t id = reader.varint();
    if (reader.failed || id >= table.size()) {
      corrupt = true;
      return {};
    }
    return std::string(table[id]);
  }
  /// A count that must leave at least `min_bytes_each` per element — a
  /// flipped length byte cannot make the decoder allocate gigabytes.
  std::uint64_t count(std::size_t min_bytes_each) {
    const std::uint64_t n = reader.varint();
    if (reader.failed ||
        n > reader.remaining() / (min_bytes_each == 0 ? 1 : min_bytes_each)) {
      corrupt = true;
      return 0;
    }
    return n;
  }
  std::uint8_t byte() {
    const auto view = reader.bytes(1);
    if (reader.failed) {
      corrupt = true;
      return 0;
    }
    return static_cast<std::uint8_t>(view[0]);
  }
  /// Enum decoded with range validation.
  template <typename E>
  E enum_byte(int limit) {
    const std::uint8_t raw = byte();
    if (raw >= limit) corrupt = true;
    return static_cast<E>(raw);
  }
  std::int64_t i64() {
    const std::int64_t v = reader.zigzag();
    if (reader.failed) corrupt = true;
    return v;
  }
  std::uint64_t u64() {
    const std::uint64_t v = reader.varint();
    if (reader.failed) corrupt = true;
    return v;
  }
  bool bad() const { return corrupt || reader.failed; }
};

constexpr int kCookieSourceLimit = 3;   // cookies::CookieSource
constexpr int kChangeTypeLimit = 5;     // cookies::CookieChange::Type
constexpr int kCategoryLimit = 11;      // script::Category
constexpr int kInclusionLimit = 2;      // script::Inclusion
constexpr int kDestinationLimit = 6;    // net::RequestDestination

bool decode_body(Decoder& d, VisitLog& log) {
  log.site_host = d.str();
  log.site = d.str();
  const std::uint8_t flags = d.byte();
  log.has_cookie_logs = (flags & 1) != 0;
  log.has_request_logs = (flags & 2) != 0;
  const std::uint64_t failure = d.u64();
  if (failure >= static_cast<std::uint64_t>(fault::kFailureClassCount)) {
    return false;
  }
  log.failure = static_cast<fault::FailureClass>(failure);
  log.attempts = static_cast<int>(d.u64());
  log.pages_visited = static_cast<int>(d.u64());
  log.landing_timings.dom_interactive = d.i64();
  log.landing_timings.dom_content_loaded = d.i64();
  log.landing_timings.load_event = d.i64();
  if (d.bad()) return false;

  const std::uint64_t script_sets = d.count(13);
  for (std::uint64_t i = 0; i < script_sets && !d.bad(); ++i) {
    instrument::ScriptCookieSetRecord r;
    r.cookie_name = d.str();
    r.value = d.str();
    r.setter_url = d.str();
    r.setter_domain = d.str();
    r.true_domain = d.str();
    r.api = d.enum_byte<cookies::CookieSource>(kCookieSourceLimit);
    r.change_type =
        d.enum_byte<cookies::CookieChange::Type>(kChangeTypeLimit);
    r.category = d.enum_byte<script::Category>(kCategoryLimit);
    r.inclusion = d.enum_byte<script::Inclusion>(kInclusionLimit);
    const std::uint8_t diff = d.byte();
    r.value_changed = (diff & 1) != 0;
    r.expires_changed = (diff & 2) != 0;
    r.domain_changed = (diff & 4) != 0;
    r.path_changed = (diff & 8) != 0;
    r.prev_expires = d.i64();
    r.new_expires = d.i64();
    r.time = d.i64();
    log.script_sets.push_back(std::move(r));
  }

  const std::uint64_t http_sets = d.count(7);
  for (std::uint64_t i = 0; i < http_sets && !d.bad(); ++i) {
    instrument::HttpCookieSetRecord r;
    r.cookie_name = d.str();
    r.value = d.str();
    r.response_host = d.str();
    r.setter_domain = d.str();
    const std::uint8_t flag = d.byte();
    r.http_only = (flag & 1) != 0;
    r.first_party = (flag & 2) != 0;
    r.change_type =
        d.enum_byte<cookies::CookieChange::Type>(kChangeTypeLimit);
    r.time = d.i64();
    log.http_sets.push_back(std::move(r));
  }

  const std::uint64_t reads = d.count(5);
  for (std::uint64_t i = 0; i < reads && !d.bad(); ++i) {
    instrument::CookieReadRecord r;
    r.reader_url = d.str();
    r.reader_domain = d.str();
    r.api = d.enum_byte<cookies::CookieSource>(kCookieSourceLimit);
    r.cookies_returned = static_cast<int>(d.u64());
    r.time = d.i64();
    log.reads.push_back(std::move(r));
  }

  const std::uint64_t requests = d.count(7);
  for (std::uint64_t i = 0; i < requests && !d.bad(); ++i) {
    instrument::RequestRecord r;
    r.url = d.str();
    r.host = d.str();
    r.dest_domain = d.str();
    r.initiator_url = d.str();
    r.initiator_domain = d.str();
    r.destination =
        d.enum_byte<net::RequestDestination>(kDestinationLimit);
    r.time = d.i64();
    log.requests.push_back(std::move(r));
  }

  const std::uint64_t dom_mods = d.count(2);
  for (std::uint64_t i = 0; i < dom_mods && !d.bad(); ++i) {
    instrument::DomModRecord r;
    r.modifier_domain = d.str();
    r.target_domain = d.str();
    log.dom_mods.push_back(std::move(r));
  }

  const std::uint64_t includes = d.count(6);
  for (std::uint64_t i = 0; i < includes && !d.bad(); ++i) {
    instrument::ScriptIncludeRecord r;
    r.script_id = d.str();
    r.url = d.str();
    r.domain = d.str();
    r.category = d.enum_byte<script::Category>(kCategoryLimit);
    r.inclusion = d.enum_byte<script::Inclusion>(kInclusionLimit);
    r.is_inline = (d.byte() & 1) != 0;
    log.includes.push_back(std::move(r));
  }

  // The payload must end exactly where the body does — trailing bytes mean
  // the block length lied.
  return !d.bad() && d.reader.remaining() == 0;
}

}  // namespace

std::string encode_site_payload(const VisitLog& log) {
  StringTable table;
  std::string body;
  Encoder{table, body}.body(log);

  std::string out;
  out.reserve(10 + table.encoded_size() + body.size());
  put_varint(out, static_cast<std::uint64_t>(log.rank));
  table.encode(out);
  out += body;
  return out;
}

std::string encode_site_block(const VisitLog& log) {
  return encode_block(BlockType::kSite, encode_site_payload(log));
}

std::optional<int> peek_site_rank(std::string_view payload) {
  ByteReader reader(payload);
  const std::uint64_t rank = reader.varint();
  if (reader.failed || rank > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(rank);
}

std::optional<instrument::VisitLog> decode_site_payload(
    std::string_view payload, Error* error) {
  const auto fail = [error](std::string detail) -> std::optional<VisitLog> {
    if (error != nullptr) {
      *error = {fault::ArchiveFault::kCorruptBlock, std::move(detail)};
    }
    return std::nullopt;
  };

  ByteReader reader(payload);
  const std::uint64_t rank = reader.varint();
  if (reader.failed || rank > std::numeric_limits<int>::max()) {
    return fail("unreadable site rank");
  }

  // String table. Each entry costs at least one length byte, so the count
  // is capped by the remaining payload size before anything is allocated.
  const std::uint64_t string_count = reader.varint();
  if (reader.failed || string_count > reader.remaining()) {
    return fail("string table count exceeds payload");
  }
  std::vector<std::string_view> table;
  table.reserve(static_cast<std::size_t>(string_count));
  for (std::uint64_t i = 0; i < string_count; ++i) {
    const std::uint64_t len = reader.varint();
    if (reader.failed || len > reader.remaining()) {
      return fail("string table entry overruns payload");
    }
    table.push_back(reader.bytes(static_cast<std::size_t>(len)));
  }

  VisitLog log;
  log.rank = static_cast<int>(rank);
  Decoder decoder{reader, table};
  if (!decode_body(decoder, log)) {
    return fail("record body fails structural decode");
  }
  if (error != nullptr) *error = {};
  return log;
}

}  // namespace cg::store
