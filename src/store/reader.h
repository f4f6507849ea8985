// Validating CGAR reader.
//
// open() verifies the envelope once — header and trailer magic, format
// version, footer CRC, and the full index-consistency argument: every index
// entry must start exactly where the previous block ended, ranks must be
// strictly increasing, and the last block must end at the footer. A
// spliced, duplicated, reordered, or truncated block stream cannot agree
// with any valid footer, so corruption is caught before a single record is
// decoded. Site blocks themselves are CRC-checked lazily, on the access
// that touches them — random access to one site out of 20,000 costs one
// block's decode, not a file scan.
//
// Every rejection carries a fault::ArchiveFault taxonomy class; no input —
// truncated, bit-flipped, or adversarial — crashes the reader (fuzzed in
// tests/fuzz_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "instrument/records.h"
#include "store/byte_sink.h"
#include "store/cgar.h"

namespace cg::store {

class Reader {
 public:
  /// Loads and validates `path`. Empty optional + taxonomy'd error on any
  /// problem with the envelope.
  static std::optional<Reader> open(const std::string& path,
                                    Error* error = nullptr);

  /// Same, over an in-memory archive image (tests, fuzzing).
  static std::optional<Reader> from_buffer(std::string bytes,
                                           Error* error = nullptr);

  /// Same, reading the image through a ByteSource (open() is this over a
  /// FileSource). Read failures surface as Error{kIoError}.
  static std::optional<Reader> from_source(ByteSource& source,
                                           Error* error = nullptr);

  // ---- provenance (footer) ----------------------------------------------
  int site_count() const { return static_cast<int>(index_.size()); }
  std::uint64_t corpus_seed() const { return info_.corpus_seed; }
  std::uint64_t fault_seed() const { return info_.fault_seed; }
  std::uint32_t schema_version() const { return info_.schema_version; }
  std::uint64_t file_size() const { return bytes_.size(); }
  const std::vector<IndexEntry>& index() const { return index_; }

  // ---- longitudinal provenance (footer extension; legacy archives read
  // as policy none / wave 0 / full) ---------------------------------------
  ArchivePolicy policy() const { return info_.policy; }
  ArchiveKind kind() const { return info_.kind; }
  std::uint32_t wave() const { return info_.wave; }
  std::uint64_t evolution_seed() const { return info_.evolution_seed; }
  const BaseProvenance& base() const { return info_.base; }
  /// Delta archives only: ranks whose visit logs are byte-identical to the
  /// base wave's — present in the archive's site set, absent from its
  /// block stream. Sorted ascending, disjoint from index() ranks.
  const std::vector<int>& inherited_ranks() const {
    return info_.inherited_ranks;
  }
  /// Logical site count: blocks plus inherited ranks. Equal to
  /// site_count() for full archives.
  int total_site_count() const {
    return site_count() + static_cast<int>(info_.inherited_ranks.size());
  }
  /// CRC32C of this archive's footer payload — what a delta diffed against
  /// this archive records as BaseProvenance::footer_crc.
  std::uint32_t footer_crc() const { return footer_crc_; }

  /// CRC-checked framed payload of `rank`'s block (a site payload in a
  /// full archive, an edit script in a delta archive). The view aliases
  /// the reader's buffer. Empty optional with error.code == kNone when the
  /// rank has no block here (absent, or inherited in a delta archive).
  std::optional<std::string_view> block_payload(int rank,
                                                Error* error = nullptr) const;

  /// Random access by site rank (binary search of the footer index). Empty
  /// optional with error.code == kNone when the rank simply is not in the
  /// archive; a taxonomy'd code when the block is corrupt. Delta archives
  /// fail kDeltaUnresolved — their records only exist relative to a base;
  /// open the chain through store::WaveChain instead.
  std::optional<instrument::VisitLog> visit(int rank,
                                            Error* error = nullptr) const;

  /// Decode by index position (0 <= i < site_count()).
  std::optional<instrument::VisitLog> visit_at(std::size_t i,
                                               Error* error = nullptr) const;

  /// Streams every site in rank order into `sink`. Stops and returns false
  /// on the first corrupt block (error filled); true when every block
  /// decoded. The sink may keep or drop the logs — the reader retains
  /// nothing.
  bool for_each(const std::function<void(instrument::VisitLog&&)>& sink,
                Error* error = nullptr) const;

  /// Full-archive validation: decodes every block. The cheap way to answer
  /// "is this artifact intact?" before hours of analysis trust it. Delta
  /// archives are checked structurally (frame, CRC, op-stream shape) —
  /// sites counts blocks + inherited ranks, record_count stays 0 because
  /// records only materialize against the base.
  struct VerifyStats {
    int sites = 0;
    std::uint64_t file_bytes = 0;
    std::uint64_t record_count = 0;  // total records across all channels
  };
  std::optional<VerifyStats> verify(Error* error = nullptr) const;

  /// True, with `error` set to kDeltaUnresolved, for a delta archive —
  /// the up-front check visit(), visit_at() and for_each() make, for
  /// callers that walk the index themselves.
  [[nodiscard]] bool reject_unresolved_delta(Error* error) const;

 private:
  Reader() = default;

  std::optional<instrument::VisitLog> decode_entry(const IndexEntry& entry,
                                                   Error* error) const;
  std::optional<BlockFrame> frame_entry(const IndexEntry& entry,
                                        Error* error) const;

  std::string bytes_;
  FooterInfo info_;
  std::vector<IndexEntry> index_;
  std::uint32_t footer_crc_ = 0;
};

}  // namespace cg::store
