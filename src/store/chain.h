// WaveChain — resolves a base + delta archive sequence into per-wave logs.
//
// A longitudinal crawl is stored as one full archive (wave 0) plus one
// delta archive per later wave, each diffed against the wave before it.
// WaveChain::link() validates the chain once — wave 0 must be a full
// archive, every later archive a delta whose recorded BaseProvenance
// (seeds, policy, wave, site count, footer CRC) matches its predecessor
// field-for-field — so a delta spliced onto the wrong base, a re-packed
// base, or a policy-mixed chain is rejected with kBaseMismatch before any
// record is materialized.
//
// Materialization is recursive and per-site: visit(rank, w) resolves an
// inherited rank to the previous wave, applies a diff to the previous
// wave's materialized payload (CRC-pinned: the diff records the exact base
// bytes it was computed against), or decodes a raw delta directly. The
// chain borrows its Readers — callers keep them alive — and holds no
// per-site state, so it is safe to share across threads.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "instrument/records.h"
#include "store/cgar.h"
#include "store/reader.h"

namespace cg::store {

class WaveChain {
 public:
  /// Validates and links `archives` (borrowed; chain order = wave order).
  /// Empty optional + taxonomy'd error when the chain is inconsistent:
  /// kDeltaUnresolved when wave 0 is not a full archive, kBaseMismatch
  /// when a delta's recorded base provenance disagrees with its
  /// predecessor or an inherited rank has nothing to inherit.
  static std::optional<WaveChain> link(std::vector<const Reader*> archives,
                                       Error* error = nullptr);

  int waves() const { return static_cast<int>(archives_.size()); }
  const Reader& archive(int wave) const { return *archives_.at(wave); }

  /// Sorted logical rank set at `wave` (blocks + inherited).
  const std::vector<int>& ranks(int wave) const { return ranks_.at(wave); }
  int site_count(int wave) const {
    return static_cast<int>(ranks_.at(wave).size());
  }

  /// The materialized site-block payload of `rank` at `wave`. Empty
  /// optional with error.code == kNone when the rank is not in that wave's
  /// site set; kBaseMismatch / kCorruptBlock / kChecksumMismatch when the
  /// chain cannot resolve it.
  std::optional<std::string> payload_at(int rank, int wave,
                                        Error* error = nullptr) const;

  /// The error text payload_at gives for a rank that is not in the wave
  /// whose archive records `wave_number` (Reader::wave()).
  static std::string missing_rank_error(int rank, std::uint32_t wave_number);

  /// Materialized visit log of `rank` at `wave`. `payload_bytes`, when
  /// set, receives the size of the payload it was decoded from.
  std::optional<instrument::VisitLog> visit(
      int rank, int wave, Error* error = nullptr,
      std::uint64_t* payload_bytes = nullptr) const;

  /// Streams every site of `wave` in rank order. Stops and returns false
  /// on the first unresolvable site.
  bool for_each(int wave,
                const std::function<void(instrument::VisitLog&&)>& sink,
                Error* error = nullptr) const;

 private:
  WaveChain() = default;

  std::vector<const Reader*> archives_;
  std::vector<std::vector<int>> ranks_;
};

}  // namespace cg::store
