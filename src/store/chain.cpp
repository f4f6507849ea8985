#include "store/chain.h"

#include <algorithm>
#include <utility>

#include "store/delta_codec.h"
#include "store/record_codec.h"

namespace cg::store {
namespace {

void set_error(Error* error, fault::ArchiveFault code, std::string detail) {
  if (error != nullptr) *error = {code, std::move(detail)};
}

bool contains(const std::vector<int>& sorted, int rank) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), rank);
  return it != sorted.end() && *it == rank;
}

/// The mode byte of a delta payload (after the rank varint), or nullopt on
/// a payload too damaged to carry one.
std::optional<std::uint8_t> delta_mode(std::string_view payload) {
  ByteReader reader(payload);
  (void)reader.varint();
  const auto mode = reader.bytes(1);
  if (reader.failed) return std::nullopt;
  return static_cast<std::uint8_t>(mode[0]);
}

}  // namespace

std::optional<WaveChain> WaveChain::link(std::vector<const Reader*> archives,
                                         Error* error) {
  if (archives.empty()) {
    set_error(error, fault::ArchiveFault::kCorruptIndex, "empty wave chain");
    return std::nullopt;
  }
  if (archives.front()->kind() != ArchiveKind::kFull) {
    set_error(error, fault::ArchiveFault::kDeltaUnresolved,
              "wave chain must start with a full archive, got a delta "
              "(wave " +
                  std::to_string(archives.front()->wave()) + ")");
    return std::nullopt;
  }

  WaveChain chain;
  chain.ranks_.reserve(archives.size());
  for (std::size_t w = 0; w < archives.size(); ++w) {
    const Reader& a = *archives[w];
    std::vector<int> ranks;
    ranks.reserve(a.index().size() + a.inherited_ranks().size());
    for (const IndexEntry& entry : a.index()) ranks.push_back(entry.rank);
    if (w > 0) {
      const Reader& prev = *archives[w - 1];
      const auto mismatch = [&](std::string_view field) {
        set_error(error, fault::ArchiveFault::kBaseMismatch,
                  "chain position " + std::to_string(w) + ": recorded base " +
                      std::string(field) +
                      " disagrees with the preceding archive");
        return std::nullopt;
      };
      if (a.kind() != ArchiveKind::kDelta) {
        set_error(error, fault::ArchiveFault::kBaseMismatch,
                  "chain position " + std::to_string(w) +
                      " is a full archive — chains are one full base plus "
                      "deltas");
        return std::nullopt;
      }
      // The crawl weather a chain holds constant: one corpus, one fault
      // schedule, one policy, one evolution seed, monotonically later
      // waves. The footer CRC then pins the exact base artifact.
      if (a.corpus_seed() != prev.corpus_seed() ||
          a.base().corpus_seed != prev.corpus_seed()) {
        return mismatch("corpus seed");
      }
      if (a.fault_seed() != prev.fault_seed() ||
          a.base().fault_seed != prev.fault_seed()) {
        return mismatch("fault seed");
      }
      if (a.policy() != prev.policy() || a.base().policy != prev.policy()) {
        return mismatch("policy");
      }
      if (a.base().evolution_seed != prev.evolution_seed()) {
        return mismatch("evolution seed");
      }
      if (a.wave() <= prev.wave() || a.base().wave != prev.wave()) {
        return mismatch("wave");
      }
      if (a.base().site_count !=
          static_cast<std::uint32_t>(prev.total_site_count())) {
        return mismatch("site count");
      }
      if (a.base().footer_crc != prev.footer_crc()) {
        return mismatch("footer CRC");
      }
      for (const int rank : a.inherited_ranks()) {
        if (!contains(chain.ranks_[w - 1], rank)) {
          set_error(error, fault::ArchiveFault::kBaseMismatch,
                    "wave " + std::to_string(a.wave()) + " inherits rank " +
                        std::to_string(rank) +
                        ", which the base wave does not hold");
          return std::nullopt;
        }
        ranks.push_back(rank);
      }
      std::sort(ranks.begin(), ranks.end());
    }
    chain.ranks_.push_back(std::move(ranks));
  }
  chain.archives_ = std::move(archives);
  if (error != nullptr) *error = {};
  return chain;
}

std::string WaveChain::missing_rank_error(int rank,
                                         std::uint32_t wave_number) {
  return "rank " + std::to_string(rank) + " is not in wave " +
         std::to_string(wave_number);
}

std::optional<std::string> WaveChain::payload_at(int rank, int wave,
                                                 Error* error) const {
  if (wave < 0 || wave >= waves()) {
    set_error(error, fault::ArchiveFault::kNone,
              "wave index out of range");
    return std::nullopt;
  }
  const Reader& a = *archives_[static_cast<std::size_t>(wave)];
  Error local;
  const auto payload = a.block_payload(rank, &local);
  if (!payload) {
    if (!local.ok()) {
      if (error != nullptr) *error = local;
      return std::nullopt;
    }
    // No block: inherited (resolve one wave back) or simply absent.
    if (wave > 0 && contains(a.inherited_ranks(), rank)) {
      return payload_at(rank, wave - 1, error);
    }
    set_error(error, fault::ArchiveFault::kNone,
              missing_rank_error(rank, a.wave()));
    return std::nullopt;
  }
  if (a.kind() == ArchiveKind::kFull) {
    if (error != nullptr) *error = {};
    return std::string(*payload);
  }
  const auto mode = delta_mode(*payload);
  if (!mode) {
    set_error(error, fault::ArchiveFault::kCorruptBlock,
              "delta payload header is cut short");
    return std::nullopt;
  }
  std::string base_payload;
  if (*mode == 0) {  // diff: materialize the base wave's bytes first
    Error base_error;
    auto base = payload_at(rank, wave - 1, &base_error);
    if (!base) {
      if (base_error.ok()) {
        set_error(error, fault::ArchiveFault::kBaseMismatch,
                  "delta for rank " + std::to_string(rank) +
                      " diffs against a base wave that does not hold it");
      } else if (error != nullptr) {
        *error = base_error;
      }
      return std::nullopt;
    }
    base_payload = std::move(*base);
  }
  return apply_delta_payload(*payload, base_payload, error);
}

std::optional<instrument::VisitLog> WaveChain::visit(
    int rank, int wave, Error* error, std::uint64_t* payload_bytes) const {
  const auto payload = payload_at(rank, wave, error);
  if (!payload) return std::nullopt;
  if (payload_bytes != nullptr) *payload_bytes = payload->size();
  auto log = decode_site_payload(*payload, error);
  if (log && log->rank != rank) {
    set_error(error, fault::ArchiveFault::kCorruptIndex,
              "materialized payload holds rank " + std::to_string(log->rank) +
                  ", chain resolved rank " + std::to_string(rank));
    return std::nullopt;
  }
  return log;
}

bool WaveChain::for_each(
    int wave, const std::function<void(instrument::VisitLog&&)>& sink,
    Error* error) const {
  if (wave < 0 || wave >= waves()) {
    set_error(error, fault::ArchiveFault::kNone, "wave index out of range");
    return false;
  }
  for (const int rank : ranks_[static_cast<std::size_t>(wave)]) {
    auto log = visit(rank, wave, error);
    if (!log) return false;
    sink(std::move(*log));
  }
  if (error != nullptr) *error = {};
  return true;
}

}  // namespace cg::store
