#include "analysis/archive.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "runtime/sharded_runner.h"

namespace cg::analysis {
namespace {

/// Consecutive sites one worker task folds and merges before the calling
/// thread sees them. The calling thread's merge is the one serial step;
/// per chunk it touches only the chunk's distinct pairs and domains, and
/// the per-site maps are built and freed on the worker that made them.
/// Chunk boundaries never depend on the thread count.
constexpr int kChunkSites = 32;

/// One chunk's share of a parallel fold: its sites merged in rank order,
/// or the error that stopped it.
struct ChunkFold {
  SiteSummary summary;
  std::optional<store::Error> error;
};

/// The one archive fold. Each worker task runs `visit(i, stored_bytes,
/// error)` + fold_visit (+ `observer`, when set) for the sites of one chunk
/// and merges them in index order;
/// the calling thread merges the chunks in index order. By the
/// SiteSummary::merge contract that equals a site-by-site fold: counts,
/// maps and sets exactly, and the one floating-point sum
/// (Totals::expiry_days_added) up to rounding in its last bits, far below
/// the digits reports render. Stops merging at the first failed index;
/// sites after a failure already seen are skipped, never the ones before
/// it, so the reported error is the earliest in index order at any thread
/// count.
template <typename VisitFn>
std::optional<SiteSummary> fold_sites(int count, const VisitFn& visit,
                                      const entities::EntityMap& entities,
                                      const AnalyzerOptions& options,
                                      store::Error* error,
                                      const SiteObserver& observer) {
  std::atomic<int> first_failure{count};
  SiteSummary merged;
  std::optional<store::Error> failure;
  runtime::ShardedRunner runner(runtime::ShardOptions{.block_size = 1});
  const int chunks = (count + kChunkSites - 1) / kChunkSites;
  runner.run<ChunkFold>(
      0, chunks,
      [&](int chunk, int /*worker*/) {
        ChunkFold out;
        const int first = chunk * kChunkSites;
        const int last = std::min(first + kChunkSites, count);
        for (int index = first; index < last; ++index) {
          // Only a skip hint. A failure at a lower index lies in an
          // earlier chunk (this chunk's own would have ended the loop), so
          // the merge stops there before it reaches this cut-short chunk.
          if (index > first_failure.load(std::memory_order_relaxed)) break;
          store::Error site_error;
          std::uint64_t stored_bytes = 0;
          const auto log = visit(index, &stored_bytes, &site_error);
          if (!log) {
            int seen = first_failure.load(std::memory_order_relaxed);
            while (index < seen &&
                   !first_failure.compare_exchange_weak(
                       seen, index, std::memory_order_relaxed)) {
            }
            out.error = std::move(site_error);
            break;
          }
          SiteSummary site = fold_visit(entities, options, *log);
          if (observer) observer(index, stored_bytes, *log, site);
          out.summary.merge(std::move(site));
        }
        return out;
      },
      [&](int /*chunk*/, ChunkFold&& chunk) {
        if (failure) return;
        if (chunk.error) {
          failure = std::move(chunk.error);
          return;
        }
        merged.merge(std::move(chunk.summary));
      });
  if (failure) {
    if (error != nullptr) *error = std::move(*failure);
    return std::nullopt;
  }
  if (error != nullptr) *error = {};
  return merged;
}

}  // namespace

std::optional<SiteSummary> fold_archive(const store::Reader& reader,
                                        const entities::EntityMap& entities,
                                        const AnalyzerOptions& options,
                                        store::Error* error,
                                        const SiteObserver& observer) {
  // Checked here, not per site: a delta archive with no blocks would
  // otherwise fold to an empty summary.
  if (reader.reject_unresolved_delta(error)) return std::nullopt;
  return fold_sites(
      reader.site_count(),
      [&reader](int index, std::uint64_t* stored_bytes,
                store::Error* site_error) {
        const auto i = static_cast<std::size_t>(index);
        *stored_bytes = reader.index()[i].length;
        return reader.visit_at(i, site_error);
      },
      entities, options, error, observer);
}

std::optional<SiteSummary> fold_wave(const store::WaveChain& chain, int wave,
                                     const entities::EntityMap& entities,
                                     const AnalyzerOptions& options,
                                     store::Error* error,
                                     const SiteObserver& observer) {
  if (wave < 0 || wave >= chain.waves()) {
    if (error != nullptr) {
      *error = {fault::ArchiveFault::kNone, "wave index out of range"};
    }
    return std::nullopt;
  }
  const std::vector<int>& ranks = chain.ranks(wave);
  return fold_sites(
      static_cast<int>(ranks.size()),
      [&chain, &ranks, wave](int index, std::uint64_t* stored_bytes,
                             store::Error* site_error) {
        return chain.visit(ranks[static_cast<std::size_t>(index)], wave,
                           site_error, stored_bytes);
      },
      entities, options, error, observer);
}

bool analyze_archive(const store::Reader& reader, Analyzer& analyzer,
                     store::Error* error) {
  auto summary =
      fold_archive(reader, analyzer.entities(), analyzer.options(), error);
  if (!summary) return false;
  analyzer.apply(std::move(*summary));
  return true;
}

bool analyze_wave(const store::WaveChain& chain, int wave, Analyzer& analyzer,
                  store::Error* error) {
  auto summary =
      fold_wave(chain, wave, analyzer.entities(), analyzer.options(), error);
  if (!summary) return false;
  analyzer.apply(std::move(*summary));
  return true;
}

}  // namespace cg::analysis
