// Analysis-from-archive: the "analyze many times" half of the two-phase
// pipeline. A CGAR archive replayed through an Analyzer reproduces the live
// crawl's aggregates exactly — the crawler archives every site the sink
// saw, retained and excluded alike, and Analyzer::ingest applies the same
// completeness filter either way.
//
// Every archive fold here runs on a runtime::ShardedRunner with all
// hardware threads: workers decode, fold_visit and merge fixed runs of
// consecutive sites, and the calling thread merges those in rank order.
// The runs do not depend on the thread count, so results are
// bit-identical at any thread count, and by the SiteSummary::merge
// contract they equal a site-by-site fold. A corrupt archive reports the
// first corrupt block in rank order, with the error the sequential
// Reader::for_each would give.
#pragma once

#include <optional>

#include "analysis/analyzer.h"
#include "store/chain.h"
#include "store/reader.h"

namespace cg::analysis {

/// Folds every site of a full archive into one summary, in rank order.
/// Empty optional (with `error` naming the taxonomy class) on the first
/// corrupt block, and up front with kDeltaUnresolved for a delta archive —
/// even one with no blocks.
std::optional<SiteSummary> fold_archive(const store::Reader& reader,
                                        const entities::EntityMap& entities,
                                        const AnalyzerOptions& options,
                                        store::Error* error = nullptr);

/// Same, over one wave of a base + delta chain: every site of `wave` is
/// materialized through the chain (inherited ranks resolve to earlier
/// waves). The summary is byte-identical to folding an independently
/// packed full archive of the same wave.
std::optional<SiteSummary> fold_wave(const store::WaveChain& chain, int wave,
                                     const entities::EntityMap& entities,
                                     const AnalyzerOptions& options,
                                     store::Error* error = nullptr);

/// fold_archive with `analyzer`'s entity map and options, then apply()s
/// the result. False on any error fold_archive reports, with `analyzer`
/// left as it was — partial aggregates from a corrupt archive are worse
/// than no aggregates.
bool analyze_archive(const store::Reader& reader, Analyzer& analyzer,
                     store::Error* error = nullptr);

/// fold_wave into `analyzer`; same contract as analyze_archive.
bool analyze_wave(const store::WaveChain& chain, int wave, Analyzer& analyzer,
                  store::Error* error = nullptr);

}  // namespace cg::analysis
