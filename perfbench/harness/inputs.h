// Workload inputs. The dataset is the library's seeded `gowalla` preset;
// queries and mutation batches are generated here, so they do not move
// when the library's own generators change. Queries come from a query
// universe named by RunConfig::universe; the run's seed orders them and
// draws everything else (see README.md, "Seeds").

#ifndef PERFBENCH_HARNESS_INPUTS_H_
#define PERFBENCH_HARNESS_INPUTS_H_

#include <cstdint>
#include <vector>

#include "core/query.h"
#include "core/snapshot.h"
#include "harness/common.h"
#include "keywords/attributed_graph.h"

namespace perfbench {

/// Preset and scale every workload runs on (n = 1683, m = 13428).
inline constexpr const char* kPreset = "gowalla";
inline constexpr double kScale = 0.25;

/// Shape of the queries of one workload.
struct QuerySpec {
  uint32_t p = 5;
  uint32_t k = 2;
  uint32_t wq = 12;
  uint32_t n = 5;
  /// Exponent of the Zipf bias over keyword popularity ranks.
  double zipf = 0.4;
};

/// Builds the preset dataset (deterministic; independent of the run seed).
ktg::AttributedGraph BuildBenchDataset();

/// `count` queries whose |W_Q| distinct keywords are drawn by a Zipf law
/// over the keywords ranked by posting frequency (most frequent first).
std::vector<ktg::KtgQuery> MakeZipfQueries(const ktg::AttributedGraph& g,
                                           const QuerySpec& spec,
                                           uint32_t count, uint64_t seed);

/// `count` mutation batches of 1 edge insertion, 1 edge removal and 1
/// keyword addition each, valid in sequence from `g` (no no-op deltas).
/// Half the insertions re-insert an edge an earlier batch removed.
std::vector<ktg::MutationBatch> MakeMutationBatches(
    const ktg::AttributedGraph& g, uint32_t count, uint64_t seed);

/// Shuffles `v` by a seeded Fisher-Yates pass.
template <class T>
void SeededShuffle(std::vector<T>& v, uint64_t seed) {
  SeededRng rng(seed);
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.Below(i)]);
}

/// Draws `count` indices in [0, universe) by a Zipf law over the indices:
/// query i of a (randomly generated) universe is the i-th most popular.
std::vector<uint32_t> ZipfDraws(uint32_t universe, double exponent,
                                uint32_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_INPUTS_H_
