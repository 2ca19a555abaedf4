// Output checks computed apart from the library: the benchmark keeps its
// own copy of the graph (adjacency and keyword lists), replays mutation
// batches on it, recounts coverage, measures hop distances with its own
// BFS and enumerates the exact top-N coverage profile itself.

#ifndef PERFBENCH_HARNESS_CHECKS_H_
#define PERFBENCH_HARNESS_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "core/snapshot.h"
#include "keywords/attributed_graph.h"

namespace perfbench {

/// A group as a response reports it: members plus the claimed coverage.
struct ReportedGroup {
  std::vector<ktg::VertexId> members;
  int covered = 0;
};

/// Converts engine groups (coverage taken from their masks).
std::vector<ReportedGroup> FromEngineGroups(const std::vector<ktg::Group>& gs);

/// The benchmark's own mutable copy of an attributed graph.
class ReplayGraph {
 public:
  explicit ReplayGraph(const ktg::AttributedGraph& g);

  /// What applying one batch changed, counted by the replay itself.
  struct Counts {
    uint64_t edges_added = 0;
    uint64_t edges_removed = 0;
    uint64_t keywords_added = 0;
  };
  Counts Apply(const ktg::MutationBatch& batch);

  uint32_t num_vertices() const { return static_cast<uint32_t>(adj_.size()); }
  const std::vector<ktg::VertexId>& Neighbors(ktg::VertexId v) const {
    return adj_[v];
  }
  /// Bit i set iff `v` carries query keyword i (recounted here).
  uint64_t Mask(ktg::VertexId v, const std::vector<ktg::KeywordId>& wq) const;
  /// Every vertex within `k` hops of `v`, `v` excluded (own BFS).
  std::vector<ktg::VertexId> Ball(ktg::VertexId v, uint32_t k) const;

 private:
  std::vector<std::vector<ktg::VertexId>> adj_;  // sorted
  std::vector<std::vector<ktg::KeywordId>> kw_;  // sorted
  // Keyword ids of terms added by batches; existing terms keep their id.
  const ktg::Vocabulary* base_vocab_;
  std::unordered_map<std::string, ktg::KeywordId> added_terms_;
};

/// Checks one answer to `q`: at most N groups of p distinct in-range
/// members, every member covering a query keyword, claimed coverage equal
/// to the recount, every member pair more than k hops apart, coverage
/// non-increasing, no duplicate group. Returns "" when the answer passes,
/// else the first failure. `profile` receives the recounted coverages.
std::string CheckGroups(const ReplayGraph& g, const ktg::KtgQuery& q,
                        const std::vector<ReportedGroup>& groups,
                        std::vector<int>* profile);

/// The exact top-N answer of `q` on `g`, by the benchmark's own
/// branch-and-bound enumeration over every feasible group.
struct ExactAnswer {
  std::vector<int> profile;  ///< top-N coverages, non-increasing
  std::vector<ReportedGroup> groups;
};
ExactAnswer EnumerateExact(const ReplayGraph& g, const ktg::KtgQuery& q);

/// "" when the two profiles are equal, else a description.
std::string CompareProfiles(const std::vector<int>& got,
                            const std::vector<int>& want);

/// Feeds deliberately corrupted answers to the checks above: a pair within
/// k, a miscounted coverage, a worse-than-optimal profile and a stale-epoch
/// answer. Returns how many of the four the checks rejected (all four
/// must be) and puts the first escape into `why`.
int SelfTestChecks(const ktg::AttributedGraph& g,
                   const std::vector<ktg::KtgQuery>& queries,
                   std::string* why);

/// The read-side epoch rule of a served answer: it must name an epoch no
/// older than the last one acknowledged before it was sent (`acknowledged`)
/// and no newer than the last one whose mutate had been sent when its
/// answer arrived (`sent`); any other epoch is stale or was never
/// published to it.
std::string CheckReadEpoch(uint64_t epoch, uint64_t acknowledged,
                           uint64_t sent);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CHECKS_H_
