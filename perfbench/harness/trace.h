// The traced mode's instruments, all outside the library: an in-memory
// span recorder written out when the run ends, and a DistanceChecker
// decorator that counts and times the checks the engine makes.

#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/common.h"
#include "core/snapshot.h"
#include "index/distance_checker.h"
#include "keywords/attributed_graph.h"

namespace perfbench {

/// Spans of one traced run. Thread-safe; times are microseconds since the
/// recorder was made.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;  ///< index of the parent span, -1 for a root
    uint64_t request;
  };

  SpanRecorder() : origin_(Clock::now()) {}

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  /// Records a finished span; returns its index (the id children name).
  int64_t Add(const char* name, double start_us, double end_us,
              int64_t parent, uint64_t request);

  /// Total and self time (duration minus the children's durations) in ms,
  /// and the count, per span name.
  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> Summarize() const;

  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Forwards every check to `inner` and counts checks and conflicts
/// ("within k" answers). One call in kSampleEvery is timed, which keeps
/// the timer's own cost out of most checks; the per-check time is the
/// mean of the timed ones.
class CountingChecker final : public ktg::DistanceChecker {
 public:
  static constexpr uint64_t kSampleEvery = 8;

  explicit CountingChecker(ktg::DistanceChecker* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  bool concurrent_read_safe() const override {
    return inner_->concurrent_read_safe();
  }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }

  uint64_t checks() const { return checks_.load(); }
  uint64_t within() const { return within_.load(); }
  /// Mean time of the timed checks, in ns.
  double CheckNs() const;

 protected:
  bool IsFartherThanImpl(ktg::VertexId u, ktg::VertexId v,
                         ktg::HopDistance k) override;

 private:
  ktg::DistanceChecker* inner_;
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> within_{0};
  std::atomic<uint64_t> timed_{0};
  std::atomic<uint64_t> timed_ns_{0};
};

/// Every per-layer metric of a traced run. A layer the workload bypasses
/// keeps the value that is true of a bypassed layer (0 work, ratio 1 for
/// node inflation); README.md lists which layers each workload reaches.
struct LayerMetrics {
  double keywords_index_build_ms = 0, keywords_candidates_per_query = 0;
  double index_build_s = 0, index_memory_mb = 0;
  double index_checks_per_query = 0, index_probes_per_check = 0;
  double index_check_ns = 0, index_within_ratio = 0;
  double index_update_ms_per_edge = 0, index_rebuilt_per_edge = 0;
  double core_candidate_gen_ms = 0, core_nodes_per_query = 0;
  double core_kline_prunes_per_query = 0, core_keyword_prunes_per_query = 0;
  double core_search_self_ms = 0, core_check_share = 0;
  double exec_cpu_per_wall = 1, exec_node_inflation = 1;
  double exec_light_overhead_ms = 0;
  double server_queue_ms_p50 = 0, server_queue_ms_p99 = 0;
  double server_exec_ms_p50 = 0, server_coalesced_ratio = 0;
  double cache_query_hit_ratio = 0, cache_ball_hit_ratio = 0;
  double cache_resident_mb = 0;
  double snapshot_publish_ms_p50 = 0, snapshot_affected_per_batch = 0;
  double snapshot_reader_drain_ms = 0;
  /// Traced minus untraced mean latency per operation, and as a share.
  double trace_overhead_ms = 0, trace_overhead_pct = 0;

  void EmitTo(RunResult* out) const;
};

/// Set-up costs measured apart: inverted index and NLRNL builds on `g`.
void MeasureBuilds(const ktg::AttributedGraph& g, SpanRecorder* spans,
                   LayerMetrics* m);

/// Replays each batch's edge deltas on a side copy of the NLRNL index of
/// `g`, timing each update and counting the entries it rebuilt.
void MeasureIndexUpdates(const ktg::AttributedGraph& g,
                         const std::vector<ktg::MutationBatch>& batches,
                         SpanRecorder* spans, LayerMetrics* m);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
