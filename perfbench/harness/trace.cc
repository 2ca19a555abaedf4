#include "harness/trace.h"

#include <cstdio>

#include "index/nlrnl_index.h"
#include "keywords/inverted_index.h"

namespace perfbench {

int64_t SpanRecorder::Add(const char* name, double start_us, double end_us,
                          int64_t parent, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_us, end_us, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += (s.end_us - s.start_us) / 1e3;
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double ms = (spans_[i].end_us - spans_[i].start_us) / 1e3;
    Totals& t = out[spans_[i].name];
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
    ++t.count;
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%lld,\"request\":%llu}\n",
                 i, s.name, s.start_us, s.end_us,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

bool CountingChecker::IsFartherThanImpl(ktg::VertexId u, ktg::VertexId v,
                                        ktg::HopDistance k) {
  const uint64_t n = checks_.fetch_add(1, std::memory_order_relaxed);
  bool farther;
  if (n % kSampleEvery == 0) {
    const auto t0 = Clock::now();
    farther = inner_->IsFartherThan(u, v, k);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    timed_.fetch_add(1, std::memory_order_relaxed);
    timed_ns_.fetch_add(static_cast<uint64_t>(ns), std::memory_order_relaxed);
  } else {
    farther = inner_->IsFartherThan(u, v, k);
  }
  if (!farther) within_.fetch_add(1, std::memory_order_relaxed);
  return farther;
}

double CountingChecker::CheckNs() const {
  const uint64_t t = timed_.load();
  return t == 0 ? 0.0 : static_cast<double>(timed_ns_.load()) / t;
}

void LayerMetrics::EmitTo(RunResult* out) const {
  out->Add("keywords.index_build_ms", keywords_index_build_ms, "ms");
  out->Add("keywords.candidates_per_query", keywords_candidates_per_query,
           "count");
  out->Add("index.build_s", index_build_s, "s");
  out->Add("index.memory_mb", index_memory_mb, "MB");
  out->Add("index.checks_per_query", index_checks_per_query, "count");
  out->Add("index.probes_per_check", index_probes_per_check, "count");
  out->Add("index.check_ns", index_check_ns, "ns");
  out->Add("index.within_ratio", index_within_ratio, "ratio");
  out->Add("index.update_ms_per_edge", index_update_ms_per_edge, "ms");
  out->Add("index.rebuilt_per_edge", index_rebuilt_per_edge, "count");
  out->Add("core.candidate_gen_ms", core_candidate_gen_ms, "ms");
  out->Add("core.nodes_per_query", core_nodes_per_query, "count");
  out->Add("core.kline_prunes_per_query", core_kline_prunes_per_query, "count");
  out->Add("core.keyword_prunes_per_query", core_keyword_prunes_per_query,
           "count");
  out->Add("core.search_self_ms", core_search_self_ms, "ms");
  out->Add("core.check_share", core_check_share, "ratio");
  out->Add("exec.cpu_per_wall", exec_cpu_per_wall, "ratio");
  out->Add("exec.node_inflation", exec_node_inflation, "ratio");
  out->Add("exec.light_overhead_ms", exec_light_overhead_ms, "ms");
  out->Add("server.queue_ms_p50", server_queue_ms_p50, "ms");
  out->Add("server.queue_ms_p99", server_queue_ms_p99, "ms");
  out->Add("server.exec_ms_p50", server_exec_ms_p50, "ms");
  out->Add("server.coalesced_ratio", server_coalesced_ratio, "ratio");
  out->Add("cache.query_hit_ratio", cache_query_hit_ratio, "ratio");
  out->Add("cache.ball_hit_ratio", cache_ball_hit_ratio, "ratio");
  out->Add("cache.resident_mb", cache_resident_mb, "MB");
  out->Add("snapshot.publish_ms_p50", snapshot_publish_ms_p50, "ms");
  out->Add("snapshot.affected_per_batch", snapshot_affected_per_batch, "count");
  out->Add("snapshot.reader_drain_ms", snapshot_reader_drain_ms, "ms");
  out->Add("trace.overhead_ms", trace_overhead_ms, "ms");
  out->Add("trace.overhead_pct", trace_overhead_pct, "%");
}

void MeasureBuilds(const ktg::AttributedGraph& g, SpanRecorder* spans,
                   LayerMetrics* m) {
  std::vector<double> kw_ms;
  for (int i = 0; i < 5; ++i) {
    const double t0 = spans->NowUs();
    const ktg::InvertedIndex index(g);
    const double t1 = spans->NowUs();
    spans->Add("keywords.index_build", t0, t1, -1, 0);
    kw_ms.push_back((t1 - t0) / 1e3);
  }
  m->keywords_index_build_ms = Median(kw_ms);
  ktg::NlrnlIndexOptions o;
  o.num_threads = 1;
  const double t0 = spans->NowUs();
  const ktg::NlrnlIndex nlrnl(g.graph(), o);
  const double t1 = spans->NowUs();
  spans->Add("index.build", t0, t1, -1, 0);
  m->index_build_s = (t1 - t0) / 1e6;
  m->index_memory_mb = static_cast<double>(nlrnl.MemoryBytes()) / (1 << 20);
}

void MeasureIndexUpdates(const ktg::AttributedGraph& g,
                         const std::vector<ktg::MutationBatch>& batches,
                         SpanRecorder* spans, LayerMetrics* m) {
  ktg::NlrnlIndexOptions o;
  o.num_threads = 1;
  ktg::NlrnlIndex side(g.graph(), o);
  double ms = 0.0;
  uint64_t rebuilt = 0, edges = 0;
  auto timed = [&](auto&& update) {
    const double t0 = spans->NowUs();
    update();
    const double t1 = spans->NowUs();
    spans->Add("index.update", t0, t1, -1, 0);
    ms += (t1 - t0) / 1e3;
    rebuilt += side.last_update_rebuilds();
    ++edges;
  };
  for (const ktg::MutationBatch& b : batches) {
    for (const auto& [u, v] : b.add_edges) timed([&] { side.InsertEdge(u, v); });
    for (const auto& [u, v] : b.remove_edges) {
      timed([&] { side.RemoveEdge(u, v); });
    }
  }
  if (edges > 0) {
    m->index_update_ms_per_edge = ms / static_cast<double>(edges);
    m->index_rebuilt_per_edge =
        static_cast<double>(rebuilt) / static_cast<double>(edges);
  }
}

}  // namespace perfbench
