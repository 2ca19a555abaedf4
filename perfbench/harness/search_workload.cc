// search-serial / search-parallel: one closed-loop client runs the
// library's exact engine (vkc-deg, NLRNL, ceiling and residual bounds on)
// over a fixed list of Zipf-biased queries. Set-up also publishes a few
// mutation batches through snapshot stores, so the write path is measured
// too.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/candidates.h"
#include "core/ktg_engine.h"
#include "core/snapshot.h"
#include "harness/checks.h"
#include "harness/inputs.h"
#include "harness/trace.h"
#include "harness/workloads.h"
#include "index/checker_factory.h"
#include "index/nlrnl_index.h"
#include "keywords/inverted_index.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

constexpr QuerySpec kSpec{5, 2, 12, 5, 0.4};
constexpr uint32_t kQueries = 1000;
constexpr uint32_t kWarmupQueries = 100;
constexpr int kSetups = 5;
constexpr int kPublishRounds = 4;  // < kSetups: the last store stays clean
// Nominal time of one pass over the queries (1000 at a ~10 ms mean); the
// pass count follows from the run time alone, so it is the same on every
// run of a given length.
constexpr double kPassSeconds = 10.0;
constexpr uint32_t kPublishes = 12;
constexpr uint32_t kExactSample = 16;

struct QueryRun {
  bool ok = false;
  double ms = 0.0;
  ktg::KtgResult result;
};

QueryRun RunOne(const ktg::AttributedGraph& g, const ktg::InvertedIndex& idx,
                ktg::DistanceChecker& checker, const ktg::KtgQuery& q,
                const ktg::EngineOptions& eo) {
  QueryRun r;
  const auto t0 = Clock::now();
  ktg::KtgEngine engine(g, idx, checker, eo);
  auto res = engine.Run(q);
  r.ms = MsSince(t0);
  if (res.ok() && engine.last_run_complete()) {
    r.ok = true;
    r.result = std::move(res.value());
  }
  return r;
}

ktg::SnapshotStore::Options StoreOptions(ktg::obs::MetricsRegistry* m) {
  ktg::SnapshotStore::Options o;
  o.checker = ktg::CheckerKind::kNlrnl;
  o.build_threads = 1;
  o.metrics = m;
  return o;
}

std::vector<int> Profile(const ktg::KtgResult& r) {
  std::vector<int> p;
  for (const ktg::Group& g : r.groups) p.push_back(g.covered());
  return p;
}

// Checks every answer of one pass apart from the library and, on a seeded
// sample, against the exact enumeration. Returns the failed count.
uint64_t CheckPass(const ktg::AttributedGraph& g,
                   const std::vector<ktg::KtgQuery>& queries,
                   const std::vector<QueryRun>& runs, uint64_t seed) {
  const ReplayGraph replay(g);
  uint64_t failed = 0;
  std::vector<bool> sampled(queries.size(), false);
  SeededRng rng(seed);
  for (uint32_t i = 0; i < kExactSample && i < queries.size(); ++i) {
    sampled[rng.Below(queries.size())] = true;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!runs[i].ok) {
      ++failed;
      continue;
    }
    std::vector<int> prof;
    std::string why = CheckGroups(replay, queries[i],
                                  FromEngineGroups(runs[i].result.groups), &prof);
    if (why.empty() && sampled[i]) {
      why = CompareProfiles(prof, EnumerateExact(replay, queries[i]).profile);
    }
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "query %zu: %s\n", i, why.c_str());
    }
  }
  return failed;
}

}  // namespace

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

RunResult RunSearchWorkload(const RunConfig& cfg, uint32_t threads) {
  RunResult out;
  const ktg::AttributedGraph base = BuildBenchDataset();
  auto queries =
      MakeZipfQueries(base, kSpec, kQueries, StreamSeed(cfg.universe, 101));
  SeededShuffle(queries, StreamSeed(cfg.seed, 1));
  const auto batches =
      MakeMutationBatches(base, kPublishes, StreamSeed(cfg.universe, 102));
  std::string why;
  if (SelfTestChecks(base, queries, &why) != 4) {
    std::fprintf(stderr, "%s\n", why.c_str());
    out.correct = false;
  }

  // Set-up: dataset, inverted index and NLRNL checker, built through a
  // snapshot store; repeated, median reported. The first kPublishRounds
  // stores then publish the batches (each batch's time is its best over
  // the rounds); the last, untouched one serves the queries.
  SpanRecorder spans;
  ktg::obs::MetricsRegistry registry;
  std::vector<double> setup_s;
  std::vector<double> publish_ms(batches.size(), 1e300);
  std::vector<double> publish_lib_ms, affected;
  std::unique_ptr<ktg::SnapshotStore> store;
  for (int s = 0; s < kSetups; ++s) {
    store.reset();
    const auto t0 = Clock::now();
    store = std::make_unique<ktg::SnapshotStore>(BuildBenchDataset(),
                                                 StoreOptions(&registry));
    setup_s.push_back(MsSince(t0) / 1e3);
    if (s >= kPublishRounds) continue;
    ReplayGraph replay(base);
    for (size_t b = 0; b < batches.size(); ++b) {
      ++out.attempted;
      const uint64_t epoch = store->epoch();
      const double p0 = spans.NowUs();
      const auto info = store->Apply(batches[b]);
      const double p1 = spans.NowUs();
      publish_ms[b] = std::min(publish_ms[b], (p1 - p0) / 1e3);
      if (cfg.trace) spans.Add("snapshot.publish", p0, p1, -1, 0);
      const ReplayGraph::Counts want = replay.Apply(batches[b]);
      if (!info.ok() || info->epoch != epoch + 1 ||
          info->edges_added != want.edges_added ||
          info->edges_removed != want.edges_removed ||
          info->keywords_added != want.keywords_added) {
        ++out.failed;
        std::fprintf(stderr, "publish %zu disagrees with the replay\n", b);
      } else {
        affected.push_back(static_cast<double>(info->affected_vertices));
        publish_lib_ms.push_back(info->publish_ms);
      }
    }
  }

  ktg::SnapshotPin snap = store->Pin();
  const ktg::AttributedGraph& g = snap->graph();
  ktg::EngineOptions eo;
  eo.num_threads = threads;

  // Warm-up, then one whole pass over the query list per kPassSeconds of
  // run time (at least one). A query's latency is its best over the
  // passes, since host noise only ever adds time and passes seconds apart
  // rarely all catch it; throughput is the closed-loop rate those
  // latencies give (queries / their sum).
  for (uint32_t i = 0; i < kWarmupQueries; ++i) {
    (void)RunOne(g, snap->index(), *snap->checker(), queries[i], eo);
  }
  std::vector<double> best_ms(queries.size(), 1e300);
  std::vector<QueryRun> first(queries.size());
  const int passes =
      std::max(1, static_cast<int>(std::lround(cfg.seconds / kPassSeconds)));
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryRun r = RunOne(g, snap->index(), *snap->checker(), queries[i], eo);
      ++out.attempted;
      best_ms[i] = std::min(best_ms[i], r.ms);
      if (!r.ok) {
        ++out.failed;
        continue;
      }
      if (pass == 0) {
        first[i] = std::move(r);
      } else if (Profile(r.result) != Profile(first[i].result)) {
        ++out.failed;  // the same query must give the same profile each pass
      }
    }
  }
  out.failed += CheckPass(base, queries, first, StreamSeed(cfg.seed, 3));

  // The other thread count (2 for search-serial, 1 for search-parallel)
  // on the same queries: search-parallel always runs it, since every
  // parallel profile must equal the serial one; a traced search-serial
  // runs it for the exec layer's metrics, and checks the same.
  std::vector<QueryRun> other;
  if (threads != 1 || cfg.trace) {
    ktg::EngineOptions oo;
    oo.num_threads = threads == 1 ? 2 : 1;
    for (size_t i = 0; i < queries.size(); ++i) {
      other.push_back(RunOne(g, snap->index(), *snap->checker(), queries[i], oo));
      ++out.attempted;
      if (first[i].ok &&
          (!other.back().ok ||
           Profile(other.back().result) != Profile(first[i].result))) {
        ++out.failed;
        std::fprintf(stderr, "query %zu: parallel profile differs from serial\n",
                     i);
      }
    }
  }

  // Traced pass: the same queries through a counting checker decorator.
  std::unique_ptr<CountingChecker> counting;
  ktg::SearchStats traced_totals;
  double cand_ms = 0.0;
  uint64_t cand_total = 0;
  double traced_ms = 0.0;
  uint64_t probes = 0;
  if (cfg.trace) {
    ktg::DistanceChecker* inner = snap->checker();
    inner->EnableDetailStats();
    const uint64_t probes0 = inner->num_probes();
    counting = std::make_unique<CountingChecker>(inner);
    for (size_t i = 0; i < queries.size(); ++i) {
      const double c0 = spans.NowUs();
      const auto cands =
          ktg::ExtractCandidates(g, snap->index(), queries[i], *inner);
      const double c1 = spans.NowUs();
      spans.Add("core.candidates", c0, c1, -1, i);
      cand_ms += (c1 - c0) / 1e3;
      cand_total += cands.size();
      const uint64_t checks0 = counting->checks();
      const double t0 = spans.NowUs();
      QueryRun r = RunOne(g, snap->index(), *counting, queries[i], eo);
      const double t1 = spans.NowUs();
      const int64_t run = spans.Add("core.run", t0, t1, -1, i);
      // Check time is summed over the workers; scale it by the run's
      // wall/CPU ratio so the child fits its parent's wall-clock span.
      const ktg::SearchStats& st = r.result.stats;
      const double wall_share =
          r.ok && st.cpu_ms > 0 ? std::min(1.0, st.elapsed_ms / st.cpu_ms) : 1.0;
      const double check_us = static_cast<double>(counting->checks() - checks0) *
                              counting->CheckNs() / 1e3;
      spans.Add("index.check", t0, t0 + check_us * wall_share, run, i);
      traced_ms += r.ms;
      if (r.ok) traced_totals += r.result.stats;
    }
    probes = inner->num_probes() - probes0;
  }

  out.correct = out.correct && out.failed == 0;

  if (!cfg.trace) {
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("latency_p50_ms", Quantile(best_ms, 0.5), "ms");
    out.Add("latency_p99_ms", Quantile(best_ms, 0.99), "ms");
    double sum_ms = 0.0;
    for (const double ms : best_ms) sum_ms += ms;
    out.Add("throughput_qps", 1e3 * static_cast<double>(queries.size()) / sum_ms,
            "1/s");
    out.Add("publish_p50_ms", Median(publish_ms), "ms");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  // Per-layer metrics of the traced pass.
  LayerMetrics m;
  {
    const double t0 = spans.NowUs();
    const ktg::AttributedGraph again = BuildBenchDataset();
    spans.Add("datagen.build", t0, spans.NowUs(), -1, 0);
    MeasureBuilds(again, &spans, &m);
    MeasureIndexUpdates(again, batches, &spans, &m);
  }
  const double nq = static_cast<double>(queries.size());
  const auto totals = spans.Summarize();
  const double run_ms = totals.at("core.run").total_ms;
  const double check_ms = totals.at("index.check").total_ms;
  const double checks = static_cast<double>(counting->checks());
  m.keywords_candidates_per_query = static_cast<double>(cand_total) / nq;
  m.index_checks_per_query = checks / nq;
  m.index_probes_per_check = checks > 0 ? static_cast<double>(probes) / checks : 0;
  m.index_check_ns = counting->CheckNs();
  m.index_within_ratio =
      checks > 0 ? static_cast<double>(counting->within()) / checks : 0;
  m.core_candidate_gen_ms = cand_ms / nq;
  m.core_nodes_per_query =
      static_cast<double>(traced_totals.nodes_expanded) / nq;
  m.core_kline_prunes_per_query =
      static_cast<double>(traced_totals.kline_filtered) / nq;
  m.core_keyword_prunes_per_query =
      static_cast<double>(traced_totals.keyword_prunes +
                          traced_totals.ub_prunes) / nq;
  m.core_search_self_ms = totals.at("core.run").self_ms / nq;
  m.core_check_share = run_ms > 0 ? check_ms / run_ms : 0;
  // Parallel (2 threads) against serial on the same queries: compute per
  // wall-clock second, BB nodes, and the latency added to the light half
  // (queries below the serial median).
  {
    const std::vector<QueryRun>& ser = threads == 1 ? first : other;
    const std::vector<QueryRun>& par = threads == 1 ? other : first;
    uint64_t ser_nodes = 0, par_nodes = 0;
    double cpu = 0, wall = 0;
    std::vector<double> ser_ms;
    for (size_t i = 0; i < queries.size(); ++i) {
      ser_nodes += ser[i].result.stats.nodes_expanded;
      par_nodes += par[i].result.stats.nodes_expanded;
      cpu += par[i].result.stats.cpu_ms;
      wall += par[i].result.stats.elapsed_ms;
      ser_ms.push_back(ser[i].ms);
    }
    m.exec_cpu_per_wall = wall > 0 ? cpu / wall : 0;
    m.exec_node_inflation =
        ser_nodes > 0 ? static_cast<double>(par_nodes) / ser_nodes : 0;
    const double cut = Median(ser_ms);
    std::vector<double> extra;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (ser[i].ms < cut) extra.push_back(par[i].ms - ser[i].ms);
    }
    m.exec_light_overhead_ms = Mean(extra);
  }
  m.snapshot_publish_ms_p50 = Median(publish_lib_ms);
  m.snapshot_affected_per_batch = Mean(affected);
  m.snapshot_reader_drain_ms =
      registry.histogram("snapshot.reader_drain_ms").count() > 0
          ? registry.histogram("snapshot.reader_drain_ms").Quantile(0.5)
          : 0;
  double untraced_ms = 0.0;
  for (const QueryRun& r : first) untraced_ms += r.ms;
  const double untraced_mean = untraced_ms / nq;
  m.trace_overhead_ms = traced_ms / nq - untraced_mean;
  m.trace_overhead_pct =
      untraced_mean > 0 ? 100.0 * m.trace_overhead_ms / untraced_mean : 0;
  m.EmitTo(&out);
  if (!cfg.spans_path.empty() && !spans.WriteJsonLines(cfg.spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", cfg.spans_path.c_str());
  }
  return out;
}

}  // namespace perfbench
