#include "harness/inputs.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "datagen/presets.h"
#include "harness/common.h"

namespace perfbench {
namespace {

// Cumulative Zipf weights over ranks 0..n-1, normalised to end at 1.
std::vector<double> ZipfCdf(size_t n, double exponent) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

size_t SampleCdf(const std::vector<double>& cdf, SeededRng& rng) {
  const double u = rng.Unit();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf.begin()), cdf.size() - 1);
}

uint64_t EdgeKey(ktg::VertexId a, ktg::VertexId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

ktg::AttributedGraph BuildBenchDataset() {
  auto spec = ktg::GetPreset(kPreset, kScale);
  return ktg::BuildDataset(spec.value());
}

std::vector<ktg::KtgQuery> MakeZipfQueries(const ktg::AttributedGraph& g,
                                           const QuerySpec& spec,
                                           uint32_t count, uint64_t seed) {
  std::vector<uint32_t> freq(g.num_keywords(), 0);
  for (ktg::VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const ktg::KeywordId kw : g.Keywords(v)) ++freq[kw];
  }
  std::vector<ktg::KeywordId> ranked;
  for (ktg::KeywordId kw = 0; kw < freq.size(); ++kw) {
    if (freq[kw] > 0) ranked.push_back(kw);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](ktg::KeywordId a, ktg::KeywordId b) {
                     return freq[a] > freq[b];
                   });
  const std::vector<double> cdf = ZipfCdf(ranked.size(), spec.zipf);
  SeededRng rng(seed);
  std::vector<ktg::KtgQuery> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ktg::KtgQuery q;
    q.group_size = spec.p;
    q.tenuity = static_cast<ktg::HopDistance>(spec.k);
    q.top_n = spec.n;
    while (q.keywords.size() < std::min<size_t>(spec.wq, ranked.size())) {
      const ktg::KeywordId kw = ranked[SampleCdf(cdf, rng)];
      if (std::find(q.keywords.begin(), q.keywords.end(), kw) ==
          q.keywords.end()) {
        q.keywords.push_back(kw);
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<ktg::MutationBatch> MakeMutationBatches(
    const ktg::AttributedGraph& g, uint32_t count, uint64_t seed) {
  const ktg::Graph& graph = g.graph();
  const uint32_t n = graph.num_vertices();
  // Live edge set with O(1) random removal, plus the removed-edge pool.
  std::vector<uint64_t> live;
  std::unordered_map<uint64_t, size_t> live_pos;
  for (const auto& [a, b] : graph.EdgeList()) {
    live_pos[EdgeKey(a, b)] = live.size();
    live.push_back(EdgeKey(a, b));
  }
  std::vector<uint64_t> removed;
  auto erase_live = [&](uint64_t key) {
    const size_t at = live_pos[key];
    live_pos[live.back()] = at;
    live[at] = live.back();
    live.pop_back();
    live_pos.erase(key);
  };
  auto add_live = [&](uint64_t key) {
    live_pos[key] = live.size();
    live.push_back(key);
  };

  SeededRng rng(seed);
  std::vector<ktg::MutationBatch> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ktg::MutationBatch b;
    const uint64_t gone = live[rng.Below(live.size())];
    erase_live(gone);
    uint64_t fresh = 0;
    if (!removed.empty() && rng.Below(2) == 0) {
      const size_t at = rng.Below(removed.size());
      fresh = removed[at];
      removed[at] = removed.back();
      removed.pop_back();
    } else {
      for (;;) {
        const auto u = static_cast<ktg::VertexId>(rng.Below(n));
        const auto v = static_cast<ktg::VertexId>(rng.Below(n));
        if (u != v && EdgeKey(u, v) != gone && !live_pos.count(EdgeKey(u, v))) {
          fresh = EdgeKey(u, v);
          break;
        }
      }
    }
    removed.push_back(gone);
    add_live(fresh);
    b.add_edges.emplace_back(static_cast<ktg::VertexId>(fresh >> 32),
                             static_cast<ktg::VertexId>(fresh & 0xffffffffu));
    b.remove_edges.emplace_back(static_cast<ktg::VertexId>(gone >> 32),
                                static_cast<ktg::VertexId>(gone & 0xffffffffu));
    b.add_keywords.emplace_back(static_cast<ktg::VertexId>(rng.Below(n)),
                                "pbterm" + std::to_string(seed % 100000) + "x" +
                                    std::to_string(i));
    out.push_back(std::move(b));
  }
  return out;
}

std::vector<uint32_t> ZipfDraws(uint32_t universe, double exponent,
                                uint32_t count, uint64_t seed) {
  SeededRng rng(seed);
  const std::vector<double> cdf = ZipfCdf(universe, exponent);
  std::vector<uint32_t> out(count);
  for (uint32_t& d : out) d = static_cast<uint32_t>(SampleCdf(cdf, rng));
  return out;
}

}  // namespace perfbench
