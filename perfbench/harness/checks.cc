#include "harness/checks.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <deque>
#include <set>

namespace perfbench {
namespace {

int Pop(uint64_t m) { return std::popcount(m); }

// The exact top-N search of EnumerateExact. Candidates are sorted by
// coverage (descending); a node holds the set of candidates still
// compatible with every chosen member and after the last chosen one, as a
// bitset over candidate positions.
class Enumerator {
 public:
  Enumerator(const ReplayGraph& g, const ktg::KtgQuery& q)
      : p_(q.group_size), top_n_(q.top_n) {
    for (ktg::VertexId v = 0; v < g.num_vertices(); ++v) {
      const uint64_t m = g.Mask(v, q.keywords);
      if (m != 0) cands_.push_back({v, m});
    }
    std::stable_sort(cands_.begin(), cands_.end(),
                     [](const Cand& a, const Cand& b) {
                       return Pop(a.mask) > Pop(b.mask);
                     });
    words_ = (cands_.size() + 63) / 64;
    std::vector<int32_t> pos(g.num_vertices(), -1);
    for (size_t i = 0; i < cands_.size(); ++i) {
      pos[cands_[i].v] = static_cast<int32_t>(i);
    }
    conflict_.assign(cands_.size() * words_, 0);
    for (size_t i = 0; i < cands_.size(); ++i) {
      for (const ktg::VertexId u : g.Ball(cands_[i].v, q.tenuity)) {
        if (pos[u] >= 0) {
          conflict_[i * words_ + pos[u] / 64] |= uint64_t{1} << (pos[u] % 64);
        }
      }
    }
  }

  ExactAnswer Run() {
    if (p_ >= 1 && cands_.size() >= p_) {
      std::vector<uint64_t> all(words_, 0);
      for (size_t i = 0; i < cands_.size(); ++i) {
        all[i / 64] |= uint64_t{1} << (i % 64);
      }
      Dfs(all, 0);
    }
    ExactAnswer out;
    for (const auto& [cov, members] : best_) {
      out.profile.push_back(cov);
      out.groups.push_back({members, cov});
    }
    return out;
  }

 private:
  struct Cand {
    ktg::VertexId v;
    uint64_t mask;
  };

  bool Full() const { return best_.size() >= top_n_; }
  int Worst() const { return best_.back().first; }

  void Offer(int cov) {
    if (Full() && cov <= Worst()) return;
    std::vector<ktg::VertexId> members;
    for (const size_t i : chosen_) members.push_back(cands_[i].v);
    std::sort(members.begin(), members.end());
    if (Full()) best_.pop_back();
    auto at = std::find_if(best_.begin(), best_.end(),
                           [&](const auto& b) { return b.first < cov; });
    best_.insert(at, {cov, std::move(members)});
  }

  void Dfs(const std::vector<uint64_t>& allowed, uint64_t covered) {
    const uint32_t need = p_ - static_cast<uint32_t>(chosen_.size());
    std::vector<size_t> idx;
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t bits = allowed[w]; bits != 0; bits &= bits - 1) {
        idx.push_back(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      }
    }
    const size_t m = idx.size();
    if (m < need) return;
    // Bounds of the child that picks idx[t]: the coverage reachable from
    // positions t.. (union), and the additive bound: its own new keywords
    // plus the need-1 largest new-keyword counts after it.
    std::vector<uint64_t> suffix(m + 1, 0);
    std::vector<int> gain(m), after(m, 0);
    for (size_t t = m; t-- > 0;) {
      suffix[t] = suffix[t + 1] | cands_[idx[t]].mask;
      gain[t] = Pop(cands_[idx[t]].mask & ~covered);
    }
    std::vector<int> top;  // descending, at most need-1 entries
    for (size_t t = m; t-- > 0;) {
      int sum = 0;
      for (const int x : top) sum += x;
      after[t] = sum;
      if (need > 1) {
        top.insert(std::upper_bound(top.begin(), top.end(), gain[t],
                                    std::greater<int>()),
                   gain[t]);
        if (top.size() > need - 1) top.pop_back();
      }
    }
    const int have = Pop(covered);
    for (size_t t = 0; t + need <= m; ++t) {
      const int ub =
          std::min(Pop(covered | suffix[t]), have + gain[t] + after[t]);
      if (Full() && ub <= Worst()) continue;
      const size_t c = idx[t];
      chosen_.push_back(c);
      if (need == 1) {
        Offer(Pop(covered | cands_[c].mask));
      } else {
        std::vector<uint64_t> child(words_, 0);
        for (size_t w = 0; w < words_; ++w) {
          child[w] = allowed[w] & ~conflict_[c * words_ + w];
        }
        // Only candidates after c: each combination is visited once.
        for (size_t w = 0; w < c / 64; ++w) child[w] = 0;
        const size_t bit = c % 64;
        child[c / 64] &= bit == 63 ? 0 : ~uint64_t{0} << (bit + 1);
        Dfs(child, covered | cands_[c].mask);
      }
      chosen_.pop_back();
    }
  }

  const uint32_t p_;
  const uint32_t top_n_;
  std::vector<Cand> cands_;
  size_t words_ = 0;
  std::vector<uint64_t> conflict_;
  std::vector<size_t> chosen_;
  std::vector<std::pair<int, std::vector<ktg::VertexId>>> best_;
};

}  // namespace

std::vector<ReportedGroup> FromEngineGroups(const std::vector<ktg::Group>& gs) {
  std::vector<ReportedGroup> out;
  out.reserve(gs.size());
  for (const ktg::Group& g : gs) out.push_back({g.members, g.covered()});
  return out;
}

ReplayGraph::ReplayGraph(const ktg::AttributedGraph& g)
    : adj_(g.num_vertices()), kw_(g.num_vertices()),
      base_vocab_(&g.vocabulary()) {
  for (ktg::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.graph().Neighbors(v);
    adj_[v].assign(nb.begin(), nb.end());
    std::sort(adj_[v].begin(), adj_[v].end());
    const auto kws = g.Keywords(v);
    kw_[v].assign(kws.begin(), kws.end());
    std::sort(kw_[v].begin(), kw_[v].end());
  }
}

ReplayGraph::Counts ReplayGraph::Apply(const ktg::MutationBatch& batch) {
  Counts c;
  const auto n = static_cast<ktg::VertexId>(adj_.size());
  auto link = [&](ktg::VertexId a, ktg::VertexId b, bool add) {
    if (a >= n || b >= n || a == b) return false;
    auto& la = adj_[a];
    const auto it = std::lower_bound(la.begin(), la.end(), b);
    const bool present = it != la.end() && *it == b;
    if (present == add) return false;
    auto& lb = adj_[b];
    if (add) {
      la.insert(it, b);
      lb.insert(std::lower_bound(lb.begin(), lb.end(), a), a);
    } else {
      la.erase(it);
      lb.erase(std::lower_bound(lb.begin(), lb.end(), a));
    }
    return true;
  };
  for (const auto& [a, b] : batch.add_edges) c.edges_added += link(a, b, true);
  for (const auto& [a, b] : batch.remove_edges) {
    c.edges_removed += link(a, b, false);
  }
  for (const auto& [v, term] : batch.add_keywords) {
    if (v >= n) continue;
    ktg::KeywordId id = base_vocab_->Find(term);
    if (id == ktg::kInvalidKeyword) {
      const auto it = added_terms_.find(term);
      id = it != added_terms_.end()
               ? it->second
               : added_terms_
                     .emplace(term, static_cast<ktg::KeywordId>(
                                        base_vocab_->size() + added_terms_.size()))
                     .first->second;
    }
    auto& l = kw_[v];
    const auto it = std::lower_bound(l.begin(), l.end(), id);
    if (it == l.end() || *it != id) {
      l.insert(it, id);
      ++c.keywords_added;
    }
  }
  return c;
}

uint64_t ReplayGraph::Mask(ktg::VertexId v,
                           const std::vector<ktg::KeywordId>& wq) const {
  uint64_t m = 0;
  for (size_t i = 0; i < wq.size(); ++i) {
    if (std::binary_search(kw_[v].begin(), kw_[v].end(), wq[i])) {
      m |= uint64_t{1} << i;
    }
  }
  return m;
}

std::vector<ktg::VertexId> ReplayGraph::Ball(ktg::VertexId v,
                                             uint32_t k) const {
  std::vector<uint32_t> depth(adj_.size(), UINT32_MAX);
  std::vector<ktg::VertexId> out;
  std::deque<ktg::VertexId> frontier{v};
  depth[v] = 0;
  while (!frontier.empty()) {
    const ktg::VertexId u = frontier.front();
    frontier.pop_front();
    if (depth[u] == k) continue;
    for (const ktg::VertexId w : adj_[u]) {
      if (depth[w] != UINT32_MAX) continue;
      depth[w] = depth[u] + 1;
      out.push_back(w);
      frontier.push_back(w);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string CheckGroups(const ReplayGraph& g, const ktg::KtgQuery& q,
                        const std::vector<ReportedGroup>& groups,
                        std::vector<int>* profile) {
  profile->clear();
  if (groups.size() > q.top_n) return "more than N groups";
  std::set<std::vector<ktg::VertexId>> seen;
  int prev = INT_MAX;
  for (const ReportedGroup& grp : groups) {
    std::vector<ktg::VertexId> m = grp.members;
    std::sort(m.begin(), m.end());
    if (m.size() != q.group_size) return "group size differs from p";
    if (std::adjacent_find(m.begin(), m.end()) != m.end()) {
      return "repeated member";
    }
    uint64_t mask = 0;
    for (const ktg::VertexId v : m) {
      if (v >= g.num_vertices()) return "member out of range";
      const uint64_t mv = g.Mask(v, q.keywords);
      if (mv == 0) return "member covers no query keyword";
      mask |= mv;
    }
    const int recount = std::popcount(mask);
    if (recount != grp.covered) {
      return "claimed coverage " + std::to_string(grp.covered) +
             ", recount " + std::to_string(recount);
    }
    for (size_t i = 0; i < m.size(); ++i) {
      const auto ball = g.Ball(m[i], q.tenuity);
      for (size_t j = i + 1; j < m.size(); ++j) {
        if (std::binary_search(ball.begin(), ball.end(), m[j])) {
          return "members " + std::to_string(m[i]) + " and " +
                 std::to_string(m[j]) + " are within k hops";
        }
      }
    }
    if (recount > prev) return "coverage increases down the ranking";
    prev = recount;
    if (!seen.insert(m).second) return "duplicate group";
    profile->push_back(recount);
  }
  return "";
}

ExactAnswer EnumerateExact(const ReplayGraph& g, const ktg::KtgQuery& q) {
  return Enumerator(g, q).Run();
}

std::string CompareProfiles(const std::vector<int>& got,
                            const std::vector<int>& want) {
  if (got == want) return "";
  auto str = [](const std::vector<int>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      s += (i ? "," : "") + std::to_string(v[i]);
    }
    return s + "]";
  };
  return "profile " + str(got) + " differs from exact " + str(want);
}

std::string CheckReadEpoch(uint64_t epoch, uint64_t acknowledged,
                           uint64_t sent) {
  if (epoch < acknowledged) {
    return "stale epoch " + std::to_string(epoch) + " (published " +
           std::to_string(acknowledged) + " before the read)";
  }
  if (epoch > sent) {
    return "epoch " + std::to_string(epoch) + " was not sent by epoch " +
           std::to_string(sent) + " when the read was answered";
  }
  return "";
}

int SelfTestChecks(const ktg::AttributedGraph& g,
                   const std::vector<ktg::KtgQuery>& queries,
                   std::string* why) {
  const ReplayGraph base(g);
  // A query with at least two groups whose best group has two members to
  // corrupt; its exact answer is the genuine one.
  const ktg::KtgQuery* q = nullptr;
  ExactAnswer exact;
  for (size_t i = 0; i < queries.size() && i < 64 && q == nullptr; ++i) {
    if (queries[i].group_size < 2) continue;
    exact = EnumerateExact(base, queries[i]);
    if (exact.groups.size() >= 2) q = &queries[i];
  }
  if (q == nullptr) {
    *why = "self-test found no query with two groups";
    return 0;
  }
  std::vector<int> prof;
  if (!CheckGroups(base, *q, exact.groups, &prof).empty() ||
      !CompareProfiles(prof, exact.profile).empty()) {
    *why = "self-test: the exact answer itself was rejected";
    return 0;
  }
  int caught = 0;
  auto rejected = [&](const ReplayGraph& at, std::vector<ReportedGroup> ans,
                      const char* name) {
    std::vector<int> p;
    const bool hit = !CheckGroups(at, *q, ans, &p).empty() ||
                     !CompareProfiles(p, exact.profile).empty();
    if (hit) {
      ++caught;
    } else if (why->empty()) {
      *why = std::string("self-test: corrupted answer passed: ") + name;
    }
  };

  // A pair within k: swap the best group's second member for a covering
  // vertex near its first member, keeping the claimed coverage honest.
  {
    auto ans = exact.groups;
    auto& grp = ans[0];
    for (const ktg::VertexId u : base.Ball(grp.members[0], q->tenuity)) {
      if (base.Mask(u, q->keywords) == 0 ||
          std::find(grp.members.begin(), grp.members.end(), u) !=
              grp.members.end()) {
        continue;
      }
      grp.members[1] = u;
      break;
    }
    uint64_t mask = 0;
    for (const ktg::VertexId v : grp.members) mask |= base.Mask(v, q->keywords);
    grp.covered = std::popcount(mask);
    rejected(base, ans, "pair within k");
  }
  // A miscounted coverage.
  {
    auto ans = exact.groups;
    ans[0].covered += 1;
    rejected(base, ans, "miscounted coverage");
  }
  // A worse-than-optimal profile: every group valid, the best one missing.
  {
    auto ans = exact.groups;
    ans.erase(ans.begin());
    rejected(base, ans, "worse-than-optimal profile");
  }
  // A stale-epoch answer: the next epoch links two members of the best
  // group, and the old answer is served as if computed there.
  {
    ReplayGraph next = base;
    ktg::MutationBatch b;
    b.add_edges.emplace_back(exact.groups[0].members[0],
                             exact.groups[0].members[1]);
    next.Apply(b);
    const size_t before = caught;
    rejected(next, exact.groups, "stale-epoch answer");
    if (caught > static_cast<int>(before) &&
        CheckReadEpoch(0, 1, 1).empty()) {
      --caught;
      if (why->empty()) *why = "self-test: stale read epoch accepted";
    }
  }
  return caught;
}

}  // namespace perfbench
