// Shared helpers of the benchmark harness: a seeded generator that does not
// depend on library code, sample statistics, and the result line.

#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// SplitMix64 stream: the benchmark's own generator, so its inputs stay
/// the same when the library's generators change.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed for one purpose of one run seed.
inline uint64_t StreamSeed(uint64_t seed, uint64_t purpose) {
  SeededRng r(seed * 0x100000001b3ULL + purpose);
  return r.Next();
}

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main(): operation counts, the check
/// verdict and the metrics of the requested mode.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Query universe the workload's queries are drawn from. Fixed at 0 in
  /// the benchmark's runs; another value re-checks a gain on queries it
  /// was not tuned on.
  uint64_t universe = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (empty = nowhere).
  std::string spans_path;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
